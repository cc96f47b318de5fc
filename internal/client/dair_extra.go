package client

import (
	"context"
	"fmt"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/wsrf"
	"dais/internal/xmlutil"
)

// The remaining WS-DAIR operations of the paper's Fig. 6, so the client
// covers the full interface surface: the realisation-specific property
// document getters and the per-item response accessors.

// propertyDocOp fetches a realisation-specific property document.
func (c *Client) propertyDocOp(ctx context.Context, ref ResourceRef, spec ops.Spec) (*xmlutil.Element, error) {
	resp, err := c.invoke(ctx, ref, spec, nil)
	if err != nil {
		return nil, err
	}
	doc := resp.Find(core.NSDAI, "DataResourcePropertyDocument")
	if doc == nil {
		return nil, fmt.Errorf("client: response missing property document")
	}
	return doc, nil
}

// GetSQLPropertyDocument implements SQLAccess.GetSQLPropertyDocument.
func (c *Client) GetSQLPropertyDocument(ctx context.Context, ref ResourceRef) (*xmlutil.Element, error) {
	return c.propertyDocOp(ctx, ref, ops.GetSQLPropertyDocument)
}

// GetSQLResponsePropertyDocument implements
// ResponseAccess.GetSQLResponsePropertyDocument.
func (c *Client) GetSQLResponsePropertyDocument(ctx context.Context, ref ResourceRef) (*xmlutil.Element, error) {
	return c.propertyDocOp(ctx, ref, ops.GetSQLResponsePropertyDocument)
}

// GetRowsetPropertyDocument implements
// RowsetAccess.GetRowsetPropertyDocument.
func (c *Client) GetRowsetPropertyDocument(ctx context.Context, ref ResourceRef) (*xmlutil.Element, error) {
	return c.propertyDocOp(ctx, ref, ops.GetRowsetPropertyDocument)
}

// ResponseItem is a decoded GetSQLResponseItem result: exactly one of
// Set, UpdateCount or Value is meaningful.
type ResponseItem struct {
	Set         *sqlengine.ResultSet
	UpdateCount int
	Value       string
	HasValue    bool
}

// GetSQLResponseItem implements ResponseAccess.GetSQLResponseItem.
func (c *Client) GetSQLResponseItem(ctx context.Context, ref ResourceRef, index int) (ResponseItem, error) {
	resp, err := c.invoke(ctx, ref, ops.GetSQLResponseItem, ops.IndexMsg{Index: index})
	if err != nil {
		return ResponseItem{}, err
	}
	out := ResponseItem{UpdateCount: -1}
	if rs := resp.Find(rowset.NSDAIR, "SQLRowset"); rs != nil {
		set, err := rowset.DecodeSQLRowsetElement(rs)
		if err != nil {
			return ResponseItem{}, err
		}
		out.Set = set
		return out, nil
	}
	if uc := resp.Find(ops.NSDAIR, "UpdateCount"); uc != nil {
		if out.UpdateCount, err = intField("UpdateCount", uc.Text()); err != nil {
			return ResponseItem{}, err
		}
		return out, nil
	}
	if v := resp.Find(ops.NSDAIR, "Value"); v != nil {
		out.Value = v.Text()
		out.HasValue = true
	}
	return out, nil
}

// GetSQLReturnValue implements ResponseAccess.GetSQLReturnValue.
func (c *Client) GetSQLReturnValue(ctx context.Context, ref ResourceRef) (string, error) {
	resp, err := c.invoke(ctx, ref, ops.GetSQLReturnValue, nil)
	if err != nil {
		return "", err
	}
	return resp.FindText(ops.NSDAIR, "Value"), nil
}

// GetSQLOutputParameter implements ResponseAccess.GetSQLOutputParameter.
func (c *Client) GetSQLOutputParameter(ctx context.Context, ref ResourceRef, name string) (string, error) {
	resp, err := c.invoke(ctx, ref, ops.GetSQLOutputParameter, ops.ParamMsg{ParameterName: name})
	if err != nil {
		return "", err
	}
	return resp.FindText(ops.NSDAIR, "Value"), nil
}

// GetMultipleResourceProperties fetches several properties by QName in
// one WSRF round trip.
func (c *Client) GetMultipleResourceProperties(ctx context.Context, ref ResourceRef, qnames []string) ([]*xmlutil.Element, error) {
	resp, err := c.invoke(ctx, ref, ops.GetMultipleResourceProperties,
		ops.MsgFunc(func(s ops.Spec, req *xmlutil.Element) {
			for _, q := range qnames {
				req.AddText(wsrf.NSRP, "ResourceProperty", q)
			}
		}))
	if err != nil {
		return nil, err
	}
	return resp.ChildElements(), nil
}
