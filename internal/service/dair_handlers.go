package service

import (
	"context"
	"fmt"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/xmlutil"
)

// propertyDocResponse shares the realisation-specific property document
// getters: the document is the WS-DAI one, wrapped in the operation's
// own response element.
func (e *Endpoint) propertyDocResponse(spec ops.Spec, name string) (*xmlutil.Element, error) {
	doc, err := e.svc.GetDataResourcePropertyDocument(name)
	if err != nil {
		return nil, err
	}
	resp := spec.NewResponse()
	resp.AppendChild(doc)
	return resp, nil
}

// registerDAIR wires the WS-DAIR operations from their catalog specs.
func (e *Endpoint) registerDAIR() {
	// SQLAccess.SQLExecute — the direct data access pattern of Fig. 2:
	// the data comes back in the response, in the requested format,
	// with the SQL communication area alongside.
	handleOp(e, ops.SQLExecute, func(ctx context.Context, res *dair.SQLDataResource, req *ops.SQLExecuteMsg) (*xmlutil.Element, error) {
		codec, err := res.Formats().Lookup(req.FormatURI)
		if err != nil {
			return nil, &core.InvalidDatasetFormatFault{Format: req.FormatURI}
		}
		data, err := res.SQLExecute(ctx, req.Expr.Expression, req.Expr.Params)
		if err != nil {
			return nil, err
		}
		resp := ops.SQLExecute.NewResponse()
		if rs := data.FirstRowset(); rs != nil {
			encoded, err := codec.Encode(rs)
			if err != nil {
				return nil, err
			}
			resp.AppendChild(ops.DatasetElement(codec.FormatURI(), encoded))
		} else {
			resp.AddText(dair.NSDAIR, "UpdateCount", fmt.Sprintf("%d", data.UpdateCount()))
		}
		resp.AppendChild(data.CommunicationAreaElement())
		return resp, nil
	})

	handleOp(e, ops.GetSQLPropertyDocument, func(ctx context.Context, res *dair.SQLDataResource, _ *ops.Empty) (*xmlutil.Element, error) {
		return e.propertyDocResponse(ops.GetSQLPropertyDocument, res.AbstractName())
	})

	// SQLFactory.SQLExecuteFactory — the indirect pattern of Fig. 3:
	// the response carries an EPR to the derived SQLResponse resource.
	handleFactory(e, ops.SQLExecuteFactory, func(ctx context.Context, res *dair.SQLDataResource, req *ops.SQLFactoryMsg, target *core.DataService) (core.DataResource, error) {
		derived, err := dair.SQLExecuteFactory(ctx, res, target, req.Expr.Expression, req.Expr.Params, req.Config)
		if err != nil {
			return nil, err
		}
		return derived, nil
	})

	// ResponseAccess operations.
	handleOp(e, ops.GetSQLRowset, func(ctx context.Context, res *dair.SQLResponseResource, req *ops.IndexMsg) (*xmlutil.Element, error) {
		set, err := res.GetSQLRowset(req.Index)
		if err != nil {
			return nil, err
		}
		resp := ops.GetSQLRowset.NewResponse()
		resp.AppendChild(rowset.SQLRowsetElement(set))
		return resp, nil
	})
	handleOp(e, ops.GetSQLUpdateCount, func(ctx context.Context, res *dair.SQLResponseResource, req *ops.IndexMsg) (*xmlutil.Element, error) {
		n, err := res.GetSQLUpdateCount(req.Index)
		if err != nil {
			return nil, err
		}
		resp := ops.GetSQLUpdateCount.NewResponse()
		resp.AddText(dair.NSDAIR, "UpdateCount", fmt.Sprintf("%d", n))
		return resp, nil
	})
	handleOp(e, ops.GetSQLCommunicationArea, func(ctx context.Context, res *dair.SQLResponseResource, _ *ops.Empty) (*xmlutil.Element, error) {
		data := &dair.SQLResponseData{CA: res.GetSQLCommunicationArea()}
		resp := ops.GetSQLCommunicationArea.NewResponse()
		resp.AppendChild(data.CommunicationAreaElement())
		return resp, nil
	})
	handleOp(e, ops.GetSQLReturnValue, func(ctx context.Context, res *dair.SQLResponseResource, _ *ops.Empty) (*xmlutil.Element, error) {
		v, err := res.GetSQLReturnValue()
		if err != nil {
			return nil, err
		}
		resp := ops.GetSQLReturnValue.NewResponse()
		resp.AddText(dair.NSDAIR, "Value", v.String())
		return resp, nil
	})
	handleOp(e, ops.GetSQLOutputParameter, func(ctx context.Context, res *dair.SQLResponseResource, req *ops.ParamMsg) (*xmlutil.Element, error) {
		v, err := res.GetSQLOutputParameter(req.ParameterName)
		if err != nil {
			return nil, err
		}
		resp := ops.GetSQLOutputParameter.NewResponse()
		resp.AddText(dair.NSDAIR, "Value", v.String())
		return resp, nil
	})
	handleOp(e, ops.GetSQLResponseItem, func(ctx context.Context, res *dair.SQLResponseResource, req *ops.IndexMsg) (*xmlutil.Element, error) {
		item, err := res.GetSQLResponseItem(req.Index)
		if err != nil {
			return nil, err
		}
		resp := ops.GetSQLResponseItem.NewResponse()
		switch item.Kind {
		case dair.ItemRowset:
			resp.AppendChild(rowset.SQLRowsetElement(item.Rowset))
		case dair.ItemUpdateCount:
			resp.AddText(dair.NSDAIR, "UpdateCount", fmt.Sprintf("%d", item.UpdateCount))
		default:
			resp.AddText(dair.NSDAIR, "Value", item.Value.String())
		}
		return resp, nil
	})
	handleOp(e, ops.GetSQLResponsePropertyDocument, func(ctx context.Context, res *dair.SQLResponseResource, _ *ops.Empty) (*xmlutil.Element, error) {
		return e.propertyDocResponse(ops.GetSQLResponsePropertyDocument, res.AbstractName())
	})

	// ResponseFactory.SQLRowsetFactory — the second hop of Fig. 5.
	handleFactory(e, ops.SQLRowsetFactory, func(ctx context.Context, res *dair.SQLResponseResource, req *ops.RowsetFactoryMsg, target *core.DataService) (core.DataResource, error) {
		derived, err := dair.SQLRowsetFactory(ctx, res, target, req.FormatURI, req.Count, req.Config)
		if err != nil {
			return nil, err
		}
		return derived, nil
	})

	// RowsetAccess operations — the third hop of Fig. 5.
	handleOp(e, ops.GetTuples, func(ctx context.Context, res *dair.SQLRowsetResource, req *ops.PageMsg) (*xmlutil.Element, error) {
		start, count, err := normalizeTuplesWindow(ctx, res, req)
		if err != nil {
			return nil, err
		}
		render, err := res.TuplesRenderer(ctx, start, count)
		if err != nil {
			return nil, err
		}
		resp := ops.GetTuples.NewResponse()
		resp.AppendChild(ops.WindowDatasetElement(res.FormatURI(), render))
		return resp, nil
	})
	handleOp(e, ops.GetRowsetPropertyDocument, func(ctx context.Context, res *dair.SQLRowsetResource, _ *ops.Empty) (*xmlutil.Element, error) {
		return e.propertyDocResponse(ops.GetRowsetPropertyDocument, res.AbstractName())
	})
}
