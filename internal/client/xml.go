package client

import (
	"context"
	"fmt"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/xmlutil"
)

// SequenceItem is one decoded entry of an XMLSequence response.
type SequenceItem struct {
	Document string
	Node     *xmlutil.Element // nil for scalar results
	Value    string
}

// decodeSequence converts an XMLSequence element into items.
func decodeSequence(seq *xmlutil.Element) ([]SequenceItem, error) {
	if seq == nil {
		return nil, fmt.Errorf("client: response missing XMLSequence")
	}
	var out []SequenceItem
	for _, item := range seq.FindAll(ops.NSDAIX, "Item") {
		si := SequenceItem{Document: item.AttrValue("", "document")}
		if v := item.Find(ops.NSDAIX, "Value"); v != nil {
			si.Value = v.Text()
		} else if kids := item.ChildElements(); len(kids) > 0 {
			si.Node = kids[0]
			si.Value = kids[0].Text()
		}
		out = append(out, si)
	}
	return out, nil
}

// sequenceOp runs one query-style operation and decodes its
// XMLSequence response.
func (c *Client) sequenceOp(ctx context.Context, ref ResourceRef, spec ops.Spec, msg ops.Msg) ([]SequenceItem, error) {
	resp, err := c.invoke(ctx, ref, spec, msg)
	if err != nil {
		return nil, err
	}
	return decodeSequence(resp.Find(ops.NSDAIX, "XMLSequence"))
}

// AddDocument stores a document in an XML collection resource.
func (c *Client) AddDocument(ctx context.Context, ref ResourceRef, name string, doc *xmlutil.Element) error {
	_, err := c.invoke(ctx, ref, ops.AddDocument,
		ops.AddDocumentMsg{DocumentName: name, Document: doc})
	return err
}

// GetDocument fetches a document by name.
func (c *Client) GetDocument(ctx context.Context, ref ResourceRef, name string) (*xmlutil.Element, error) {
	resp, err := c.invoke(ctx, ref, ops.GetDocument, ops.DocMsg{DocumentName: name})
	if err != nil {
		return nil, err
	}
	wrap := resp.Find(ops.NSDAIX, "Document")
	if wrap == nil || len(wrap.ChildElements()) != 1 {
		return nil, fmt.Errorf("client: response missing Document")
	}
	return wrap.ChildElements()[0], nil
}

// RemoveDocument deletes a document by name.
func (c *Client) RemoveDocument(ctx context.Context, ref ResourceRef, name string) error {
	_, err := c.invoke(ctx, ref, ops.RemoveDocument, ops.DocMsg{DocumentName: name})
	return err
}

// ListDocuments lists the collection's document names.
func (c *Client) ListDocuments(ctx context.Context, ref ResourceRef) ([]string, error) {
	resp, err := c.invoke(ctx, ref, ops.ListDocuments, nil)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, el := range resp.FindAll(ops.NSDAIX, "DocumentName") {
		out = append(out, el.Text())
	}
	return out, nil
}

// CreateSubcollection creates a child collection.
func (c *Client) CreateSubcollection(ctx context.Context, ref ResourceRef, name string) error {
	_, err := c.invoke(ctx, ref, ops.CreateSubcollection, ops.CollMsg{CollectionName: name})
	return err
}

// RemoveSubcollection removes a child collection.
func (c *Client) RemoveSubcollection(ctx context.Context, ref ResourceRef, name string) error {
	_, err := c.invoke(ctx, ref, ops.RemoveSubcollection, ops.CollMsg{CollectionName: name})
	return err
}

// ListSubcollections lists child collections.
func (c *Client) ListSubcollections(ctx context.Context, ref ResourceRef) ([]string, error) {
	resp, err := c.invoke(ctx, ref, ops.ListSubcollections, nil)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, el := range resp.FindAll(ops.NSDAIX, "CollectionName") {
		out = append(out, el.Text())
	}
	return out, nil
}

// XPathExecute runs an XPath across the collection (direct access).
func (c *Client) XPathExecute(ctx context.Context, ref ResourceRef, expr string) ([]SequenceItem, error) {
	return c.sequenceOp(ctx, ref, ops.XPathExecute, ops.ExprMsg{Expression: expr})
}

// XQueryExecute runs an XQuery across the collection.
func (c *Client) XQueryExecute(ctx context.Context, ref ResourceRef, query string) ([]SequenceItem, error) {
	return c.sequenceOp(ctx, ref, ops.XQueryExecute, ops.ExprMsg{Expression: query})
}

// XUpdateExecute applies an XUpdate modifications document to one
// stored document, returning the number of nodes affected.
func (c *Client) XUpdateExecute(ctx context.Context, ref ResourceRef, docName string, modifications *xmlutil.Element) (int, error) {
	resp, err := c.invoke(ctx, ref, ops.XUpdateExecute,
		ops.XUpdateMsg{DocumentName: docName, Modifications: modifications})
	if err != nil {
		return 0, err
	}
	return intField("NodesModified", resp.FindText(ops.NSDAIX, "NodesModified"))
}

// XPathExecuteFactory derives a sequence resource from an XPath query.
func (c *Client) XPathExecuteFactory(ctx context.Context, ref ResourceRef, expr string, cfg *core.Configuration) (ResourceRef, error) {
	return c.factory(ctx, ref, ops.XPathExecuteFactory,
		ops.SeqFactoryMsg{Expression: expr, Config: cfg})
}

// XQueryExecuteFactory derives a sequence resource from an XQuery.
func (c *Client) XQueryExecuteFactory(ctx context.Context, ref ResourceRef, query string, cfg *core.Configuration) (ResourceRef, error) {
	return c.factory(ctx, ref, ops.XQueryExecuteFactory,
		ops.SeqFactoryMsg{Expression: query, Config: cfg})
}

// CollectionFactory derives a live sub-collection resource.
func (c *Client) CollectionFactory(ctx context.Context, ref ResourceRef, name string, cfg *core.Configuration) (ResourceRef, error) {
	return c.factory(ctx, ref, ops.CollectionFactory,
		ops.CollFactoryMsg{CollectionName: name, Config: cfg})
}

// GetItems pages through a derived sequence resource.
func (c *Client) GetItems(ctx context.Context, ref ResourceRef, startPosition, count int) ([]SequenceItem, error) {
	return c.sequenceOp(ctx, ref, ops.GetItems,
		ops.PageMsg{Start: startPosition, Count: count})
}
