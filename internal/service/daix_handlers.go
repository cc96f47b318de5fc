package service

import (
	"context"
	"fmt"

	"dais/internal/core"
	"dais/internal/daix"
	"dais/internal/ops"
	"dais/internal/xmlutil"
)

// registerDAIX wires the WS-DAIX operations from their catalog specs.
func (e *Endpoint) registerDAIX() {
	// XMLCollectionAccess document operations.
	handleOp(e, ops.AddDocument, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.AddDocumentMsg) (*xmlutil.Element, error) {
		if err := res.AddDocument(req.DocumentName, req.Document); err != nil {
			return nil, wrapDAIXErr(err)
		}
		return ops.AddDocument.NewResponse(), nil
	})
	handleOp(e, ops.GetDocument, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.DocMsg) (*xmlutil.Element, error) {
		doc, err := res.GetDocument(req.DocumentName)
		if err != nil {
			return nil, wrapDAIXErr(err)
		}
		resp := ops.GetDocument.NewResponse()
		wrap := resp.Add(daix.NSDAIX, "Document")
		wrap.AppendChild(doc)
		return resp, nil
	})
	handleOp(e, ops.RemoveDocument, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.DocMsg) (*xmlutil.Element, error) {
		if err := res.RemoveDocument(req.DocumentName); err != nil {
			return nil, wrapDAIXErr(err)
		}
		return ops.RemoveDocument.NewResponse(), nil
	})
	handleOp(e, ops.ListDocuments, func(ctx context.Context, res *daix.XMLCollectionResource, _ *ops.Empty) (*xmlutil.Element, error) {
		names, err := res.ListDocuments()
		if err != nil {
			return nil, wrapDAIXErr(err)
		}
		resp := ops.ListDocuments.NewResponse()
		for _, n := range names {
			resp.AddText(daix.NSDAIX, "DocumentName", n)
		}
		return resp, nil
	})

	// XMLCollectionAccess sub-collection operations.
	handleOp(e, ops.CreateSubcollection, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.CollMsg) (*xmlutil.Element, error) {
		if err := res.CreateSubcollection(req.CollectionName); err != nil {
			return nil, wrapDAIXErr(err)
		}
		return ops.CreateSubcollection.NewResponse(), nil
	})
	handleOp(e, ops.RemoveSubcollection, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.CollMsg) (*xmlutil.Element, error) {
		if err := res.RemoveSubcollection(req.CollectionName); err != nil {
			return nil, wrapDAIXErr(err)
		}
		return ops.RemoveSubcollection.NewResponse(), nil
	})
	handleOp(e, ops.ListSubcollections, func(ctx context.Context, res *daix.XMLCollectionResource, _ *ops.Empty) (*xmlutil.Element, error) {
		names, err := res.ListSubcollections()
		if err != nil {
			return nil, wrapDAIXErr(err)
		}
		resp := ops.ListSubcollections.NewResponse()
		for _, n := range names {
			resp.AddText(daix.NSDAIX, "CollectionName", n)
		}
		return resp, nil
	})

	// Query interfaces.
	handleOp(e, ops.XPathExecute, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.ExprMsg) (*xmlutil.Element, error) {
		results, err := res.XPathExecute(ctx, req.Expression)
		if err != nil {
			return nil, err
		}
		resp := ops.XPathExecute.NewResponse()
		resp.AppendChild(daix.WrapResults(results))
		return resp, nil
	})
	handleOp(e, ops.XQueryExecute, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.ExprMsg) (*xmlutil.Element, error) {
		results, err := res.XQueryExecute(ctx, req.Expression)
		if err != nil {
			return nil, err
		}
		resp := ops.XQueryExecute.NewResponse()
		resp.AppendChild(daix.WrapResults(results))
		return resp, nil
	})
	handleOp(e, ops.XUpdateExecute, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.XUpdateMsg) (*xmlutil.Element, error) {
		n, err := res.XUpdateExecute(ctx, req.DocumentName, req.Modifications)
		if err != nil {
			return nil, err
		}
		resp := ops.XUpdateExecute.NewResponse()
		resp.AddText(daix.NSDAIX, "NodesModified", fmt.Sprintf("%d", n))
		return resp, nil
	})

	// Factories (indirect access).
	handleFactory(e, ops.XPathExecuteFactory, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.SeqFactoryMsg, target *core.DataService) (core.DataResource, error) {
		derived, err := daix.XPathFactory(ctx, res, target, req.Expression, req.Config)
		if err != nil {
			return nil, err
		}
		return derived, nil
	})
	handleFactory(e, ops.XQueryExecuteFactory, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.SeqFactoryMsg, target *core.DataService) (core.DataResource, error) {
		derived, err := daix.XQueryFactory(ctx, res, target, req.Expression, req.Config)
		if err != nil {
			return nil, err
		}
		return derived, nil
	})
	handleFactory(e, ops.CollectionFactory, func(ctx context.Context, res *daix.XMLCollectionResource, req *ops.CollFactoryMsg, target *core.DataService) (core.DataResource, error) {
		derived, err := daix.CollectionFactory(ctx, res, target, req.CollectionName, req.Config)
		if err != nil {
			return nil, wrapDAIXErr(err)
		}
		return derived, nil
	})

	// Sequence access.
	handleOp(e, ops.GetItems, func(ctx context.Context, res *daix.XMLSequenceResource, req *ops.PageMsg) (*xmlutil.Element, error) {
		count := req.Count
		if !req.HasCount {
			count = res.ItemCount()
		}
		items, err := res.GetItems(req.Start, count)
		if err != nil {
			return nil, err
		}
		resp := ops.GetItems.NewResponse()
		resp.AppendChild(daix.WrapResults(items))
		return resp, nil
	})
}

// wrapDAIXErr converts plain xmldb errors into DAIS faults while
// passing typed faults through.
func wrapDAIXErr(err error) error {
	if err == nil {
		return nil
	}
	if core.FaultName(err) != "" {
		return err
	}
	return &core.InvalidExpressionFault{Detail: err.Error()}
}
