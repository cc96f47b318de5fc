package service

import (
	"context"
	"encoding/base64"
	"fmt"

	"dais/internal/core"
	"dais/internal/daif"
	"dais/internal/filestore"
	"dais/internal/ops"
	"dais/internal/xmlutil"
)

// fileReader is satisfied by both the base file resource and staged
// snapshots, so read-side operations work against either.
type fileReader interface {
	core.DataResource
	ReadFile(ctx context.Context, name string, offset, count int64) ([]byte, error)
	ListFiles(ctx context.Context, pattern string) ([]filestore.FileInfo, error)
}

// registerDAIF wires the WS-DAIF operations from their catalog specs.
func (e *Endpoint) registerDAIF() {
	handleOp(e, ops.ReadFile, func(ctx context.Context, res fileReader, req *ops.FileRangeMsg) (*xmlutil.Element, error) {
		data, err := res.ReadFile(ctx, req.FileName, req.Offset, req.Count)
		if err != nil {
			return nil, err
		}
		resp := ops.ReadFile.NewResponse()
		d := resp.Add(daif.NSDAIF, "Data")
		d.SetAttr("", "encoding", "base64")
		d.SetText(base64.StdEncoding.EncodeToString(data))
		return resp, nil
	})

	writeOp := func(spec ops.Spec, apply func(context.Context, *daif.FileDataResource, string, []byte) error) {
		handleOp(e, spec, func(ctx context.Context, res *daif.FileDataResource, req *ops.FileDataMsg) (*xmlutil.Element, error) {
			if err := apply(ctx, res, req.FileName, req.Data); err != nil {
				return nil, err
			}
			return spec.NewResponse(), nil
		})
	}
	writeOp(ops.WriteFile, func(ctx context.Context, fr *daif.FileDataResource, n string, d []byte) error {
		return fr.WriteFile(ctx, n, d)
	})
	writeOp(ops.AppendFile, func(ctx context.Context, fr *daif.FileDataResource, n string, d []byte) error {
		return fr.AppendFile(ctx, n, d)
	})

	handleOp(e, ops.DeleteFile, func(ctx context.Context, res *daif.FileDataResource, req *ops.FileNameMsg) (*xmlutil.Element, error) {
		if err := res.DeleteFile(ctx, req.FileName); err != nil {
			return nil, err
		}
		return ops.DeleteFile.NewResponse(), nil
	})

	handleOp(e, ops.ListFiles, func(ctx context.Context, res fileReader, req *ops.PatternMsg) (*xmlutil.Element, error) {
		infos, err := res.ListFiles(ctx, req.Pattern)
		if err != nil {
			return nil, err
		}
		resp := ops.ListFiles.NewResponse()
		resp.AppendChild(daif.FileListElement(infos))
		return resp, nil
	})

	handleOp(e, ops.StatFile, func(ctx context.Context, res fileReader, req *ops.FileNameMsg) (*xmlutil.Element, error) {
		infos, err := res.ListFiles(ctx, req.FileName)
		if err != nil {
			return nil, err
		}
		if len(infos) != 1 {
			return nil, &core.InvalidExpressionFault{
				Detail: fmt.Sprintf("StatFile matched %d files", len(infos))}
		}
		resp := ops.StatFile.NewResponse()
		resp.AppendChild(daif.FileListElement(infos))
		return resp, nil
	})

	handleFactory(e, ops.FileSelectFactory, func(ctx context.Context, res *daif.FileDataResource, req *ops.FileFactoryMsg, target *core.DataService) (core.DataResource, error) {
		derived, err := daif.FileSelectFactory(ctx, res, target, req.Pattern, req.Config)
		if err != nil {
			return nil, err
		}
		return derived, nil
	})
}
