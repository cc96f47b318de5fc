package dair

import (
	"context"

	"dais/internal/core"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
)

// This file wires the streaming delivery pipeline into the WS-DAIR
// resources: indirect-mode SQLExecute runs the engine's pull-based row
// stream into a rowset.Buffer and registers the derived resources
// against the buffer, so GetTuples starts answering while the engine is
// still producing, and with a spill store configured large results
// spill to the filestore instead of occupying RAM. Every derived rowset
// is a buffer: rows that already exist in memory enter one through
// rowset.NewSetSource.

// WithStreamDelivery configures the buffer every streamed result is
// produced into. The config's SpillName is ignored — each stream gets a
// unique name in the configured store — and its Hooks/MemCap/PageRows
// apply to every stream the resource starts. Without it a buffer keeps
// every row in memory, in pages of rowset.DefaultPageRows.
func WithStreamDelivery(cfg rowset.BufferConfig) ResourceOption {
	return func(r *SQLDataResource) { r.bufCfg = cfg }
}

// streamHandle pairs one engine row stream with the buffer draining
// it. The buffer owns the stream; the handle's reference counting is
// the buffer's.
type streamHandle struct {
	stream *sqlengine.RowStream
	buf    *rowset.Buffer
}

// streamQuery starts streaming execution of the expression. It returns
// (nil, nil) for the statements a one-shot stream cannot serve — the
// caller then executes them through SQLExecute:
//
//   - Sensitive derived resources (they re-execute on every access)
//   - consumer-controlled transactions (the sticky session must not
//     be occupied by a long-lived stream)
//   - anything but a SELECT (DML must not run twice, and only queries
//     produce rowsets)
//
// A statement that fails to parse or to start faults here, and is not
// executed a second time.
func (r *SQLDataResource) streamQuery(expression string, params []sqlengine.Value, cfg core.Configuration) (*streamHandle, error) {
	if cfg.Sensitivity == core.Sensitive || r.Config.TransactionInitiation == core.TransactionConsumerControlled {
		return nil, nil
	}
	prepared, err := r.wrapper.Prepare(expression)
	if err != nil {
		return nil, err
	}
	prep, err := r.engine.Prepare(prepared)
	if err != nil {
		return nil, execFault(err)
	}
	if _, ok := prep.Statement().(*sqlengine.SelectStmt); !ok {
		return nil, nil
	}
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	sess := r.engine.NewSession()
	if iso, perr := sqlengine.ParseIsolationLevel(r.Config.TransactionIsolation); perr == nil {
		sess.SetIsolation(iso)
	}
	// The stream outlives the factory request that starts it — pages
	// are served to later GetTuples calls — so production runs under a
	// background context, like Sensitive refreshes do. Cancellation
	// comes from releasing the resource instead.
	stream, err := sess.ExecuteStream(context.Background(), prepared, params...)
	if err != nil {
		return nil, execFault(err)
	}
	bcfg := r.bufCfg
	bcfg.SpillName = core.NewAbstractName("rowset-spill")
	return &streamHandle{stream: stream, buf: rowset.NewBuffer(stream, bcfg)}, nil
}

// responseData waits for production to finish and assembles the
// response payload SQLExecute would have produced: the full rowset
// (paged back from spill if needed) plus the communication area.
func (h *streamHandle) responseData(ctx context.Context) (*SQLResponseData, error) {
	set, err := h.buf.Materialise(ctx)
	if err != nil {
		if res, rerr := h.stream.Result(); rerr != nil && res != nil {
			return newResponseData(res), execFault(rerr)
		}
		return nil, execFault(err)
	}
	res, err := h.stream.Result()
	if err != nil {
		return newResponseData(res), execFault(err)
	}
	return &SQLResponseData{
		Items: []ResponseItem{{Kind: ItemRowset, Rowset: set}},
		CA:    res.CA,
	}, nil
}
