package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/telemetry"
)

// Metric names for the streaming rowset delivery pipeline. They are
// bound here rather than in internal/rowset because rowset sits below
// telemetry in the import graph (telemetry → ops → dair → rowset); the
// buffer takes callbacks, and this is the one place that connects them
// to a registry — the same split resil uses for its shed observer.
const (
	// MetricRowsetRows counts rows produced into streaming rowset
	// buffers.
	MetricRowsetRows = "dais_rowset_rows_total"
	// MetricRowsetSpillBytes counts bytes spilled from rowset buffers
	// to the filestore.
	MetricRowsetSpillBytes = "dais_rowset_spill_bytes_total"
	// MetricRowsetBufferDepth gauges memory-resident rows across all
	// live streaming rowset buffers.
	MetricRowsetBufferDepth = "dais_rowset_buffer_depth_rows"
	// MetricRowsetBatches counts the batches streaming rowset buffers
	// sealed, and MetricRowsetProductionSeconds the time they spent
	// getting them: the scan at work behind a factory request that has
	// long been answered. Production runs inside no request, so this is
	// the server time that dais_request_seconds does not account for.
	MetricRowsetBatches           = "dais_rowset_batches_total"
	MetricRowsetProductionSeconds = "dais_rowset_production_seconds_total"
)

// RowsetStreamHooks binds the rowset buffer's observation callbacks to
// a telemetry registry. Pass the result in the rowset.BufferConfig
// given to dair.WithStreamDelivery, once per registry. A nil registry
// yields no-op hooks.
func RowsetStreamHooks(reg *telemetry.Registry) rowset.Hooks {
	if reg == nil {
		return rowset.Hooks{}
	}
	rows := reg.NewCounterVec(MetricRowsetRows,
		"Rows produced into streaming rowset buffers.").With()
	spill := reg.NewCounterVec(MetricRowsetSpillBytes,
		"Bytes spilled from streaming rowset buffers to the filestore.").With()
	depth := reg.NewGaugeVec(MetricRowsetBufferDepth,
		"Memory-resident rows across live streaming rowset buffers.").With()
	batches := reg.NewCounterVec(MetricRowsetBatches,
		"Batches sealed into streaming rowset buffers.").With()
	// Seconds are a fraction, which a counter cannot hold: kept in
	// nanoseconds, converted at scrape time.
	var busy atomic.Int64
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: MetricRowsetProductionSeconds, Value: time.Duration(busy.Load()).Seconds()})
	})
	return rowset.Hooks{
		RowsProduced:  func(n int) { rows.Add(int64(n)) },
		BatchProduced: func(d time.Duration) { batches.Inc(); busy.Add(int64(d)) },
		SpilledBytes:  func(n int64) { spill.Add(n) },
		BufferDepth:   func(delta int) { depth.Add(int64(delta)) },
	}
}

// normalizeTuplesWindow resolves a wire-level GetTuples request into a
// concrete (start, count) window, handling every edge case once at the
// service boundary instead of per codec:
//
//   - negative Count is a fault — the consumer asked for nonsense
//   - Count zero stays zero: an empty page in the resource's format
//   - StartPosition below 1 clamps to 1 (WS-DAIR positions are 1-based)
//   - an absent Count means "everything from StartPosition on", which
//     waits until production has ended and the total is known
//   - a start past the end yields an empty page, a window overlapping
//     the still-producing tail blocks until the rows exist, and a Count
//     of any size stops at the last row (all resolved downstream by the
//     buffer's window clamp; the wait is bounded by the request context)
func normalizeTuplesWindow(ctx context.Context, res *dair.SQLRowsetResource, req *ops.PageMsg) (start, count int, err error) {
	if req.HasCount && req.Count < 0 {
		return 0, 0, &core.InvalidExpressionFault{
			Detail: fmt.Sprintf("GetTuples: negative Count %d", req.Count),
		}
	}
	start = req.Start
	if start < 1 {
		start = 1
	}
	count = req.Count
	if !req.HasCount {
		n, err := res.FinalRowCount(ctx)
		if err != nil {
			return 0, 0, err
		}
		count = n - (start - 1)
		if count < 0 {
			count = 0
		}
	}
	return start, count, nil
}
