package service

import (
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
)

// Metric names for the engine's columnar execution core. Bound here for
// the same reason as the plan-cache metrics: sqlengine sits below
// telemetry in the import graph, so the service layer is the one place
// that connects engine counters to a registry.
const (
	// MetricVectorBatches counts column chunks evaluated by vectorised
	// kernels (chunks skipped via zone maps are not included).
	MetricVectorBatches = "dais_vector_batches_total"
	// MetricVectorChunksSkipped counts column chunks skipped entirely
	// because their zone maps proved no row could match the predicate,
	// or could enter a bounded top-K's heap.
	MetricVectorChunksSkipped = "dais_vector_chunks_skipped_total"
	// MetricVectorChunksRebuilt counts column chunks built or rebuilt
	// from the row store: a table's whole set on its first vectorised
	// scan, then one per chunk a write touched. A rate near the scan
	// rate times the table's chunk count is a rebuild storm.
	MetricVectorChunksRebuilt = "dais_vector_chunks_rebuilt_total"
	// MetricVectorFallbacks counts executions whose plan read its table
	// through the kernels and did not: a scan that went to the row
	// operators, or a grouping whose chunk fold was abandoned and whose
	// row feeder started over (an operand that did not bind, column chunks
	// that could not be built, a zero divisor on a selected row). EXPLAIN
	// says what was planned, this says how often it did not run on the
	// kernels.
	MetricVectorFallbacks = "dais_vector_fallbacks_total"
	// MetricVectorPartialsReused counts pages a grouped aggregate answered
	// from the page's stored partial aggregates instead of reading its
	// rows. Its rate over the batch rate is the share of grouped pages no
	// write touched since the last grouped read of them.
	MetricVectorPartialsReused = "dais_vector_partials_reused_total"
)

// RegisterVectorMetrics exposes an engine's columnar-execution counters
// on the registry as scrape-time samples, labelled with the engine
// (database) name. A nil registry or engine is a no-op.
func RegisterVectorMetrics(reg *telemetry.Registry, eng *sqlengine.Engine) {
	if reg == nil || eng == nil {
		return
	}
	labels := map[string]string{"engine": eng.Database().Name()}
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		stats := eng.VectorStats()
		emit(telemetry.Sample{Name: MetricVectorBatches, Labels: labels, Value: float64(stats.Batches)})
		emit(telemetry.Sample{Name: MetricVectorChunksSkipped, Labels: labels, Value: float64(stats.ChunksSkipped)})
		emit(telemetry.Sample{Name: MetricVectorChunksRebuilt, Labels: labels, Value: float64(stats.ChunksRebuilt)})
		emit(telemetry.Sample{Name: MetricVectorFallbacks, Labels: labels, Value: float64(stats.Fallbacks)})
		emit(telemetry.Sample{Name: MetricVectorPartialsReused, Labels: labels, Value: float64(stats.PartialsReused)})
	})
}
