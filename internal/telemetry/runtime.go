package telemetry

import "runtime/metrics"

// Go runtime series, read at scrape time from runtime/metrics. They
// count the whole process, so two scrapes of a spawned server give the
// bytes it allocated per exchange (Δ alloc bytes ÷ Δ dais_requests_total)
// and the share of its CPU the collector took (Δ GC CPU seconds ÷ Δ
// process CPU seconds) without a profiling build.
const (
	MetricGoAllocBytes   = "dais_go_alloc_bytes_total"    // (no labels)
	MetricGoAllocObjects = "dais_go_alloc_objects_total"  // (no labels)
	MetricGoGCCycles     = "dais_go_gc_cycles_total"      // (no labels)
	MetricGoGCCPU        = "dais_go_gc_cpu_seconds_total" // (no labels)
)

// runtimeSeries maps each exported series to its runtime/metrics name.
var runtimeSeries = [...]struct{ name, source string }{
	{MetricGoAllocBytes, "/gc/heap/allocs:bytes"},
	{MetricGoAllocObjects, "/gc/heap/allocs:objects"},
	{MetricGoGCCycles, "/gc/cycles/total:gc-cycles"},
	{MetricGoGCCPU, "/cpu/classes/gc/total:cpu-seconds"},
}

// collectRuntime is the Collector over runtimeSeries. A series the
// running toolchain does not know is left out, not reported as zero.
func collectRuntime(emit func(Sample)) {
	var samples [len(runtimeSeries)]metrics.Sample
	for i, s := range runtimeSeries {
		samples[i].Name = s.source
	}
	metrics.Read(samples[:])
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			emit(Sample{Name: runtimeSeries[i].name, Value: float64(s.Value.Uint64())})
		case metrics.KindFloat64:
			emit(Sample{Name: runtimeSeries[i].name, Value: s.Value.Float64()})
		}
	}
}
