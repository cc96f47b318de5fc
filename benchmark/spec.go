package main

// The metric and workload catalogue. BENCHMARK.json at the repository
// root lists the same names (a test pins the two together); later
// issues cite them, so they are fixed.

// Workload names, in the order a full run executes them.
const (
	wlPointMix    = "point_mix"
	wlBulk        = "bulk_indirect"
	wlScanAgg     = "scan_agg"
	wlWriteBeside = "write_beside_read"
	wlGateway     = "gateway_mix"
)

var workloadNames = []string{wlPointMix, wlBulk, wlScanAgg, wlWriteBeside, wlGateway}

// Operation classes. The per-class median metric of a class is
// "<class>_p50_ms".
const (
	clSQLDirect   = "sql_direct"
	clSQLIndirect = "sql_indirect"
	clXMLXPath    = "xml_xpath"
	clWSRFProps   = "wsrf_props"
	clScatter     = "scatter"
	clWrite       = "write"
	clScan        = "scan"
	clBulk        = "bulk" // bulk_indirect's one class; pooled metrics only
)

// classMetrics are the classes that own a per-class median.
var classMetrics = []string{clSQLDirect, clSQLIndirect, clXMLXPath, clWSRFProps, clScatter, clWrite, clScan}

// metricDef is one named metric: unit, direction of goodness and, for
// end-to-end metrics, the share of the parent's median by which it may
// worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics the bounds apply to. Every one is defined
// (and never zero) on every workload, which is what the run contract
// requires. All three are times on the core's clock (CPU time), at the
// core's quiet speed (calib.go): the wall-clock figures a consumer sees — ops_per_s, p50_ms, rows_per_s —
// swing by a factor of two to four with the load of the host the
// machine shares, which no bound the contract allows survives, so they
// are per-layer metrics below.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics, in print order. A metric that
// does not apply to a workload (no gateway, no XML class, ...) reads 0
// there.
var perLayer = []metricDef{
	// Demoted end-to-end figures: absolute-zero target, wall-clock (at
	// the mercy of the host), tail too thin for a bound, or defined on
	// some workloads only (README).
	{"fail_ratio", "ratio", "lower", 0},
	{"ops_per_s", "1/s", "higher", 0},
	{"p50_ms", "ms", "lower", 0},
	{"p99_ms", "ms", "lower", 0},
	{"rows_per_s", "1/s", "higher", 0},
	{"sql_direct_p50_ms", "ms", "lower", 0},
	{"sql_indirect_p50_ms", "ms", "lower", 0},
	{"xml_xpath_p50_ms", "ms", "lower", 0},
	{"wsrf_props_p50_ms", "ms", "lower", 0},
	{"scatter_p50_ms", "ms", "lower", 0},
	{"write_p50_ms", "ms", "lower", 0},
	{"scan_p50_ms", "ms", "lower", 0},

	// Untraced run: /metrics scrape deltas, /proc, runtime.MemStats.
	{"service.requests_per_op", "count", "lower", 0},
	{"soap.bytes_in_per_op", "B", "lower", 0},
	{"soap.bytes_out_per_op", "B", "lower", 0},
	{"service.handler_ms_per_op", "ms", "lower", 0},
	{"service.unattributed_share", "ratio", "lower", 0},
	{"soap.encode_pool_hit_ratio", "ratio", "higher", 0},
	{"sqlengine.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"sqlengine.vector_batches_per_op", "count", "lower", 0},
	{"sqlengine.chunks_skipped_per_op", "count", "higher", 0},
	{"sqlengine.vector_path_share", "ratio", "higher", 0},
	{"rowset.spill_bytes", "B", "lower", 0},
	{"rowset.rows_total", "count", "higher", 0},
	{"resil.shed_total", "count", "lower", 0},
	{"resil.retries_total", "count", "lower", 0},
	{"service.faults_total", "count", "lower", 0},
	{"wsrf.live_resources_delta", "count", "lower", 0},
	{"gateway.backend_requests_per_op", "count", "lower", 0},
	{"gateway.backend_imbalance", "ratio", "lower", 0},
	{"gateway.fanout_ms_per_scatter", "ms", "lower", 0},
	{"proc.client_cpu_ms_per_op", "ms", "lower", 0},
	{"client.allocs_per_op", "count", "lower", 0},
	{"client.alloc_kb_per_op", "kB", "lower", 0},
	{"proc.server_rss_peak_mb", "MB", "lower", 0},
	{"host.speed", "ratio", "higher", 0},
	{"host.steal_share", "ratio", "lower", 0},

	// Traced run: span chain at the public seams.
	{"client.self_us", "us", "lower", 0},
	{"transport.self_us", "us", "lower", 0},
	{"soap.server_self_us", "us", "lower", 0},
	{"service.handler_us", "us", "lower", 0},

	// Traced run: direct timed calls into each layer.
	{"ops.encode_us", "us", "lower", 0},
	{"ops.decode_us", "us", "lower", 0},
	{"wsaddr.headers_us", "us", "lower", 0},
	{"soap.marshal_us", "us", "lower", 0},
	{"soap.parse_us", "us", "lower", 0},
	{"xmlutil.parse_us_per_kb", "us/kB", "lower", 0},
	{"xmlutil.encode_us_per_kb", "us/kB", "lower", 0},
	{"core.resolve_us", "us", "lower", 0},
	{"sqlengine.parse_us", "us", "lower", 0},
	{"sqlengine.prepare_us", "us", "lower", 0},
	{"sqlengine.execute_us", "us", "lower", 0},
	{"sqlengine.dml_us", "us", "lower", 0},
	{"sqlengine.chunk_rebuild_us", "us", "lower", 0},
	{"sqlengine.stream_ns_per_row", "ns", "lower", 0},
	{"rowset.encode_ns_per_row", "ns", "lower", 0},
	{"rowset.decode_ns_per_row", "ns", "lower", 0},
	{"rowset.bytes_per_row", "B", "lower", 0},
	{"rowset.buffer_window_us", "us", "lower", 0},
	{"xmldb.xpath_us", "us", "lower", 0},
	{"wsrf.get_property_us", "us", "lower", 0},
	{"wsrf.set_termination_us", "us", "lower", 0},
	{"telemetry.overhead_us", "us", "lower", 0},
	{"gateway.added_p50_us", "us", "lower", 0},
	{"gateway.scatter_added_p50_us", "us", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to its value for one workload.
type metricSet map[string]float64

// lookup finds a metric in the catalogue (the zero value when unknown).
func lookup(name string) metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m
			}
		}
	}
	return metricDef{}
}

func unitOf(name string) string   { return lookup(name).Unit }
func betterOf(name string) string { return lookup(name).Better }
