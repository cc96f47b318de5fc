// Package telemetry is the dependency-free observability subsystem of
// the DAIS service stack: atomic counters, gauges and fixed-bucket
// log-scale latency histograms labelled by operation name, interface
// class and fault code, a bounded ring buffer of per-request spans with
// a slow-call log, and Prometheus-text-format exposition.
//
// The package deliberately has no third-party dependencies: metric
// instruments are plain atomics, exposition is the Prometheus text
// format written by hand, and tracing is an in-process ring buffer.
// It attaches to the request path through the soap.Interceptor hook
// point introduced in PR 1 (see interceptor.go) and to the WSRF
// registry through scrape-time collectors, so every layer of the stack
// reports through one Registry without knowing about the others.
package telemetry

import (
	"log/slog"
	"time"

	"dais/internal/soap"
)

// Metric names exposed by the standard Observer instruments. Keeping
// them as constants lets tests and the scrapers (loadgen.Sweep,
// benchmark/scrape.go) refer to the series without restating strings.
const (
	MetricRequests = "dais_requests_total"          // side, op, class, code
	MetricInFlight = "dais_inflight_requests"       // side
	MetricLatency  = "dais_request_seconds"         // side, op
	MetricBytes    = "dais_envelope_bytes_total"    // side, direction, op
	MetricFaults   = "dais_faults_total"            // side, op, code
	MetricWSRFLive = "dais_wsrf_resources"          // service, kind
	MetricWSRFDead = "dais_wsrf_terminations_total" // service
	// Encode-path series collected at scrape time from soap.EncodeStats.
	MetricEncodeBytes = "dais_encode_bytes_total"        // (no labels)
	MetricEncodePool  = "dais_encode_pool_buffers_total" // outcome
)

// Label values for the side and direction keys.
const (
	SideClient  = "client"
	SideServer  = "server"
	DirIn       = "in"
	DirOut      = "out"
	CodeOK      = "ok"      // successful exchange
	CodeError   = "error"   // untyped error
	CodeUnknown = "unknown" // operation not in the catalog
)

// Observer bundles the standard instruments the SOAP interceptors and
// the WSRF collectors record into, all registered on one Registry.
// A nil *Observer is valid everywhere and records nothing.
type Observer struct {
	Registry *Registry
	Requests *CounterVec
	InFlight *GaugeVec
	Latency  *HistogramVec
	Bytes    *CounterVec
	Faults   *CounterVec
	Tracer   *Tracer
}

// ObserverOption configures NewObserver.
type ObserverOption func(*observerConfig)

type observerConfig struct {
	slowThreshold time.Duration
	logger        *slog.Logger
}

// spanCapacity is the number of recent spans an Observer's ring buffer
// keeps for /spans.
const spanCapacity = 256

// WithSlowThreshold sets the duration above which a span is logged as a
// slow call (default 1s; 0 disables the slow log).
func WithSlowThreshold(d time.Duration) ObserverOption {
	return func(c *observerConfig) { c.slowThreshold = d }
}

// WithLogger directs the slow-call log (default slog.Default()).
func WithLogger(l *slog.Logger) ObserverOption {
	return func(c *observerConfig) { c.logger = l }
}

// NewObserver builds an Observer with a fresh Registry and the standard
// instrument set.
func NewObserver(opts ...ObserverOption) *Observer {
	cfg := observerConfig{slowThreshold: time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	reg := NewRegistry()
	obs := &Observer{
		Registry: reg,
		Requests: reg.NewCounterVec(MetricRequests,
			"SOAP exchanges by operation, interface class and outcome code.",
			"side", "op", "class", "code"),
		InFlight: reg.NewGaugeVec(MetricInFlight,
			"SOAP exchanges currently in flight.", "side"),
		Latency: reg.NewHistogramVec(MetricLatency,
			"SOAP exchange latency in seconds.", LatencyBuckets(), "side", "op"),
		Bytes: reg.NewCounterVec(MetricBytes,
			"Serialised envelope bytes by direction.", "side", "direction", "op"),
		Faults: reg.NewCounterVec(MetricFaults,
			"SOAP exchanges that ended in a fault, by fault code.",
			"side", "op", "code"),
		Tracer: NewTracer(spanCapacity, cfg.slowThreshold, cfg.logger),
	}
	// The soap encode counters are process-global atomics (the soap
	// package cannot import telemetry), so they surface as a scrape-time
	// collector rather than live instruments.
	reg.RegisterCollector(func(emit func(Sample)) {
		encoded, hits, misses := soap.EncodeStats()
		emit(Sample{Name: MetricEncodeBytes, Value: float64(encoded)})
		emit(Sample{Name: MetricEncodePool, Labels: map[string]string{"outcome": "hit"}, Value: float64(hits)})
		emit(Sample{Name: MetricEncodePool, Labels: map[string]string{"outcome": "miss"}, Value: float64(misses)})
	})
	reg.RegisterCollector(collectRuntime)
	return obs
}

// Default is the process-wide observer the service endpoint and
// consumer client install when no explicit observer is configured —
// the telemetry analogue of http.DefaultServeMux.
var Default = NewObserver()
