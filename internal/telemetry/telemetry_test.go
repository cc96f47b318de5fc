package telemetry

import (
	"bytes"
	"context"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dais/internal/core"
	"dais/internal/soap"
	"dais/internal/xmlutil"
)

func TestCounterAndGaugeVec(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounterVec("c_total", "help", "op")
	c.With("a").Inc()
	c.With("a").Add(2)
	c.With("b").Inc()
	if got := c.With("a").Value(); got != 3 {
		t.Fatalf("counter a = %d", got)
	}

	g := reg.NewGaugeVec("g", "help", "side")
	g.With("x").Inc()
	g.With("x").Inc()
	g.With("x").Dec()
	g.With("y").Set(7)
	if got := g.With("x").Value(); got != 1 {
		t.Fatalf("gauge x = %d", got)
	}

	samples := reg.Snapshot()
	if v := CountFromSamples(samples, "c_total", map[string]string{"op": "a"}); v != 3 {
		t.Fatalf("snapshot counter a = %v", v)
	}
	if v := CountFromSamples(samples, "g", map[string]string{"side": "y"}); v != 7 {
		t.Fatalf("snapshot gauge y = %v", v)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounterVec("c_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity must panic")
		}
	}()
	c.With("only-one")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogramVec("lat_seconds", "", LatencyBuckets(), "op").With("q")
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Minute) // lands in the +Inf overflow bucket
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() < 100*time.Millisecond {
		t.Fatalf("sum = %v", h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	// The overflow observation clamps to the largest finite bound.
	bounds := LatencyBuckets()
	if q := h.Quantile(1); q != secondsToDuration(bounds[len(bounds)-1]) {
		t.Fatalf("p100 = %v", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q=0 gave %v", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// while snapshots run concurrently; run with -race it proves the
// lock-free observation path.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewHistogramVec("lat_seconds", "", LatencyBuckets(), "op")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := vec.With("hammer")
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*i+1) * time.Microsecond)
			}
		}(g)
	}
	for vec.With("hammer").Count() < goroutines*perG {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := vec.With("hammer").Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var bucketSum uint64
	for _, n := range vec.With("hammer").snapshotBuckets() {
		bucketSum += n
	}
	if bucketSum != goroutines*perG {
		t.Fatalf("bucket sum = %d", bucketSum)
	}
}

func TestExposeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterVec("rt_total", "a counter", "op", "code").With("Query", "ok").Add(5)
	reg.NewGaugeVec("rt_gauge", "a gauge", "side").With("server").Set(2)
	h := reg.NewHistogramVec("rt_seconds", "a histogram", LatencyBuckets(), "op").With("Query")
	for i := 0; i < 50; i++ {
		h.Observe(750 * time.Microsecond)
	}
	reg.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "rt_live", Labels: map[string]string{"kind": "SQL"}, Value: 3})
		emit(Sample{Name: "rt_dead_total", Labels: map[string]string{"kind": "SQL"}, Value: 4})
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE rt_total counter",
		"# HELP rt_seconds a histogram",
		`rt_total{code="ok",op="Query"} 5`,
		`rt_live{kind="SQL"} 3`,
		"# TYPE rt_live gauge",
		"# TYPE rt_dead_total counter",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	parsed, err := ParsePrometheus(text)
	if err != nil {
		t.Fatal(err)
	}
	if v := CountFromSamples(parsed, "rt_total", map[string]string{"op": "Query"}); v != 5 {
		t.Fatalf("parsed counter = %v", v)
	}
	if v := CountFromSamples(parsed, "rt_seconds_count", map[string]string{"op": "Query"}); v != 50 {
		t.Fatalf("parsed histogram count = %v", v)
	}
	// Quantiles estimated from the scrape match the live histogram.
	scraped := DeltaQuantile(nil, parsed, "rt_seconds", map[string]string{"op": "Query"}, 0.5)
	if live := h.Quantile(0.5); scraped != live {
		t.Fatalf("scraped p50 %v != live p50 %v", scraped, live)
	}
}

// TestRuntimeSeriesRoundTrip: every observer exposes the Go runtime's
// allocation and GC accounting, typed as counters, and two scrapes
// bracket what the process allocated in between — the "bytes per
// exchange" and "GC share" of a spawned server come from that.
func TestRuntimeSeriesRoundTrip(t *testing.T) {
	obs := NewObserver()
	scrape := func() []Sample {
		t.Helper()
		var buf bytes.Buffer
		if err := obs.Registry.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{MetricGoAllocBytes, MetricGoAllocObjects, MetricGoGCCycles, MetricGoGCCPU} {
			if !strings.Contains(buf.String(), "# TYPE "+name+" counter\n"+name+" ") {
				t.Fatalf("exposition lacks the counter %s:\n%s", name, buf.String())
			}
		}
		parsed, err := ParsePrometheus(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	before := scrape()
	const blocks, blockSize = 64, 1 << 16
	for i := 0; i < blocks; i++ {
		sink = make([]byte, blockSize)
	}
	runtime.GC()
	after := scrape()
	delta := func(name string) float64 {
		return CountFromSamples(after, name, nil) - CountFromSamples(before, name, nil)
	}
	if d := delta(MetricGoAllocBytes); d < blocks*blockSize {
		t.Errorf("%s moved by %v across %d bytes of allocation", MetricGoAllocBytes, d, blocks*blockSize)
	}
	if d := delta(MetricGoAllocObjects); d < blocks {
		t.Errorf("%s moved by %v across %d allocations", MetricGoAllocObjects, d, blocks)
	}
	if d := delta(MetricGoGCCycles); d < 1 {
		t.Errorf("%s moved by %v across a forced collection", MetricGoGCCycles, d)
	}
	if d := delta(MetricGoGCCPU); d < 0 {
		t.Errorf("%s went backwards by %v", MetricGoGCCPU, d)
	}
}

var sink []byte

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	if _, err := ParsePrometheus("not a sample line"); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := ParsePrometheus(`x{a="unterminated} 1`); err == nil {
		t.Fatal("want label error")
	}
}

func TestTracerRingAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(4, 10*time.Millisecond, logger)
	for i := 0; i < 10; i++ {
		tr.Record(Span{RequestID: string(rune('a' + i)), Duration: time.Millisecond})
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d spans", len(recent))
	}
	if recent[0].RequestID != "j" || recent[3].RequestID != "g" {
		t.Fatalf("newest-first order broken: %+v", recent)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast spans must not hit the slow log: %s", buf.String())
	}
	tr.Record(Span{RequestID: "slowpoke", Duration: time.Second, Op: "GenericQuery"})
	if out := buf.String(); !strings.Contains(out, "slow call") || !strings.Contains(out, "slowpoke") {
		t.Fatalf("slow log = %q", out)
	}
	// A nil tracer records nothing and does not panic.
	var nilTracer *Tracer
	nilTracer.Record(Span{})
}

// TestInterceptorCompositionOrder pins the chain contract: request-ID
// outermost, telemetry next, user interceptors (here a server timeout)
// inside — so the metrics observe the fault the inner deadline causes
// and the span carries the adopted request ID.
func TestInterceptorCompositionOrder(t *testing.T) {
	obs := NewObserver(WithSlowThreshold(0))
	slowHandler := func(ctx context.Context, action string, env *soap.Envelope) (*soap.Envelope, error) {
		<-ctx.Done()
		return nil, &core.RequestTimeoutFault{Detail: "deadline expired"}
	}
	h := soap.Chain(slowHandler,
		soap.ServerRequestID(),
		obs.ServerInterceptor(),
		soap.ServerTimeout(5*time.Millisecond),
	)
	env := soap.NewEnvelope(xmlutil.NewElement("urn:test", "Ping"))
	_, err := h(context.Background(), "urn:test/Ping", env)
	if core.FaultName(err) != "RequestTimeoutFault" {
		t.Fatalf("err = %v", err)
	}

	// The telemetry interceptor saw the typed fault from the inner
	// timeout, under the unknown-op label (the action is not catalogued).
	if got := obs.Requests.With(SideServer, CodeUnknown, CodeUnknown, "RequestTimeoutFault").Value(); got != 1 {
		t.Fatalf("request counter = %d", got)
	}
	if got := obs.Faults.With(SideServer, CodeUnknown, "RequestTimeoutFault").Value(); got != 1 {
		t.Fatalf("fault counter = %d", got)
	}
	if got := obs.InFlight.With(SideServer).Value(); got != 0 {
		t.Fatalf("in-flight did not return to zero: %d", got)
	}
	spans := obs.Tracer.Recent(1)
	if len(spans) != 1 || spans[0].Code != "RequestTimeoutFault" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].RequestID == "" {
		t.Fatal("span missing the request ID adopted by the outer interceptor")
	}
	if spans[0].Duration < 5*time.Millisecond {
		t.Fatalf("span duration %v shorter than the inner deadline", spans[0].Duration)
	}
}

func TestFaultCodeClassification(t *testing.T) {
	detail := xmlutil.NewElement(core.NSDAI, "InvalidResourceNameFault")
	withDetail := soap.ClientFault("boom")
	withDetail.Detail = detail
	cases := []struct {
		err  error
		want string
	}{
		{nil, CodeOK},
		{&core.InvalidLanguageFault{Language: "x"}, "InvalidLanguageFault"},
		{withDetail, "InvalidResourceNameFault"},
		{soap.ServerFault("plain"), "Server"},
		{context.DeadlineExceeded, CodeError},
	}
	for _, c := range cases {
		if got := FaultCode(c.err); got != c.want {
			t.Fatalf("FaultCode(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	called := false
	h := soap.Chain(func(ctx context.Context, action string, env *soap.Envelope) (*soap.Envelope, error) {
		called = true
		return env, nil
	}, o.ServerInterceptor())
	if _, err := h(context.Background(), "urn:x", soap.NewEnvelope(xmlutil.NewElement("urn:x", "P"))); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("nil observer must pass through")
	}
	o.ExchangeObserver(SideServer)("urn:x", 10, 20) // must not panic
}

func TestExchangeObserverCountsBytes(t *testing.T) {
	obs := NewObserver()
	f := obs.ExchangeObserver(SideServer)
	f("http://www.ggf.org/namespaces/2005/12/WS-DAI/GenericQuery", 120, 340)
	f("http://www.ggf.org/namespaces/2005/12/WS-DAI/GenericQuery", 10, 0)
	in := obs.Bytes.With(SideServer, DirIn, "GenericQuery").Value()
	out := obs.Bytes.With(SideServer, DirOut, "GenericQuery").Value()
	if in != 130 || out != 340 {
		t.Fatalf("bytes in/out = %d/%d", in, out)
	}
}
