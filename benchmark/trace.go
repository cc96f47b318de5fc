package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dais/internal/soap"
)

// The traced run: spans recorded at the public seams of each layer,
// from benchmark/ alone. One operation is the root span "op"; each of
// its SOAP exchanges nests
//
//	client          soap.Interceptor around the exchange
//	  transport     http.RoundTripper (up to the last response byte)
//	    soap.server http.Handler around the endpoint   ("gateway" on the front door of gateway_mix)
//	      service.handler  innermost server interceptor
//
// and, through the gateway, the backend hop repeats transport →
// soap.server → service.handler under the gateway span. Spans are kept
// in memory and written out when the run ends.

// span is one timed interval. Times are nanoseconds since the traced
// run began; Parent is 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request string `json:"request_id"`
	Name    string `json:"name"`
	Action  string `json:"action,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// exchange is one captured request/response pair, for the direct
// layer probes.
type exchange struct {
	action    string
	req, resp []byte
}

const (
	maxExchanges     = 400     // captured pairs kept
	maxExchangeBytes = 4 << 20 // a pair larger than this is not kept
)

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// off suspends tracing: the client-side seams pass straight
	// through, and the server-side seams, which only ever continue a
	// trace handed to them, then have nothing to continue. The traced
	// run flips it per operation to price the tracing itself.
	off atomic.Bool

	mu        sync.Mutex
	spans     []span
	exchanges []exchange
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

// spanFrom reads the enclosing span's id from a context.
func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// restart discards everything recorded so far and restarts the clock.
func (t *tracer) restart() {
	t.mu.Lock()
	t.spans, t.exchanges, t.t0 = nil, nil, time.Now()
	t.mu.Unlock()
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opSpan opens the root span of one operation; the returned context
// carries it to the client seam, and end closes it.
func (t *tracer) opSpan(ctx context.Context, class string) (context.Context, func()) {
	if t.off.Load() {
		return ctx, func() {}
	}
	s := span{ID: t.nextID.Add(1), Name: "op", Action: class, Start: t.now()}
	return withSpan(ctx, s.ID), func() {
		s.End = t.now()
		t.record(s)
	}
}

// clientSeam is the client-side soap.Interceptor. The typed client
// installs it innermost, inside its request-ID interceptor.
func (t *tracer) clientSeam() soap.Interceptor {
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		if t.off.Load() {
			return next(ctx, action, env)
		}
		s := span{ID: t.nextID.Add(1), Parent: spanFrom(ctx), Request: soap.RequestIDFromContext(ctx),
			Name: "client", Action: action, Start: t.now()}
		resp, err := next(withSpan(ctx, s.ID), action, env)
		s.End = t.now()
		t.record(s)
		return resp, err
	}
}

// Headers that carry the span link across the HTTP hop.
const (
	hdrSpan    = "X-Dais-Bench-Span"
	hdrRequest = "X-Dais-Bench-Request"
)

// transportSeam wraps a RoundTripper. The span runs until the response
// body is drained, so that the client span's self time is what the
// client code itself spends (marshal before, parse after).
func (t *tracer) transportSeam(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ctx := req.Context()
		if spanFrom(ctx) == 0 {
			return next.RoundTrip(req) // not part of a trace
		}
		s := span{ID: t.nextID.Add(1), Parent: spanFrom(ctx), Request: soap.RequestIDFromContext(ctx),
			Name: "transport", Action: trimQuotes(req.Header.Get("SOAPAction")), Start: t.now()}
		out := req.Clone(ctx) // a RoundTripper must not modify the caller's request
		out.Header.Set(hdrSpan, strconv.FormatInt(s.ID, 10))
		out.Header.Set(hdrRequest, s.Request)
		var reqBody []byte
		if req.GetBody != nil {
			if rc, err := req.GetBody(); err == nil {
				reqBody, _ = io.ReadAll(rc)
				rc.Close()
			}
		}
		resp, err := next.RoundTrip(out)
		if err != nil {
			s.End = t.now()
			t.record(s)
			return nil, err
		}
		resp.Body = &tracedBody{ReadCloser: resp.Body, done: func(body []byte) {
			s.End = t.now()
			t.record(s)
			t.capture(exchange{action: s.Action, req: reqBody, resp: body})
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// tracedBody reports the end of the response (EOF or Close, whichever
// comes first) together with the bytes read.
type tracedBody struct {
	io.ReadCloser
	buf  bytes.Buffer
	once sync.Once
	done func([]byte)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.buf.Len() < maxExchangeBytes {
		b.buf.Write(p[:n])
	}
	if err != nil {
		b.once.Do(func() { b.done(b.buf.Bytes()) })
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(func() { b.done(b.buf.Bytes()) })
	return b.ReadCloser.Close()
}

func (t *tracer) capture(e exchange) {
	if len(e.req) == 0 || len(e.resp) == 0 || len(e.req)+len(e.resp) > maxExchangeBytes {
		return
	}
	t.mu.Lock()
	if len(t.exchanges) < maxExchanges {
		t.exchanges = append(t.exchanges, e)
	}
	t.mu.Unlock()
}

// handlerSeam wraps a server's http.Handler. A nil tracer wraps nothing.
func (t *tracer) handlerSeam(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r) // loading, warm-up and untraced operations
			return
		}
		s := span{ID: t.nextID.Add(1), Parent: parent, Request: r.Header.Get(hdrRequest),
			Name: name, Action: trimQuotes(r.Header.Get("SOAPAction")), Start: t.now()}
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s.ID)))
		s.End = t.now()
		t.record(s)
	})
}

// serviceSeam is the innermost server interceptor: what it times is the
// handler proper (decode, resolve, the realisation's work, encode).
func (t *tracer) serviceSeam() soap.Interceptor {
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		if spanFrom(ctx) == 0 {
			return next(ctx, action, env)
		}
		s := span{ID: t.nextID.Add(1), Parent: spanFrom(ctx), Request: soap.RequestIDFromContext(ctx),
			Name: "service.handler", Action: action, Start: t.now()}
		resp, err := next(withSpan(ctx, s.ID), action, env)
		s.End = t.now()
		t.record(s)
		return resp, err
	}
}

func trimQuotes(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// selfTimes returns every span's self time: its duration minus the part
// of that interval its child spans cover (children may overlap, as the
// two windows of a bulk fetch in flight do, so the cover is a union).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanMetrics reduces the spans to the span-chain per-layer metrics.
func spanMetrics(spans []span, out metricSet) {
	self := selfTimes(spans)
	exchangesOf := map[int64]int{} // op span id -> client spans under it
	for _, s := range spans {
		if s.Name == "client" {
			exchangesOf[s.Parent]++
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var client, transport, server, handler []float64
	var explained, all float64 // self time inside this repository's layers / of every span
	for _, s := range spans {
		all += float64(self[s.ID])
		if s.Name != "transport" {
			explained += float64(self[s.ID])
		}
		switch s.Name {
		case "client":
			// The typed client's own work around the exchange (message
			// encode, reply decode, the oracle) is the op span's self
			// time; each exchange carries its share of it.
			own := self[s.ID]
			if n := exchangesOf[s.Parent]; n > 0 {
				own += self[s.Parent] / int64(n)
			}
			client = append(client, us(own))
		case "transport":
			transport = append(transport, us(self[s.ID]))
		case "soap.server":
			server = append(server, us(self[s.ID]))
		case "service.handler":
			handler = append(handler, us(s.End-s.Start))
		}
	}
	out["client.self_us"] = median(client)
	out["transport.self_us"] = median(transport)
	out["soap.server_self_us"] = median(server)
	out["service.handler_us"] = median(handler)
	// Coverage: the share of all self time that lies in spans of this
	// repository's layers. The rest is transport self time — net/http,
	// the kernel's loopback, the scheduler — which the outside view
	// cannot split further. (Self times, not durations, so that the two
	// windows a bulk fetch keeps in flight are not counted twice.)
	out["trace.coverage"] = 0
	if all > 0 {
		out["trace.coverage"] = explained / all
	}
}

// writeSpans writes the span list to benchmark/out/trace-<workload>.json.
func writeSpans(p paths, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"time_unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since trace start", spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(p.out, "trace-"+workload+".json"), data, 0o644)
}

// runTraced re-runs the workload single-client against in-process
// servers with the seams installed — same data, same generated inputs —
// and adds the traced per-layer metrics to res.
func runTraced(ctx context.Context, p paths, workload string, cfg runConfig, length time.Duration, res *result) error {
	tr := newTracer()
	ih := &inprocHost{tr: tr}
	defer ih.stopAll()
	d, err := deploy(ctx, ih, newClient(), workload, cfg.sz)
	if err != nil {
		return err
	}
	hc := &http.Client{Transport: tr.transportSeam(http.DefaultTransport)}
	c := newClientOver(hc, tr.clientSeam())
	gens := []generator{newGenerator(workload, cfg.sz, cfg.seed, 0)}
	if workload == wlWriteBeside {
		// One client must still both write and read: interleave the
		// two streams the measured run gives to two clients.
		gens = []generator{&interleave{a: gens[0], b: newGenerator(workload, cfg.sz, cfg.seed, 1)}}
	}

	// Warm untraced (plans, chunks, connections), then trace.
	if err := warmUp(ctx, newClient(), d, gens, workload); err != nil {
		return err
	}
	// Every other deck runs with tracing suspended: same servers, same
	// mix, interleaved in time, so the ratio of the two medians is what
	// the tracing itself costs.
	tr.restart()
	var latOn, latOff []float64
	for start, n := time.Now(), 0; time.Since(start) < length && ctx.Err() == nil; n++ {
		off := (n/deckLen(workload))%2 == 1
		tr.off.Store(off)
		op := gens[0].Next()
		octx, end := tr.opSpan(ctx, op.Class)
		t := time.Now()
		_, err := execOp(octx, c, d, op)
		ms := float64(time.Since(t)) / float64(time.Millisecond)
		end()
		if off {
			latOff = append(latOff, ms)
		} else {
			latOn = append(latOn, ms)
		}
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("traced %s: %w", op.Class, err)
			}
		}
	}
	tr.off.Store(true)
	if err := ctx.Err(); err != nil {
		return err
	}
	tr.mu.Lock()
	spans, exchanges := tr.spans, tr.exchanges
	tr.mu.Unlock()
	if err := writeSpans(p, workload, spans); err != nil {
		return err
	}
	spanMetrics(spans, res.metrics)
	res.metrics["trace.overhead_ratio"] = 0
	if base := median(latOff); base > 0 {
		res.metrics["trace.overhead_ratio"] = median(latOn) / base
	}
	return runProbes(ctx, workload, cfg, ih, d, gens[0], exchanges, res.metrics)
}

// interleave alternates two generators.
type interleave struct {
	a, b generator
	n    int
}

func (g *interleave) Next() Op {
	g.n++
	if g.n%2 == 1 {
		return g.a.Next()
	}
	return g.b.Next()
}
