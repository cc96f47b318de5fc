package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/gateway"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// written is one reply as its server wrote it.
type written struct {
	status     int
	retryAfter string
	body       []byte
}

// recorder serves h and keeps the last reply h wrote.
type recorder struct {
	h    http.Handler
	mu   sync.Mutex
	last written
}

type recordingWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (w *recordingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	rw := &recordingWriter{ResponseWriter: w}
	r.h.ServeHTTP(rw, req)
	r.mu.Lock()
	r.last = written{status: rw.status, retryAfter: w.Header().Get("Retry-After"), body: rw.body.Bytes()}
	r.mu.Unlock()
}

func (r *recorder) lastReply() written {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// post sends a request envelope as a consumer writes it and returns the
// reply as the consumer reads it.
func post(t *testing.T, url, action string, body *xmlutil.Element) written {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(client.Request(url, action, body).Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", `"`+action+`"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return written{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: data}
}

// eprName reads the resource name out of an EPR reply.
func eprName(t *testing.T, reply []byte) string {
	t.Helper()
	env, err := soap.ParseEnvelope(reply)
	if err != nil {
		t.Fatal(err)
	}
	epr, err := ops.ResourceAddress(env.BodyEntry())
	if err != nil {
		t.Fatalf("%v in %s", err, reply)
	}
	ref, err := client.FromEPR(epr)
	if err != nil {
		t.Fatalf("%v in %s", err, reply)
	}
	return ref.AbstractName
}

// TestRelayPassesRepliesAsWritten: for every catalog operation the
// gateway routes by name, the consumer reads the bytes the backend
// wrote, with its status and Retry-After — answers and typed faults
// from every interface alike. An EPR reply differs only in the text of
// its address, which names the gateway.
func TestRelayPassesRepliesAsWritten(t *testing.T) {
	eng := sqlengine.New("relay")
	eng.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64) NOT NULL)`)
	eng.MustExec(`INSERT INTO emp VALUES (1, 'ada & <bob>'), (2, 'cyd')`)
	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService("relay", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithWSRF())
	ep.Register(res)
	rec := &recorder{h: ep}
	backend := httptest.NewServer(rec)
	t.Cleanup(backend.Close)
	svc.SetAddress(backend.URL)
	// No retries: every consumer request is one backend exchange.
	_, gw := startGateway(t, gateway.Config{Backends: []string{backend.URL}, Resilience: &resil.ClientConfig{}})

	const query = `SELECT id, name FROM emp ORDER BY id`
	messages := map[string]ops.Msg{
		ops.ActSQLExecute:        ops.SQLExecuteMsg{Expr: ops.SQLExpression{Expression: query}},
		ops.ActSQLExecuteFactory: ops.SQLFactoryMsg{Expr: ops.SQLExpression{Expression: query}},
		ops.ActGenericQuery:      ops.GenericQueryMsg{Language: dair.LanguageSQL92, Expression: query},
		ops.ActGetTuples:         ops.PageMsg{Start: 1, Count: 10},
	}
	// The derived resources the response and rowset operations address,
	// made through the gateway.
	names := map[ops.Kind]string{}
	relay := func(spec ops.Spec, name string) written {
		t.Helper()
		body := spec.NewRequest(name)
		if m := messages[spec.Action]; m != nil {
			m.Encode(spec, body)
		}
		got := post(t, gw.URL, spec.Action, body)
		wrote := rec.lastReply()
		want := wrote.body
		if spec.EPRReply && wrote.status == http.StatusOK {
			want = bytes.ReplaceAll(want, []byte(backend.URL), []byte(gw.URL))
			if bytes.Equal(want, wrote.body) {
				t.Fatalf("%s: the backend's EPR reply names no backend address: %s", spec.Op, wrote.body)
			}
		}
		if got.status != wrote.status || got.retryAfter != wrote.retryAfter || !bytes.Equal(got.body, want) {
			t.Fatalf("%s: the consumer read HTTP %d (Retry-After %q)\n%s\nthe backend wrote HTTP %d (Retry-After %q)\n%s",
				spec.Op, got.status, got.retryAfter, got.body, wrote.status, wrote.retryAfter, wrote.body)
		}
		return got
	}
	names[ops.KindSQLResponse] = eprName(t, relay(ops.SQLExecuteFactory, res.AbstractName()).body)
	names[ops.KindSQLRowset] = eprName(t, relay(ops.SQLRowsetFactory, names[ops.KindSQLResponse]).body)

	// Destroys last: they take their resource with them.
	specs := ops.Catalog()
	sort.SliceStable(specs, func(i, j int) bool {
		return !strings.Contains(specs[i].Op, "Destroy") && strings.Contains(specs[j].Op, "Destroy")
	})
	faulted := map[string]bool{} // by interface namespace
	answered := 0
	for _, spec := range specs {
		if spec.Action == ops.ActGetResourceList {
			continue // the gateway's own answer
		}
		name, ok := names[spec.Resource]
		if !ok {
			name = res.AbstractName()
		}
		if got := relay(spec, name); got.status == http.StatusOK {
			answered++
		} else {
			faulted[spec.NS] = true
		}
	}
	// A name no backend holds: the owning backend's fault.
	if got := relay(ops.GetPropertyDocument, "urn:dais:no-such-resource"); got.status != http.StatusOK {
		faulted[core.NSDAI] = true
	}
	for _, ns := range []string{core.NSDAI, ops.NSDAIR, ops.NSDAIX, ops.NSDAIF} {
		if !faulted[ns] {
			t.Errorf("no fault from interface %s was relayed", ns)
		}
	}
	if answered < 10 {
		t.Errorf("only %d operations answered: the relay's answers went untested", answered)
	}
}

// TestRelayPassesBusyFaultWithRetryAfter: a backend's 503
// ServiceBusyFault reaches the consumer as the backend wrote it, with
// its status and its Retry-After.
func TestRelayPassesBusyFaultWithRetryAfter(t *testing.T) {
	srv := soap.NewServer()
	srv.HandleFallback(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		return nil, service.ToSOAPFault(&core.ServiceBusyFault{Reason: "held", RetryAfter: 7 * time.Second})
	})
	rec := &recorder{h: srv}
	backend := httptest.NewServer(rec)
	t.Cleanup(backend.Close)
	_, gw := startGateway(t, gateway.Config{Backends: []string{backend.URL}, Resilience: &resil.ClientConfig{}})

	body := ops.SQLExecute.NewRequest("urn:any")
	ops.SQLExecuteMsg{Expr: ops.SQLExpression{Expression: "SELECT 1"}}.Encode(ops.SQLExecute, body)
	got, wrote := post(t, gw.URL, ops.ActSQLExecute, body), rec.lastReply()
	if wrote.status != http.StatusServiceUnavailable || wrote.retryAfter != "7" {
		t.Fatalf("the backend wrote HTTP %d, Retry-After %q", wrote.status, wrote.retryAfter)
	}
	if got.status != wrote.status || got.retryAfter != wrote.retryAfter || !bytes.Equal(got.body, wrote.body) {
		t.Fatalf("the consumer read HTTP %d (Retry-After %q)\n%s\nthe backend wrote\n%s", got.status, got.retryAfter, got.body, wrote.body)
	}
}

// TestRelayBuildsNoTree: relaying a fault-free reply builds no element
// tree for it and encodes no envelope. The gateway encodes nothing —
// the backend here writes fixed bytes and the consumer reads raw — and
// what a relayed exchange allocates does not grow with the reply's rows.
func TestRelayBuildsNoTree(t *testing.T) {
	reply := func(rows int) []byte {
		var data [][]sqlengine.Value
		for i := range rows {
			data = append(data, []sqlengine.Value{sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprint("name-", i))})
		}
		resp := ops.SQLExecute.NewResponse()
		resp.AppendChild(rowset.SQLRowsetElement(&sqlengine.ResultSet{
			Columns: []sqlengine.ResultColumn{{Name: "id", Type: sqlengine.TypeInteger}, {Name: "name", Type: sqlengine.TypeVarchar}},
			Rows:    data,
		}))
		return soap.NewEnvelope(resp).Marshal()
	}
	exchange := func(rows int) (allocs float64, encoded int64) {
		fixed := reply(rows)
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Length", fmt.Sprint(len(fixed)))
			w.Write(fixed)
		}))
		defer backend.Close()
		_, gw := startGateway(t, gateway.Config{Backends: []string{backend.URL}, Resilience: &resil.ClientConfig{}})
		body := ops.SQLExecute.NewRequest("urn:any")
		ops.SQLExecuteMsg{Expr: ops.SQLExpression{Expression: "SELECT 1"}}.Encode(ops.SQLExecute, body)
		raw := client.Request(gw.URL, ops.ActSQLExecute, body).Marshal()
		sink := make([]byte, len(fixed)+4096)
		do := func() {
			req, _ := http.NewRequest(http.MethodPost, gw.URL, bytes.NewReader(raw))
			req.Header.Set("SOAPAction", `"`+ops.ActSQLExecute+`"`)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			n, _ := io.ReadFull(resp.Body, sink)
			resp.Body.Close()
			if !bytes.Equal(sink[:n], fixed) {
				t.Fatalf("relayed reply differs from the backend's (%d of %d bytes)", n, len(fixed))
			}
		}
		do() // warm: connections, pools
		before, _, _ := soap.EncodeStats()
		allocs = testing.AllocsPerRun(20, do)
		after, _, _ := soap.EncodeStats()
		return allocs, after - before
	}
	small, encSmall := exchange(10)
	large, encLarge := exchange(5000)
	t.Logf("allocations a relayed exchange: %.0f (10-row reply), %.0f (5000-row reply)", small, large)
	if encSmall != 0 || encLarge != 0 {
		t.Errorf("relaying encoded %d and %d envelope bytes, want none", encSmall, encLarge)
	}
	// A tree costs several allocations a row; the relay one buffer.
	if large > small+50 {
		t.Errorf("a relayed 5000-row reply costs %.0f allocations, a 10-row one %.0f: the reply is built as a tree", large, small)
	}
}

// TestRelayCancelledMidFlight: consumers cancel relays mid-flight by
// deadline beside concurrent ones that complete, so the gateway's
// handlers return while their backend calls are still writing and
// reading. Every request the backend reads and every reply a consumer
// reads must be its own exchange's, byte for byte: the buffers a relay
// hands to the transport are never recycled under it. Run it under the
// race detector (make gw-chaos).
func TestRelayCancelledMidFlight(t *testing.T) {
	var bad sync.Map
	srv := soap.NewServer()
	srv.HandleFallback(func(ctx context.Context, _ string, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.BodyEntry()
		token := body.FindText(core.NSDAI, "Expression")
		if token == "" { // the gateway's probe
			return soap.NewEnvelope(ops.ResourceListResponse(nil)), nil
		}
		if name := ops.AbstractNameText(body); name != "urn:tok:"+token[:16] {
			bad.Store("backend read a request whose name "+name+" is not its expression's", true)
		}
		time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
		resp := ops.GenericQuery.NewResponse()
		resp.AddText(core.NSDAI, "Echo", token)
		return soap.NewEnvelope(resp), nil
	})
	backend := httptest.NewServer(srv)
	t.Cleanup(backend.Close)
	late := &lateReader{next: http.DefaultTransport, bad: &bad}
	_, gw := startGateway(t, gateway.Config{Backends: []string{backend.URL}, Resilience: &resil.ClientConfig{},
		HTTPClient: &http.Client{Transport: late}})

	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := range rounds {
				// Tokens long enough for the large buffer class: the
				// pooled buffers a request is read into are reused fast.
				token := fmt.Sprintf("%08d%08d", w, i) + strings.Repeat(string(rune('a'+r.Intn(26))), 70<<10)
				body := ops.GenericQuery.NewRequest("urn:tok:" + token[:16])
				ops.GenericQueryMsg{Language: "urn:echo", Expression: token}.Encode(ops.GenericQuery, body)
				ctx := context.Background()
				cancelled := i%3 == 0
				if cancelled {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(r.Intn(1500))*time.Microsecond)
					defer cancel()
				}
				env := client.Request(gw.URL, ops.ActGenericQuery, body)
				if i%2 == 0 {
					// With the ID the server adopts, the relay sends the
					// bytes it read; without, a stamped copy.
					id := xmlutil.NewElement(soap.NSPipeline, "RequestID")
					id.SetText(token[:16])
					env.AddHeader(id)
				}
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, gw.URL, bytes.NewReader(env.Marshal()))
				req.Header.Set("SOAPAction", `"`+ops.ActGenericQuery+`"`)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					if !cancelled {
						bad.Store("uncancelled exchange failed: "+err.Error(), true)
					}
					continue
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					continue // cancelled while reading
				}
				reply, err := soap.ParseEnvelope(data)
				if err != nil {
					bad.Store("consumer read an unparseable reply: "+err.Error(), true)
					continue
				}
				if f, ok := soap.AsFault(reply.BodyEntry()); ok {
					if !cancelled {
						bad.Store("uncancelled exchange faulted: "+f.String, true)
					}
					continue
				}
				if got := reply.BodyEntry().FindText(core.NSDAI, "Echo"); got != token {
					bad.Store(fmt.Sprintf("consumer %d read another exchange's reply (%.16s)", w, got), true)
				}
			}
		}()
	}
	wg.Wait()
	gw.Close() // waits for the gateway's handlers: no RoundTrip starts after it
	late.wg.Wait()
	bad.Range(func(k, _ any) bool {
		t.Error(k)
		return true
	})
}

// lateReader is a transport that reads each request body once more a
// little after the exchange is over, as net/http may for a cancelled
// RoundTrip, and reports a body that changed meanwhile: bytes that were
// handed back to a pool and reused.
type lateReader struct {
	next http.RoundTripper
	bad  *sync.Map
	wg   sync.WaitGroup
}

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	sent, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body.Close()
	fwd := req.Clone(req.Context())
	fwd.Body = io.NopCloser(bytes.NewReader(sent))
	resp, err := l.next.RoundTrip(fwd)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		time.Sleep(2 * time.Millisecond)
		body, err := req.GetBody()
		if err != nil {
			l.bad.Store("request body cannot be read again: "+err.Error(), true)
			return
		}
		if again, _ := io.ReadAll(body); !bytes.Equal(again, sent) {
			l.bad.Store("a request body changed after its exchange", true)
		}
	}()
	return resp, err
}
