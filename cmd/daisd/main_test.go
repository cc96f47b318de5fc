package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/xmldb"
)

// startTestServer serves the composed daisd mux on a test listener and
// fixes the advertised service addresses to match.
func startTestServer(t *testing.T, cfg config) (*server, string) {
	t.Helper()
	srv, stop := buildServer("", cfg)
	ts := httptest.NewServer(srv.mux)
	t.Cleanup(ts.Close)
	t.Cleanup(stop)
	srv.sqlEp.Service().SetAddress(ts.URL + "/sql")
	srv.xmlEp.Service().SetAddress(ts.URL + "/xml")
	return srv, ts.URL
}

func TestServerComposition(t *testing.T) {
	srv, base := startTestServer(t, config{wsrf: true, seedRows: 25, concurrent: true, reap: 10 * time.Millisecond})
	c := client.New(nil)

	// Health endpoint.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %q", body)
	}

	// The relational service answers end-to-end.
	sqlRef := client.Ref(base+"/sql", srv.sqlRes.AbstractName())
	res, err := c.SQLExecute(context.Background(), sqlRef, `SELECT COUNT(*) FROM emp`, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Rows[0][0].I != 25 {
		t.Fatalf("seeded rows = %v", res.Set.Rows[0][0])
	}
	joined, err := c.SQLExecute(context.Background(), sqlRef,
		`SELECT d.name, COUNT(*) FROM emp e JOIN dept d ON e.dept_id = d.id GROUP BY d.name ORDER BY d.name`, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(joined.Set.Rows) != 4 {
		t.Fatalf("dept groups = %d", len(joined.Set.Rows))
	}

	// The XML service answers end-to-end.
	xmlRef := client.Ref(base+"/xml", srv.xmlRes.AbstractName())
	items, err := c.XPathExecute(context.Background(), xmlRef, `/book[@genre='db']/title`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %+v", items)
	}

	// The reaper collects an expired derived resource automatically.
	derived, err := c.SQLExecuteFactory(context.Background(), sqlRef, `SELECT id FROM emp`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Second)
	if _, err := c.SetTerminationTime(context.Background(), derived, &past); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.GetSQLRowset(context.Background(), derived, 0); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reaper did not collect the derived resource")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, base string) []telemetry.Sample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParsePrometheus(string(body))
	if err != nil {
		t.Fatalf("parse metrics: %v\n%s", err, body)
	}
	return samples
}

// TestMetricsEndpoint is the observability acceptance test: a daisd
// started by the tests exposes /metrics whose per-operation request
// counts, latency histograms, fault tallies and WSRF resource gauges
// change observably after a GenericQuery, an SQLExecuteFactory create
// and a DestroyDataResource.
func TestMetricsEndpoint(t *testing.T) {
	srv, base := startTestServer(t, config{wsrf: true, seedRows: 5, concurrent: true})
	c := client.New(nil)
	ctx := context.Background()
	sqlRef := client.Ref(base+"/sql", srv.sqlRes.AbstractName())
	sum := telemetry.CountFromSamples

	before := scrape(t, base)
	if _, err := c.GenericQuery(ctx, sqlRef, dair.LanguageSQL92, `SELECT COUNT(*) FROM emp`); err != nil {
		t.Fatal(err)
	}
	derived, err := c.SQLExecuteFactory(ctx, sqlRef, `SELECT id FROM emp`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := scrape(t, base)

	gq := map[string]string{"side": "server", "op": "GenericQuery"}
	if d := sum(mid, telemetry.MetricRequests, gq) - sum(before, telemetry.MetricRequests, gq); d != 1 {
		t.Fatalf("GenericQuery request count moved by %v, want 1", d)
	}
	if d := sum(mid, telemetry.MetricLatency+"_count", gq) - sum(before, telemetry.MetricLatency+"_count", gq); d != 1 {
		t.Fatalf("GenericQuery latency observations moved by %v, want 1", d)
	}
	if sum(mid, telemetry.MetricLatency+"_bucket", map[string]string{"side": "server", "op": "GenericQuery", "le": "+Inf"}) < 1 {
		t.Fatal("latency histogram has no +Inf bucket sample")
	}
	for _, dir := range []string{"in", "out"} {
		f := map[string]string{"side": "server", "direction": dir, "op": "GenericQuery"}
		if d := sum(mid, telemetry.MetricBytes, f) - sum(before, telemetry.MetricBytes, f); d <= 0 {
			t.Fatalf("envelope bytes %s moved by %v, want > 0", dir, d)
		}
	}
	// The class label comes from the Fig. 6 catalog row.
	spec, _ := ops.ByAction(ops.ActGenericQuery)
	if sum(mid, telemetry.MetricRequests, map[string]string{"side": "server", "op": "GenericQuery", "class": spec.Class, "code": "ok"}) != 1 {
		t.Fatal("GenericQuery not counted under its interface class with code ok")
	}

	// The factory-created response resource shows up in the live gauge.
	live := map[string]string{"service": "relational", "kind": string(ops.KindSQLResponse)}
	if d := sum(mid, telemetry.MetricWSRFLive, live) - sum(before, telemetry.MetricWSRFLive, live); d != 1 {
		t.Fatalf("live SQLResponse gauge moved by %v, want 1", d)
	}
	if sum(mid, telemetry.MetricWSRFLive, map[string]string{"service": "relational", "kind": string(ops.KindSQL)}) != 1 {
		t.Fatal("base SQL resource missing from the live gauge")
	}

	// Destroying the derived resource drops the gauge back down.
	if err := c.DestroyDataResource(ctx, derived); err != nil {
		t.Fatal(err)
	}
	after := scrape(t, base)
	if d := sum(after, telemetry.MetricWSRFLive, live) - sum(mid, telemetry.MetricWSRFLive, live); d != -1 {
		t.Fatalf("live SQLResponse gauge moved by %v after destroy, want -1", d)
	}
	destroy := map[string]string{"side": "server", "op": "DestroyDataResource"}
	if d := sum(after, telemetry.MetricRequests, destroy) - sum(before, telemetry.MetricRequests, destroy); d != 1 {
		t.Fatalf("DestroyDataResource request count moved by %v, want 1", d)
	}

	// A WSRF lifetime termination shows up in the terminations counter.
	doomed, err := c.SQLExecuteFactory(ctx, sqlRef, `SELECT id FROM emp`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Second)
	if _, err := c.SetTerminationTime(ctx, doomed, &past); err != nil {
		t.Fatal(err)
	}
	srv.sqlEp.WSRF().SweepExpired()
	dead := map[string]string{"service": "relational"}
	final := scrape(t, base)
	if d := sum(final, telemetry.MetricWSRFDead, dead) - sum(before, telemetry.MetricWSRFDead, dead); d != 1 {
		t.Fatalf("terminations counter moved by %v, want 1", d)
	}

	// A typed fault is tallied under its fault-code label.
	if _, err := c.GenericQuery(ctx, sqlRef, "urn:not-a-language", "x"); err == nil {
		t.Fatal("expected an InvalidLanguageFault")
	}
	faulted := scrape(t, base)
	if sum(faulted, telemetry.MetricFaults, map[string]string{"side": "server", "op": "GenericQuery", "code": "InvalidLanguageFault"}) != 1 {
		t.Fatal("InvalidLanguageFault not tallied in the fault counter")
	}
}

func TestHealthzJSON(t *testing.T) {
	_, base := startTestServer(t, config{wsrf: true, seedRows: 3, concurrent: true})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q, checks = %v", h.Status, h.Checks)
	}
	for _, name := range []string{"relational", "xml", "files"} {
		if h.Checks[name] != "ok" {
			t.Fatalf("check %s = %q", name, h.Checks[name])
		}
	}
}

func TestSpansEndpoint(t *testing.T) {
	srv, base := startTestServer(t, config{wsrf: true, seedRows: 3, concurrent: true})
	c := client.New(nil)
	sqlRef := client.Ref(base+"/sql", srv.sqlRes.AbstractName())
	if _, err := c.GenericQuery(context.Background(), sqlRef, dair.LanguageSQL92, `SELECT 1`); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []telemetry.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Op == "GenericQuery" && s.Side == telemetry.SideServer {
			if s.RequestID == "" {
				t.Fatal("span has no request ID")
			}
			if s.AbstractName != srv.sqlRes.AbstractName() {
				t.Fatalf("span abstract name = %q", s.AbstractName)
			}
			return
		}
	}
	t.Fatalf("no server GenericQuery span in %+v", spans)
}

func TestOpsMux(t *testing.T) {
	srv, base := startTestServer(t, config{wsrf: true, seedRows: 3, concurrent: true})
	ts := httptest.NewServer(srv.obs.OpsMux(srv.health, true))
	defer ts.Close()
	c := client.New(nil)
	sqlRef := client.Ref(base+"/sql", srv.sqlRes.AbstractName())
	if _, err := c.GenericQuery(context.Background(), sqlRef, dair.LanguageSQL92, `SELECT 1`); err != nil {
		t.Fatal(err)
	}
	// The ops listener exposes the same registry as the main mux, plus
	// pprof when enabled.
	samples := scrape(t, ts.URL)
	if telemetry.CountFromSamples(samples, telemetry.MetricRequests, map[string]string{"side": "server"}) < 1 {
		t.Fatal("ops listener serves an empty registry")
	}
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}
}

func TestServerWithoutWSRF(t *testing.T) {
	srv, base := startTestServer(t, config{wsrf: false, seedRows: 3, concurrent: true})
	c := client.New(nil)
	sqlRef := client.Ref(base+"/sql", srv.sqlRes.AbstractName())
	// Core operations work.
	if _, err := c.GetPropertyDocument(context.Background(), sqlRef); err != nil {
		t.Fatal(err)
	}
	// WSRF operations are not routed.
	if _, err := c.GetResourceProperty(context.Background(), sqlRef, "Readable"); err == nil ||
		!strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v", err)
	}
}

func TestSeedRelational(t *testing.T) {
	eng := sqlengine.New("t")
	seedRelational(slog.Default(), eng, 10)
	if n, _ := eng.Database().TableRowCount("emp"); n != 10 {
		t.Fatalf("emp rows = %d", n)
	}
	if n, _ := eng.Database().TableRowCount("dept"); n != 4 {
		t.Fatalf("dept rows = %d", n)
	}
	// Every employee's dept exists.
	res, err := eng.Exec(`SELECT COUNT(*) FROM emp WHERE dept_id NOT IN (SELECT id FROM dept)`)
	if err != nil || res.Set.Rows[0][0].I != 0 {
		t.Fatalf("orphans = %+v, %v", res, err)
	}
}

func TestSeedXML(t *testing.T) {
	store := xmldb.NewStore("t")
	seedXML(slog.Default(), store)
	names, err := store.ListDocuments("")
	if err != nil || len(names) != 3 {
		t.Fatalf("names = %v, %v", names, err)
	}
	res, err := store.XPathQuery("", `count(/book/title)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Value != "1" {
			t.Fatalf("each book needs a title: %+v", r)
		}
	}
}

// TestResourceListConformance drives the CoreResourceList pattern
// (paper §4.3's optional interface) end-to-end on every daisd
// endpoint: GetResourceList enumerates exactly the hosted abstract
// names, ResolveName returns an EPR whose address and reference
// parameter reproduce the endpoint and name, and an unknown name
// faults typed. daisgw proxies these same operations through the
// shared ops codecs, so this conformance also anchors the federation
// gateway's merge semantics.
func TestResourceListConformance(t *testing.T) {
	srv, base := startTestServer(t, config{wsrf: true, seedRows: 3, concurrent: true})
	srv.fileEp.Service().SetAddress(base + "/files")
	c := client.New(nil)
	ctx := context.Background()

	for _, tc := range []struct {
		endpoint string
		resource string
	}{
		{base + "/sql", srv.sqlRes.AbstractName()},
		{base + "/xml", srv.xmlRes.AbstractName()},
		{base + "/files", srv.fileRes.AbstractName()},
	} {
		names, err := c.GetResourceList(ctx, tc.endpoint)
		if err != nil {
			t.Fatalf("%s: %v", tc.endpoint, err)
		}
		if len(names) != 1 || names[0] != tc.resource {
			t.Fatalf("%s: list = %v, want [%s]", tc.endpoint, names, tc.resource)
		}
		ref, err := c.Resolve(ctx, tc.endpoint, tc.resource)
		if err != nil {
			t.Fatalf("%s: resolve: %v", tc.endpoint, err)
		}
		if ref.Address != tc.endpoint || ref.AbstractName != tc.resource {
			t.Fatalf("%s: resolved = %+v", tc.endpoint, ref)
		}
		if _, err := c.Resolve(ctx, tc.endpoint, "urn:ghost"); err == nil {
			t.Fatalf("%s: resolve of unknown name should fault", tc.endpoint)
		}
	}

	// A factory-derived resource appears in the list and resolves, and
	// disappears after destroy — the lifecycle the gateway's placement
	// table mirrors.
	sqlRef := client.Ref(base+"/sql", srv.sqlRes.AbstractName())
	derived, err := c.SQLExecuteFactory(ctx, sqlRef, `SELECT id FROM emp`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	names, err := c.GetResourceList(ctx, base+"/sql")
	if err != nil || len(names) != 2 {
		t.Fatalf("after factory: list = %v, %v", names, err)
	}
	if _, err := c.Resolve(ctx, base+"/sql", derived.AbstractName); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroyDataResource(ctx, derived); err != nil {
		t.Fatal(err)
	}
	names, err = c.GetResourceList(ctx, base+"/sql")
	if err != nil || len(names) != 1 {
		t.Fatalf("after destroy: list = %v, %v", names, err)
	}
}

func TestFileServiceComposition(t *testing.T) {
	srv, base := startTestServer(t, config{wsrf: true, seedRows: 3, concurrent: true})
	srv.fileEp.Service().SetAddress(base + "/files")
	c := client.New(nil)
	ref := client.Ref(base+"/files", srv.fileRes.AbstractName())
	infos, err := c.ListFiles(context.Background(), ref, "runs/**")
	if err != nil || len(infos) != 2 {
		t.Fatalf("list = %v, %v", infos, err)
	}
	data, err := c.ReadFile(context.Background(), ref, "calib/atlas.cal", 0, -1)
	if err != nil || string(data) != "gain=1.07" {
		t.Fatalf("read = %q, %v", data, err)
	}
	staged, err := c.FileSelectFactory(context.Background(), ref, "runs/**", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListFiles(context.Background(), staged, ""); err != nil {
		t.Fatal(err)
	}
}
