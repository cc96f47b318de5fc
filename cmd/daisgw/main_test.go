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

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/gateway"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
)

func TestParseAlias(t *testing.T) {
	a, err := parseAlias("urn:cluster:emp=urn:r1@http://h1:8090/sql,urn:r2@http://h2:8090/sql")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "urn:cluster:emp" || len(a.Members) != 2 {
		t.Fatalf("alias = %+v", a)
	}
	if a.Members[0].Resource != "urn:r1" || a.Members[0].Backend != "http://h1:8090/sql" {
		t.Fatalf("member 0 = %+v", a.Members[0])
	}
	if a.Members[1].Resource != "urn:r2" || a.Members[1].Backend != "http://h2:8090/sql" {
		t.Fatalf("member 1 = %+v", a.Members[1])
	}
	for _, bad := range []string{"", "name", "name=", "=x@y", "name=res", "name=@url", "name=res@"} {
		if _, err := parseAlias(bad); err == nil {
			t.Errorf("parseAlias(%q) accepted", bad)
		}
	}
}

// TestGatewaySmoke wires the daisgw composition — gateway plus its
// observability mux — over two in-process backends and drives one
// federated query through it.
func TestGatewaySmoke(t *testing.T) {
	mkBackend := func(name string, lo, hi int) (*httptest.Server, *dair.SQLDataResource) {
		eng := sqlengine.New(name)
		eng.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64))`)
		for i := lo; i <= hi; i++ {
			eng.MustExec(`INSERT INTO emp VALUES (` + sqlengine.NewInt(int64(i)).String() + `, 'e')`)
		}
		res := dair.NewSQLDataResource(eng)
		svc := core.NewDataService(name, core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
		ep := service.NewEndpoint(svc, service.WithWSRF())
		ep.Register(res)
		ts := httptest.NewServer(ep)
		t.Cleanup(ts.Close)
		svc.SetAddress(ts.URL)
		return ts, res
	}
	b1, r1 := mkBackend("b1", 1, 2)
	b2, r2 := mkBackend("b2", 3, 4)

	a, err := parseAlias("urn:cluster:emp=" + r1.AbstractName() + "@" + b1.URL + "," + r2.AbstractName() + "@" + b2.URL)
	if err != nil {
		t.Fatal(err)
	}
	obs := telemetry.NewObserver()
	gw := gateway.New(gateway.Config{
		Backends:    []string{b1.URL, b2.URL},
		Aliases:     []gateway.Alias{a},
		Observer:    obs,
		ObserverSet: true,
	})
	ts := httptest.NewServer(newMux(gw, obs))
	t.Cleanup(ts.Close)
	gw.SetAddress(ts.URL)
	gw.Probe(context.Background())

	c := client.New(nil)
	result, err := c.GenericQuery(context.Background(),
		client.Ref(ts.URL, "urn:cluster:emp"), dair.LanguageSQL92, `SELECT id FROM emp ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if result.Name.Local != "SQLRowset" {
		t.Fatalf("result = %v", result.Name)
	}

	// Observability surface: healthz reports both backends, metrics
	// carry the gateway instruments.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Healthy != 2 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), gateway.MetricBackendRequests) {
		t.Fatalf("metrics missing %s:\n%s", gateway.MetricBackendRequests, mbody)
	}

	// The ops listener (-ops-addr, -pprof) serves the same registry and
	// health report, plus pprof when asked: a spawned gateway can be
	// profiled like a spawned daisd.
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for _, withPprof := range []bool{true, false} {
		opsSrv, opsURL, err := obs.ServeOps(slog.Default(), "127.0.0.1:0", gw.Healthz(), withPprof)
		if err != nil {
			t.Fatal(err)
		}
		defer opsSrv.Close()
		if code, body := get(opsURL + "/metrics"); code != http.StatusOK ||
			!strings.Contains(body, gateway.MetricBackendRequests) || !strings.Contains(body, telemetry.MetricGoAllocBytes) {
			t.Fatalf("ops /metrics = %d:\n%s", code, body)
		}
		if code, body := get(opsURL + "/healthz"); code != http.StatusOK || !strings.Contains(body, `"healthy":2`) {
			t.Fatalf("ops /healthz = %d %s", code, body)
		}
		if code, _ := get(opsURL + "/spans"); code != http.StatusOK {
			t.Fatalf("ops /spans = %d", code)
		}
		want := http.StatusNotFound
		if withPprof {
			want = http.StatusOK
		}
		if code, _ := get(opsURL + "/debug/pprof/cmdline"); code != want {
			t.Fatalf("pprof=%v: /debug/pprof/cmdline = %d, want %d", withPprof, code, want)
		}
	}
	if opsSrv, _, err := obs.ServeOps(slog.Default(), "", gw.Healthz(), true); opsSrv != nil || err != nil {
		t.Fatalf("no -ops-addr: ServeOps = %v, %v", opsSrv, err)
	}
	if code, _ := get(ts.URL + "/debug/pprof/cmdline"); code == http.StatusOK {
		t.Fatal("pprof is exposed on the main listener")
	}
}
