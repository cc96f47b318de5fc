package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/gateway"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// sqlBackend is one in-process DAIS endpoint hosting a relational
// resource seeded with a slice of the emp table.
type sqlBackend struct {
	ts  *httptest.Server
	res *dair.SQLDataResource
}

func (b *sqlBackend) URL() string { return b.ts.URL }

// startSQLBackend builds a daisd-shaped endpoint whose emp table holds
// rows [lo, hi] of the canonical 9-row dataset.
func startSQLBackend(t testing.TB, name string, lo, hi int) *sqlBackend {
	t.Helper()
	eng := sqlengine.New(name)
	eng.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64) NOT NULL, salary DOUBLE)`)
	for i := lo; i <= hi; i++ {
		eng.MustExec(fmt.Sprintf(`INSERT INTO emp VALUES (%d, 'emp-%02d', %d)`, i, i, 50000+1000*i))
	}
	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService(name, core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithWSRF())
	ep.Register(res)
	ts := httptest.NewServer(ep)
	t.Cleanup(ts.Close)
	svc.SetAddress(ts.URL)
	return &sqlBackend{ts: ts, res: res}
}

// startGateway serves a gateway over a test HTTP server, runs one
// synchronous probe so placements and health are warm, and returns it.
func startGateway(t testing.TB, cfg gateway.Config) (*gateway.Gateway, *httptest.Server) {
	t.Helper()
	if !cfg.ObserverSet {
		// Isolated registry per test: gateway metric names collide in
		// telemetry.Default when several gateways run in one process.
		cfg.Observer = telemetry.NewObserver()
		cfg.ObserverSet = true
	}
	gw := gateway.New(cfg)
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	gw.SetAddress(ts.URL)
	gw.Probe(context.Background())
	return gw, ts
}

// empAlias federates the three shards' emp resources under one name.
func empAlias(shards []*sqlBackend) gateway.Alias {
	a := gateway.Alias{Name: "urn:dais:cluster:emp"}
	for _, s := range shards {
		a.Members = append(a.Members, gateway.Member{Backend: s.URL(), Resource: s.res.AbstractName()})
	}
	return a
}

// TestClusterSQLDirectByteIdentical: a direct SQLExecute through the
// gateway returns a byte-identical rowset to dialing a single node that
// holds the same data.
func TestClusterSQLDirectByteIdentical(t *testing.T) {
	single := startSQLBackend(t, "solo", 1, 9)
	shards := []*sqlBackend{
		startSQLBackend(t, "s1", 1, 9), // full copy: direct access is 1:1 proxying
		startSQLBackend(t, "s2", 0, -1),
		startSQLBackend(t, "s3", 0, -1),
	}
	_, gwts := startGateway(t, gateway.Config{
		Backends: []string{shards[0].URL(), shards[1].URL(), shards[2].URL()},
	})

	c := client.New(nil)
	const q = `SELECT id, name, salary FROM emp WHERE salary > ? ORDER BY id`
	params := []sqlengine.Value{sqlengine.NewDouble(52000)}
	want, err := c.SQLExecute(context.Background(),
		client.Ref(single.URL(), single.res.AbstractName()), q, params, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SQLExecute(context.Background(),
		client.Ref(gwts.URL, shards[0].res.AbstractName()), q, params, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Raw, want.Raw) {
		t.Fatalf("gateway rowset differs from single-node:\n gw: %s\nsolo: %s", got.Raw, want.Raw)
	}
	if got.CA.SQLState != want.CA.SQLState || got.CA.RowsFetched != want.CA.RowsFetched {
		t.Fatalf("CA mismatch: %+v vs %+v", got.CA, want.CA)
	}
}

// TestClusterSQLIndirect: factory-style (indirect) access through the
// gateway — the derived response resource's EPR must address the
// gateway, and the fetched rowset must be byte-identical to the
// single-node run.
func TestClusterSQLIndirect(t *testing.T) {
	single := startSQLBackend(t, "solo", 1, 9)
	shards := []*sqlBackend{
		startSQLBackend(t, "s1", 1, 9),
		startSQLBackend(t, "s2", 0, -1),
		startSQLBackend(t, "s3", 0, -1),
	}
	_, gwts := startGateway(t, gateway.Config{
		Backends: []string{shards[0].URL(), shards[1].URL(), shards[2].URL()},
	})

	c := client.New(nil)
	const q = `SELECT name FROM emp WHERE id <= 4 ORDER BY id`
	soloRef, err := c.SQLExecuteFactory(context.Background(),
		client.Ref(single.URL(), single.res.AbstractName()), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSet, err := c.GetSQLRowset(context.Background(), soloRef, 0)
	if err != nil {
		t.Fatal(err)
	}

	gwRef, err := c.SQLExecuteFactory(context.Background(),
		client.Ref(gwts.URL, shards[0].res.AbstractName()), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gwRef.Address != gwts.URL {
		t.Fatalf("derived EPR addresses %s, want the gateway %s", gwRef.Address, gwts.URL)
	}
	gotSet, err := c.GetSQLRowset(context.Background(), gwRef, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := xmlutil.Marshal(rowsetElement(t, wantSet))
	got := xmlutil.Marshal(rowsetElement(t, gotSet))
	if !bytes.Equal(got, want) {
		t.Fatalf("indirect rowset differs:\n gw: %s\nsolo: %s", got, want)
	}
}

// TestClusterScatterGather: a GenericQuery on the cluster alias over
// three contiguously partitioned shards (each shard ORDER BY the
// partition key) reassembles into exactly the single-node rowset.
func TestClusterScatterGather(t *testing.T) {
	single := startSQLBackend(t, "solo", 1, 9)
	shards := []*sqlBackend{
		startSQLBackend(t, "s1", 1, 3),
		startSQLBackend(t, "s2", 4, 6),
		startSQLBackend(t, "s3", 7, 9),
	}
	_, gwts := startGateway(t, gateway.Config{
		Backends: []string{shards[0].URL(), shards[1].URL(), shards[2].URL()},
		Aliases:  []gateway.Alias{empAlias(shards)},
	})

	c := client.New(nil)
	const q = `SELECT id, name, salary FROM emp ORDER BY id`
	want, err := c.GenericQuery(context.Background(),
		client.Ref(single.URL(), single.res.AbstractName()), dair.LanguageSQL92, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GenericQuery(context.Background(),
		client.Ref(gwts.URL, "urn:dais:cluster:emp"), dair.LanguageSQL92, q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlutil.Marshal(got), xmlutil.Marshal(want)) {
		t.Fatalf("scattered rowset differs from single-node:\n gw: %s\nsolo: %s",
			xmlutil.Marshal(got), xmlutil.Marshal(want))
	}

	// A WHERE clause that empties one shard must still merge (empty
	// shard rowsets carry the same column metadata).
	const qf = `SELECT id, name FROM emp WHERE id >= 5 ORDER BY id`
	want, err = c.GenericQuery(context.Background(),
		client.Ref(single.URL(), single.res.AbstractName()), dair.LanguageSQL92, qf)
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.GenericQuery(context.Background(),
		client.Ref(gwts.URL, "urn:dais:cluster:emp"), dair.LanguageSQL92, qf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlutil.Marshal(got), xmlutil.Marshal(want)) {
		t.Fatalf("filtered scatter differs:\n gw: %s\nsolo: %s",
			xmlutil.Marshal(got), xmlutil.Marshal(want))
	}
}

// TestClusterRefusesNonSelect: an SQL statement other than a SELECT on a
// cluster alias is an InvalidExpressionFault naming the statement kind,
// raised before any member is contacted — no backend request is made, and
// every shard keeps its rows — because without a commit protocol across
// the members one member's failure would leave the others changed.
func TestClusterRefusesNonSelect(t *testing.T) {
	shards := []*sqlBackend{
		startSQLBackend(t, "s1", 1, 3),
		startSQLBackend(t, "s2", 4, 6),
		startSQLBackend(t, "s3", 7, 9),
	}
	obs := telemetry.NewObserver()
	_, gwts := startGateway(t, gateway.Config{
		Backends:    []string{shards[0].URL(), shards[1].URL(), shards[2].URL()},
		Aliases:     []gateway.Alias{empAlias(shards)},
		Observer:    obs,
		ObserverSet: true,
	})
	backendRequests := func() (n float64) {
		for _, s := range obs.Registry.Snapshot() {
			if s.Name == gateway.MetricBackendRequests {
				n += s.Value
			}
		}
		return n
	}
	c := client.New(nil)
	const all = `SELECT id, name, salary FROM emp ORDER BY id`
	before, err := c.GenericQuery(context.Background(), client.Ref(gwts.URL, "urn:dais:cluster:emp"), dair.LanguageSQL92, all)
	if err != nil {
		t.Fatal(err)
	}
	requests := backendRequests()
	for sql, kind := range map[string]string{
		`UPDATE emp SET salary = salary + 1`:           "UPDATE",
		`DELETE FROM emp WHERE id > 0`:                 "DELETE",
		`INSERT INTO emp VALUES (10, 'emp-10', 60000)`: "INSERT",
		`CREATE TABLE extra (id INTEGER)`:              "CREATE TABLE",
	} {
		_, err := c.GenericQuery(context.Background(), client.Ref(gwts.URL, "urn:dais:cluster:emp"), dair.LanguageSQL92, sql)
		var ief *core.InvalidExpressionFault
		if !errors.As(err, &ief) || !strings.Contains(ief.Detail, kind) {
			t.Fatalf("%s on the alias: err = %v, want an InvalidExpressionFault naming %s", sql, err, kind)
		}
	}
	if got := backendRequests(); got != requests {
		t.Fatalf("refused statements made %v backend requests", got-requests)
	}
	after, err := c.GenericQuery(context.Background(), client.Ref(gwts.URL, "urn:dais:cluster:emp"), dair.LanguageSQL92, all)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlutil.Marshal(after), xmlutil.Marshal(before)) {
		t.Fatalf("a shard's rows changed:\nbefore: %s\nafter:  %s", xmlutil.Marshal(before), xmlutil.Marshal(after))
	}
}

// TestClusterXMLByteIdentical: XML resources federate the same way —
// direct XPath through the gateway matches the single node, and an
// alias scatter over two document shards reassembles the single-node
// sequence.
func TestClusterXMLByteIdentical(t *testing.T) {
	books := []string{
		`<book id="1"><title>Alpha</title><price>10</price></book>`,
		`<book id="2"><title>Beta</title><price>30</price></book>`,
		`<book id="3"><title>Gamma</title><price>20</price></book>`,
		`<book id="4"><title>Delta</title><price>40</price></book>`,
	}
	mkXML := func(name string, docs map[string]string) (*httptest.Server, *daix.XMLCollectionResource) {
		store := xmldb.NewStore(name)
		res := daix.NewXMLCollectionResource(store, "")
		for file, doc := range docs {
			e, err := xmlutil.ParseString(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.AddDocument("", file, e); err != nil {
				t.Fatal(err)
			}
		}
		svc := core.NewDataService(name, core.WithConfigurationMap(daix.StandardConfigurationMaps()...))
		ep := service.NewEndpoint(svc, service.WithWSRF())
		ep.Register(res)
		ts := httptest.NewServer(ep)
		t.Cleanup(ts.Close)
		svc.SetAddress(ts.URL)
		return ts, res
	}

	soloTS, soloRes := mkXML("solo", map[string]string{
		"a.xml": books[0], "b.xml": books[1], "c.xml": books[2], "d.xml": books[3]})
	s1TS, s1Res := mkXML("x1", map[string]string{"a.xml": books[0], "b.xml": books[1]})
	s2TS, s2Res := mkXML("x2", map[string]string{"c.xml": books[2], "d.xml": books[3]})

	alias := gateway.Alias{Name: "urn:dais:cluster:library", Members: []gateway.Member{
		{Backend: s1TS.URL, Resource: s1Res.AbstractName()},
		{Backend: s2TS.URL, Resource: s2Res.AbstractName()},
	}}
	_, gwts := startGateway(t, gateway.Config{
		Backends: []string{s1TS.URL, s2TS.URL},
		Aliases:  []gateway.Alias{alias},
	})

	c := client.New(nil)
	const xp = `/book[price >= 20]/title`
	// Direct through the gateway vs the owning backend.
	want, err := c.GenericQuery(context.Background(),
		client.Ref(s1TS.URL, s1Res.AbstractName()), daix.LanguageXPath, xp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GenericQuery(context.Background(),
		client.Ref(gwts.URL, s1Res.AbstractName()), daix.LanguageXPath, xp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlutil.Marshal(got), xmlutil.Marshal(want)) {
		t.Fatalf("gateway XPath differs from backend:\n gw: %s\ndirect: %s",
			xmlutil.Marshal(got), xmlutil.Marshal(want))
	}
	// Alias scatter vs the single node holding all four documents.
	want, err = c.GenericQuery(context.Background(),
		client.Ref(soloTS.URL, soloRes.AbstractName()), daix.LanguageXPath, xp)
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.GenericQuery(context.Background(),
		client.Ref(gwts.URL, "urn:dais:cluster:library"), daix.LanguageXPath, xp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlutil.Marshal(got), xmlutil.Marshal(want)) {
		t.Fatalf("XML scatter differs from single-node:\n gw: %s\nsolo: %s",
			xmlutil.Marshal(got), xmlutil.Marshal(want))
	}
}

// TestClusterResourceListAndResolve: the gateway owns the cluster-wide
// CoreResourceList — the union of every backend's list plus the alias
// names — and Resolve answers with gateway EPRs for both.
func TestClusterResourceListAndResolve(t *testing.T) {
	shards := []*sqlBackend{
		startSQLBackend(t, "s1", 1, 3),
		startSQLBackend(t, "s2", 4, 6),
		startSQLBackend(t, "s3", 7, 9),
	}
	_, gwts := startGateway(t, gateway.Config{
		Backends: []string{shards[0].URL(), shards[1].URL(), shards[2].URL()},
		Aliases:  []gateway.Alias{empAlias(shards)},
	})

	c := client.New(nil)
	names, err := c.GetResourceList(context.Background(), gwts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"urn:dais:cluster:emp": true}
	for _, s := range shards {
		want[s.res.AbstractName()] = true
	}
	if len(names) != len(want) {
		t.Fatalf("cluster list = %v, want %d names", names, len(want))
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected name %s in cluster list", n)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("cluster list not sorted: %v", names)
		}
	}

	// Resolve of a backend resource and of the alias both return
	// gateway-addressed EPRs.
	for _, name := range []string{shards[1].res.AbstractName(), "urn:dais:cluster:emp"} {
		ref, err := c.Resolve(context.Background(), gwts.URL, name)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Address != gwts.URL || ref.AbstractName != name {
			t.Fatalf("resolved %s = %+v, want gateway address", name, ref)
		}
	}
	var irf *core.InvalidResourceNameFault
	if _, err := c.Resolve(context.Background(), gwts.URL, "urn:ghost"); !errors.As(err, &irf) {
		t.Fatalf("resolve of unknown name = %v, want InvalidResourceNameFault", err)
	}
}

// TestClusterFactoryOnAliasFaults: every alias is partitioned, so a
// factory operation addressed to one is an InvalidResourceNameFault
// naming the alias, raised before any member is contacted. Placed on one
// member, its derived rowset held that shard's 3 rows of the 9 a
// GenericQuery on the same alias answers.
func TestClusterFactoryOnAliasFaults(t *testing.T) {
	shards := []*sqlBackend{
		startSQLBackend(t, "s1", 1, 3),
		startSQLBackend(t, "s2", 4, 6),
		startSQLBackend(t, "s3", 7, 9),
	}
	obs := telemetry.NewObserver()
	_, gwts := startGateway(t, gateway.Config{
		Backends:    []string{shards[0].URL(), shards[1].URL(), shards[2].URL()},
		Aliases:     []gateway.Alias{empAlias(shards)},
		Observer:    obs,
		ObserverSet: true,
	})
	backendRequests := func() (n float64) {
		for _, s := range obs.Registry.Snapshot() {
			if s.Name == gateway.MetricBackendRequests {
				n += s.Value
			}
		}
		return n
	}
	c := client.New(nil)
	const alias = "urn:dais:cluster:emp"
	requests := backendRequests()
	_, err := c.SQLExecuteFactory(context.Background(), client.Ref(gwts.URL, alias), `SELECT id FROM emp ORDER BY id`, nil, nil)
	var irf *core.InvalidResourceNameFault
	if !errors.As(err, &irf) || !strings.Contains(irf.Name, alias) {
		t.Fatalf("SQLExecuteFactory on the alias: err = %v, want an InvalidResourceNameFault naming %s", err, alias)
	}
	if got := backendRequests(); got != requests {
		t.Fatalf("backend requests %v -> %v: a member was contacted", requests, got)
	}
	result, err := c.GenericQuery(context.Background(), client.Ref(gwts.URL, alias), dair.LanguageSQL92, `SELECT id FROM emp ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if set, err := decodeRows(result); err != nil || len(set.Rows) != 9 {
		t.Fatalf("GenericQuery on the alias: %v, %v; want 9 rows", set, err)
	}
}

// TestGWChaosKillOneBackend kills one of three backends under
// concurrent federated load: in-flight calls may fail with the
// documented busy faults, but the federation keeps answering on the
// surviving shards and never returns a partial scatter result.
func TestGWChaosKillOneBackend(t *testing.T) {
	shards := []*sqlBackend{
		startSQLBackend(t, "s1", 1, 3),
		startSQLBackend(t, "s2", 4, 6),
		startSQLBackend(t, "s3", 7, 9),
	}
	rcfg := resil.DefaultClientConfig()
	rcfg.Retry.BaseDelay = 5 * time.Millisecond
	rcfg.Retry.MaxDelay = 20 * time.Millisecond
	gw, gwts := startGateway(t, gateway.Config{
		Backends:   []string{shards[0].URL(), shards[1].URL(), shards[2].URL()},
		Aliases:    []gateway.Alias{empAlias(shards)},
		Resilience: &rcfg,
	})

	// The consumer must not circuit-break against the gateway: busy
	// faults during the kill window are expected, and a tripped consumer
	// breaker would mask the federation's recovery.
	c := client.NewResilient(nil, nil, resil.ClientConfig{})
	aliasRef := client.Ref(gwts.URL, "urn:dais:cluster:emp")
	survivorRef := client.Ref(gwts.URL, shards[0].res.AbstractName())

	// Concurrent federated load while the victim dies.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				result, err := c.GenericQuery(context.Background(), aliasRef,
					dair.LanguageSQL92, `SELECT id FROM emp ORDER BY id`)
				if err != nil {
					// Allowed: the scatter refuses to answer partially.
					continue
				}
				// A successful scatter must be complete for the shards it
				// believed healthy: 9 rows before the kill, 6 after.
				set, derr := decodeRows(result)
				if derr != nil {
					errs <- derr
					return
				}
				if n := len(set.Rows); n != 9 && n != 6 {
					errs <- fmt.Errorf("partial scatter result: %d rows", n)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	shards[2].ts.CloseClientConnections()
	shards[2].ts.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Mark the victim down (the breaker may already have done this; the
	// probe makes it deterministic) and verify the survivors answer.
	gw.Probe(context.Background())

	result, err := c.GenericQuery(context.Background(), aliasRef,
		dair.LanguageSQL92, `SELECT id FROM emp ORDER BY id`)
	if err != nil {
		t.Fatalf("scatter after kill+probe failed: %v", err)
	}
	set, err := decodeRows(result)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 6 {
		t.Fatalf("surviving scatter rows = %d, want 6", len(set.Rows))
	}
	for i, want := range []string{"1", "2", "3", "4", "5", "6"} {
		if got := set.Rows[i][0].String(); got != want {
			t.Fatalf("row %d id = %s, want %s", i, got, want)
		}
	}

	// Named access to surviving shards still works; the dead shard's
	// resource faults busy, not wrong.
	if _, err := c.SQLExecute(context.Background(), survivorRef,
		`SELECT id FROM emp ORDER BY id`, nil, ""); err != nil {
		t.Fatalf("survivor direct access failed: %v", err)
	}
	var busy *core.ServiceBusyFault
	if _, err := c.SQLExecute(context.Background(),
		client.Ref(gwts.URL, shards[2].res.AbstractName()),
		`SELECT 1 FROM emp`, nil, ""); !errors.As(err, &busy) {
		t.Fatalf("dead shard access = %v, want ServiceBusyFault", err)
	}

	// The cluster list now reflects what the federation can serve.
	names, err := c.GetResourceList(context.Background(), gwts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == shards[2].res.AbstractName() {
			t.Fatalf("dead shard's resource %s still listed", n)
		}
	}

	// Healthz reports degraded but still 200: the federation answers.
	st, body := healthzGet(t, gw)
	if st != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("healthz = %d %v, want 200 degraded", st, body)
	}
}

// decodeRows decodes a GenericQuery SQLRowset result element.
func decodeRows(result *xmlutil.Element) (*sqlengine.ResultSet, error) {
	return rowset.DecodeSQLRowsetElement(result)
}

// rowsetElement re-encodes a result set through the shared codec so two
// fetch paths can be compared byte-for-byte.
func rowsetElement(t *testing.T, set *sqlengine.ResultSet) *xmlutil.Element {
	t.Helper()
	return rowset.SQLRowsetElement(set)
}

func healthzGet(t *testing.T, gw *gateway.Gateway) (int, map[string]any) {
	t.Helper()
	rr := httptest.NewRecorder()
	gw.Healthz().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return rr.Code, body
}

// datasetBackend is a backend that answers every request with a
// GetTuplesResponse around one fixed Dataset child.
func datasetBackend(t *testing.T, content xmlutil.Node) *httptest.Server {
	t.Helper()
	srv := soap.NewServer()
	srv.HandleFallback(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		resp := ops.GetTuples.NewResponse()
		ds := resp.Add(core.NSDAI, "Dataset")
		ds.SetAttr("", "formatURI", rowset.FormatSQLRowset)
		ds.Children = append(ds.Children, content)
		return soap.NewEnvelope(resp), nil
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayForwardsDatasetVerbatim: a proxied GetTuples window crosses
// the gateway as the bytes the backend wrote — odd prefixes, comments,
// line ends and all — because neither the gateway nor the consumer
// builds a tree under dai:Dataset. A fragment that leans on a namespace
// declared outside itself cannot travel that way; it takes the tree
// path on every hop and must still decode to the same rows.
func TestGatewayForwardsDatasetVerbatim(t *testing.T) {
	const fragment = `<x:SQLRowset xmlns:x="` + rowset.NSDAIR + `" xmlns:unused="urn:u"><!-- as written -->` + "\r\n" +
		`<x:Metadata><x:Column type='INTEGER' name="id"/><x:Column name="tag" type="VARCHAR"></x:Column></x:Metadata>` +
		`<x:Row><x:Value>1</x:Value><x:Value>a &amp; <![CDATA[<b>]]></x:Value></x:Row>` +
		`<x:Row><x:Value>&#50;</x:Value><x:Value isNull="true"/></x:Row></x:SQLRowset>`
	want, err := rowset.SQLRowsetCodec{}.Decode([]byte(fragment))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := client.New(nil)

	standalone := datasetBackend(t, xmlutil.Raw(fragment))
	_, gwts := startGateway(t, gateway.Config{Backends: []string{standalone.URL}})
	for _, hop := range []string{standalone.URL, gwts.URL} {
		data, format, err := c.GetTuples(ctx, client.Ref(hop, "urn:any"), 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != fragment || format != rowset.FormatSQLRowset {
			t.Fatalf("via %s the window is not the backend's bytes (format %q):\n got %q\nwant %q", hop, format, data, fragment)
		}
	}

	// The same rowset as a subtree: Marshal declares its namespace on
	// the envelope, outside the fragment.
	tree, err := xmlutil.ParseString(fragment)
	if err != nil {
		t.Fatal(err)
	}
	dependent := datasetBackend(t, tree)
	_, gwts = startGateway(t, gateway.Config{Backends: []string{dependent.URL}})
	for _, hop := range []string{dependent.URL, gwts.URL} {
		reply, err := c.Relay(ctx, hop, ops.GetTuples, client.Request(hop, ops.GetTuples.Action, ops.GetTuples.NewRequest("urn:any")))
		if err != nil {
			t.Fatal(err)
		}
		env, err := soap.ParseEnvelope(reply.Wire)
		if err != nil {
			t.Fatal(err)
		}
		resp := env.BodyEntry()
		ds := resp.Find(core.NSDAI, "Dataset")
		if ds == nil || ds.Find(rowset.NSDAIR, "SQLRowset") == nil {
			t.Fatalf("via %s: a fragment using an outer xmlns binding was not built as a subtree: %s", hop, xmlutil.Marshal(resp))
		}
		got, err := c.GetTuplesSet(ctx, client.Ref(hop, "urn:any"), 1, 10)
		if err != nil {
			t.Fatalf("via %s: %v", hop, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("via %s the tree path decoded %+v, want %+v", hop, got, want)
		}
	}
}

// TestGatewayAdmissionSheds: a gateway admitting one request at a time
// sheds a second one while the first is held at its backend — a
// ServiceBusyFault carrying the gate's Retry-After, counted under
// dais_shed_total{service="gateway"} — and admits again once it is done.
func TestGatewayAdmissionSheds(t *testing.T) {
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	blocker := func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		if action == ops.ActSQLExecute {
			entered <- struct{}{}
			<-hold
		}
		return next(ctx, action, env)
	}
	eng := sqlengine.New("held")
	eng.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY)`)
	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService("held", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithServerInterceptors(blocker))
	ep.Register(res)
	backend := httptest.NewServer(ep)
	t.Cleanup(backend.Close)
	svc.SetAddress(backend.URL)

	obs := telemetry.NewObserver()
	_, gwts := startGateway(t, gateway.Config{
		Backends:    []string{backend.URL},
		Observer:    obs,
		ObserverSet: true,
		Admission:   &resil.AdmissionConfig{MaxInFlight: 1, RetryAfter: 2 * time.Second},
	})
	plain := client.NewResilient(nil, nil, resil.ClientConfig{}) // no retries: a shed must surface
	ctx := context.Background()
	ref := client.Ref(gwts.URL, res.AbstractName())
	done := make(chan error, 1)
	go func() {
		_, err := plain.SQLExecute(ctx, ref, `SELECT id FROM emp`, nil, "")
		done <- err
	}()
	<-entered // the first request holds the gateway's only slot
	var busy *core.ServiceBusyFault
	if _, err := plain.GetResourceList(ctx, gwts.URL); !errors.As(err, &busy) || busy.RetryAfter != 2*time.Second {
		t.Fatalf("second request: err = %v, want ServiceBusyFault with Retry-After 2s", err)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if _, err := plain.GetResourceList(ctx, gwts.URL); err != nil {
		t.Fatalf("after release: %v", err)
	}
	shed := 0.0
	for _, s := range obs.Registry.Snapshot() {
		if s.Name == resil.MetricShed && s.Label("service") == "gateway" {
			shed += s.Value
		}
	}
	if shed != 1 {
		t.Fatalf("dais_shed_total{service=\"gateway\"} = %v, want 1", shed)
	}
}
