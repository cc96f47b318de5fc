package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/daif"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/filestore"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/wsrf"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// startEndpoint serves an endpoint over a test HTTP server and records
// its address on the data service.
func startEndpoint(t testing.TB, e *service.Endpoint) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(e)
	t.Cleanup(ts.Close)
	e.Service().SetAddress(ts.URL)
	return ts
}

// received is what a fresh consumer reads off the wire making call.
func received(t *testing.T, call func(c *client.Client) error) int64 {
	t.Helper()
	c := client.New(nil)
	if err := call(c); err != nil {
		t.Fatal(err)
	}
	return c.BytesReceived()
}

// relationalFixture builds a WSRF-enabled endpoint hosting a seeded
// relational resource, returning the consumer-side ref.
func relationalFixture(t testing.TB) (*service.Endpoint, *dair.SQLDataResource, client.ResourceRef, *client.Client) {
	t.Helper()
	eng := sqlengine.New("hr")
	eng.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64) NOT NULL, salary DOUBLE)`)
	eng.MustExec(`INSERT INTO emp VALUES (1, 'ann', 120000), (2, 'bob', 95000), (3, 'carol', 87000)`)
	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService("relational", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithWSRF())
	ep.Register(res)
	startEndpoint(t, ep)
	c := client.New(nil)
	return ep, res, client.Ref(svc.Address(), res.AbstractName()), c
}

func TestSQLExecuteDirectOverHTTP(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	res, err := c.SQLExecute(context.Background(), ref, `SELECT name, salary FROM emp WHERE salary > ? ORDER BY salary DESC`,
		[]sqlengine.Value{sqlengine.NewDouble(90000)}, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Set == nil || len(res.Set.Rows) != 2 {
		t.Fatalf("set = %+v", res.Set)
	}
	if res.Set.Rows[0][0].String() != "ann" {
		t.Fatalf("rows = %v", res.Set.Rows)
	}
	if res.CA.SQLState != sqlengine.StateSuccess || res.CA.RowsFetched != 2 {
		t.Fatalf("CA = %+v", res.CA)
	}
}

func TestSQLExecuteUpdateOverHTTP(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	res, err := c.SQLExecute(context.Background(), ref, `UPDATE emp SET salary = salary + 1000`, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateCount != 3 {
		t.Fatalf("update count = %d", res.UpdateCount)
	}
	if res.Set != nil {
		t.Fatal("update should carry no dataset")
	}
}

func TestSQLExecuteFormats(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	for _, format := range []string{rowset.FormatSQLRowset, rowset.FormatWebRowSet, rowset.FormatCSV} {
		res, err := c.SQLExecute(context.Background(), ref, `SELECT id FROM emp ORDER BY id`, nil, format)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if res.FormatURI != format {
			t.Fatalf("format = %s, want %s", res.FormatURI, format)
		}
		if res.Set == nil || len(res.Set.Rows) != 3 {
			t.Fatalf("%s: set = %+v", format, res.Set)
		}
	}
	var idf *core.InvalidDatasetFormatFault
	if _, err := c.SQLExecute(context.Background(), ref, `SELECT 1`, nil, "urn:fmt:bogus"); !errors.As(err, &idf) {
		t.Fatalf("err = %v", err)
	}
}

// TestParameterCountFaults: SQLExecute with a surplus parameter gets the
// typed fault a missing one gets, naming both counts.
func TestParameterCountFaults(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	for _, params := range [][]sqlengine.Value{nil, {sqlengine.NewInt(1), sqlengine.NewInt(2)}} {
		var ief *core.InvalidExpressionFault
		_, err := c.SQLExecute(context.Background(), ref, `SELECT id FROM emp WHERE id = ?`, params, "")
		if want := fmt.Sprintf("statement requires 1 parameters, got %d", len(params)); !errors.As(err, &ief) || !strings.Contains(ief.Detail, want) {
			t.Fatalf("%d params: err = %v, want InvalidExpressionFault %q", len(params), err, want)
		}
	}
}

func TestFaultsTravelTyped(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	var irf *core.InvalidResourceNameFault
	if _, err := c.SQLExecute(context.Background(), client.Ref(ref.Address, "urn:nope"), `SELECT 1`, nil, ""); !errors.As(err, &irf) {
		t.Fatalf("err = %v", err)
	}
	var ief *core.InvalidExpressionFault
	if _, err := c.SQLExecute(context.Background(), ref, `SELECT * FROM missing_table`, nil, ""); !errors.As(err, &ief) {
		t.Fatalf("err = %v", err)
	}
	// A statement nested three million deep is a typed fault, and the
	// server is still there to answer the next one.
	deep := "SELECT " + strings.Repeat("(", 3_000_000) + "1" + strings.Repeat(")", 3_000_000)
	if _, err := c.SQLExecute(context.Background(), ref, deep, nil, ""); !errors.As(err, &ief) {
		t.Fatalf("err = %.200v", err)
	}
	if res, err := c.SQLExecute(context.Background(), ref, `SELECT COUNT(*) FROM emp`, nil, ""); err != nil || res.Set.Rows[0][0].I != 3 {
		t.Fatalf("after the deep statement: %v", err)
	}
	var ilf *core.InvalidLanguageFault
	if _, err := c.GenericQuery(context.Background(), ref, "urn:lang:marsian", "x"); !errors.As(err, &ilf) {
		t.Fatalf("err = %v", err)
	}
}

func TestCorePropertyDocumentOverHTTP(t *testing.T) {
	_, res, ref, c := relationalFixture(t)
	doc, err := c.GetPropertyDocument(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if doc.FindText(core.NSDAI, "DataResourceAbstractName") != res.AbstractName() {
		t.Fatal("abstract name mismatch")
	}
	if doc.FindText(core.NSDAI, "DataResourceManagement") != "ExternallyManaged" {
		t.Fatal("management")
	}
	if len(doc.FindAll(core.NSDAI, "DatasetMap")) != 3 {
		t.Fatal("dataset maps")
	}
	if doc.Find(ops.NSDAIR, "CIMDescription") == nil {
		t.Fatal("CIMDescription extension missing")
	}
	if doc.Find(core.NSDAI, "ConfigurationMap") == nil {
		t.Fatal("ConfigurationMap missing")
	}
}

func TestGenericQueryOverHTTP(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	result, err := c.GenericQuery(context.Background(), ref, dair.LanguageSQL92, `SELECT COUNT(*) FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if result.Name.Local != "SQLRowset" {
		t.Fatalf("result = %v", result.Name)
	}
	set, err := rowset.DecodeSQLRowsetElement(result)
	if err != nil || set.Rows[0][0].String() != "3" {
		t.Fatalf("set = %+v, %v", set, err)
	}
}

func TestResourceListAndResolve(t *testing.T) {
	_, res, ref, c := relationalFixture(t)
	names, err := c.GetResourceList(context.Background(), ref.Address)
	if err != nil || len(names) != 1 || names[0] != res.AbstractName() {
		t.Fatalf("names = %v, %v", names, err)
	}
	resolved, err := c.Resolve(context.Background(), ref.Address, res.AbstractName())
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Address != ref.Address || resolved.AbstractName != res.AbstractName() {
		t.Fatalf("resolved = %+v", resolved)
	}
	if _, err := c.Resolve(context.Background(), ref.Address, "urn:ghost"); err == nil {
		t.Fatal("resolve of unknown name should fault")
	}
}

func TestIndirectAccessPipelineFig5(t *testing.T) {
	// Three distinct data services as in paper Fig. 5.
	eng := sqlengine.New("hr")
	eng.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64))`)
	eng.MustExec(`INSERT INTO emp VALUES (1, 'ann'), (2, 'bob'), (3, 'carol')`)
	res := dair.NewSQLDataResource(eng)

	svc3 := core.NewDataService("ds3")
	ep3 := service.NewEndpoint(svc3, service.WithInterfaces(service.SQLRowsetAccess|service.CoreDataAccess))
	startEndpoint(t, ep3)

	svc2 := core.NewDataService("ds2")
	ep2 := service.NewEndpoint(svc2,
		service.WithInterfaces(service.SQLResponseAccess|service.SQLResponseFactory|service.CoreDataAccess),
		service.WithFactoryTarget(ep3))
	startEndpoint(t, ep2)

	svc1 := core.NewDataService("ds1")
	ep1 := service.NewEndpoint(svc1,
		service.WithInterfaces(service.SQLAccess|service.SQLFactory|service.CoreDataAccess),
		service.WithFactoryTarget(ep2))
	ep1.Register(res)
	startEndpoint(t, ep1)

	// Consumer 1: SQLExecuteFactory against DS1 -> EPR on DS2.
	consumer1 := client.New(nil)
	respRef, err := consumer1.SQLExecuteFactory(context.Background(), client.Ref(svc1.Address(), res.AbstractName()),
		`SELECT id, name FROM emp ORDER BY id`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if respRef.Address != svc2.Address() {
		t.Fatalf("response resource on %s, want %s", respRef.Address, svc2.Address())
	}

	// Consumer 1 passes the EPR to Consumer 2, who derives a WebRowSet
	// rowset resource on DS3.
	consumer2 := client.New(nil)
	rowsetRef, err := consumer2.SQLRowsetFactory(context.Background(), respRef, rowset.FormatWebRowSet, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rowsetRef.Address != svc3.Address() {
		t.Fatalf("rowset resource on %s, want %s", rowsetRef.Address, svc3.Address())
	}

	// Consumer 2 hands the EPR to Consumer 3, who pulls pages.
	consumer3 := client.New(nil)
	set, err := consumer3.GetTuplesSet(context.Background(), rowsetRef, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 2 || set.Rows[0][1].String() != "bob" {
		t.Fatalf("page = %+v", set.Rows)
	}

	// Property documents confirm the derivation chain.
	doc, err := consumer3.GetPropertyDocument(context.Background(), rowsetRef)
	if err != nil {
		t.Fatal(err)
	}
	if doc.FindText(core.NSDAI, "DataResourceManagement") != "ServiceManaged" {
		t.Fatal("derived resource must be service managed")
	}
	if doc.FindText(core.NSDAI, "ParentDataResource") != respRef.AbstractName {
		t.Fatal("parent chain broken")
	}

	// E1/E2: consumer 1 receives an EPR whatever the result's size, while
	// relaying the result through it costs the rows themselves.
	for i := 4; i <= 60; i++ {
		eng.MustExec(`INSERT INTO emp VALUES (?, 'dan')`, sqlengine.NewInt(int64(i)))
	}
	ds1 := client.Ref(svc1.Address(), res.AbstractName())
	handOff := func(query string) int64 {
		return received(t, func(c *client.Client) error {
			_, err := c.SQLExecuteFactory(context.Background(), ds1, query, nil, nil)
			return err
		})
	}
	one, all := handOff(`SELECT id, name FROM emp WHERE id = 1`), handOff(`SELECT id, name FROM emp`)
	relay := received(t, func(c *client.Client) error {
		_, err := c.SQLExecute(context.Background(), ds1, `SELECT id, name FROM emp`, nil, "")
		return err
	})
	if d := all - one; d < -64 || d > 64 || relay <= all {
		t.Errorf("consumer 1 bytes: EPR for 1 row %d, for 60 rows %d, relayed 60 rows %d", one, all, relay)
	}
}

func TestInterfaceRestriction(t *testing.T) {
	// DS3 exposes only RowsetAccess: SQLExecute must not be routable.
	eng := sqlengine.New("db")
	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService("limited")
	ep := service.NewEndpoint(svc, service.WithInterfaces(service.SQLRowsetAccess))
	ep.Register(res)
	startEndpoint(t, ep)
	c := client.New(nil)
	_, err := c.SQLExecute(context.Background(), client.Ref(svc.Address(), res.AbstractName()), `SELECT 1`, nil, "")
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v", err)
	}
}

func TestDestroyDataResourceOverHTTP(t *testing.T) {
	_, res, ref, c := relationalFixture(t)
	if err := c.DestroyDataResource(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPropertyDocument(context.Background(), ref); err == nil {
		t.Fatal("destroyed resource should be unknown")
	}
	_ = res
}

func TestResponseAccessOverHTTP(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	respRef, err := c.SQLExecuteFactory(context.Background(), ref, `SELECT name FROM emp ORDER BY id`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.GetSQLRowset(context.Background(), respRef, 0)
	if err != nil || len(set.Rows) != 3 {
		t.Fatalf("set = %+v, %v", set, err)
	}
	ca, err := c.GetSQLCommunicationArea(context.Background(), respRef)
	if err != nil || ca.SQLState != sqlengine.StateSuccess {
		t.Fatalf("ca = %+v, %v", ca, err)
	}
	// Update counts via factory.
	updRef, err := c.SQLExecuteFactory(context.Background(), ref, `UPDATE emp SET salary = 1 WHERE id = 1`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.GetSQLUpdateCount(context.Background(), updRef, 0)
	if err != nil || n != 1 {
		t.Fatalf("n = %d, %v", n, err)
	}
}

func TestWSRFFineGrainedProperties(t *testing.T) {
	_, res, ref, c := relationalFixture(t)
	props, err := c.GetResourceProperty(context.Background(), ref, "DataResourceManagement")
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Text() != "ExternallyManaged" {
		t.Fatalf("props = %v", props)
	}
	// Query with XPath.
	nodes, err := c.QueryResourceProperties(context.Background(), ref, "count(DatasetMap)")
	if err != nil || len(nodes) != 1 || nodes[0].Text() != "3" {
		t.Fatalf("nodes = %v, %v", nodes, err)
	}
	// Lifetime properties visible through WSRF.
	cur, err := c.GetResourceProperty(context.Background(), ref, "wsrl:CurrentTime")
	if err != nil || len(cur) != 1 {
		t.Fatalf("current time = %v, %v", cur, err)
	}

	// E3: one property costs the same bytes however many tables the whole
	// document describes.
	prop := func(c *client.Client) error {
		_, err := c.GetResourceProperty(context.Background(), ref, "Readable")
		return err
	}
	doc := func(c *client.Client) error {
		_, err := c.GetPropertyDocument(context.Background(), ref)
		return err
	}
	propBefore, docBefore := received(t, prop), received(t, doc)
	for i := 0; i < 20; i++ {
		res.Engine().MustExec(fmt.Sprintf(`CREATE TABLE extra_%d (a INTEGER PRIMARY KEY, b VARCHAR(32))`, i))
	}
	if p, d := received(t, prop), received(t, doc); p != propBefore || d <= docBefore || p >= d {
		t.Errorf("property %d then %d bytes, document %d then %d bytes", propBefore, p, docBefore, d)
	}
}

func TestWSRFLifetimeOverHTTP(t *testing.T) {
	ep, _, ref, c := relationalFixture(t)
	// Derive a resource and schedule its termination.
	respRef, err := c.SQLExecuteFactory(context.Background(), ref, `SELECT 1`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt := time.Now().Add(-time.Second) // already expired
	newTT, err := c.SetTerminationTime(context.Background(), respRef, &tt)
	if err != nil || newTT == nil {
		t.Fatalf("set = %v, %v", newTT, err)
	}
	// E8: expired but unswept, the resource is still listed; the sweep
	// leaves only the base resource.
	if n := len(ep.Service().GetResourceList()); n != 2 {
		t.Fatalf("%d resources listed before the sweep, want 2", n)
	}
	if ids := ep.WSRF().SweepExpired(); len(ids) != 1 {
		t.Fatalf("sweep = %v", ids)
	}
	if n := len(ep.Service().GetResourceList()); n != 1 {
		t.Fatalf("%d resources listed after the sweep, want 1", n)
	}
	// The DAIS relationship is destroyed too.
	if _, err := c.GetSQLRowset(context.Background(), respRef, 0); err == nil {
		t.Fatal("reaped resource should be gone from the data service")
	}
}

func TestWSRFDestroyOverHTTP(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	respRef, err := c.SQLExecuteFactory(context.Background(), ref, `SELECT 1`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WSRFDestroy(context.Background(), respRef); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetSQLRowset(context.Background(), respRef, 0); err == nil {
		t.Fatal("destroyed resource still reachable")
	}
	if err := c.WSRFDestroy(context.Background(), respRef); err == nil {
		t.Fatal("double destroy should fault")
	}
}

func TestPlainDestroySyncsWSRF(t *testing.T) {
	ep, _, ref, c := relationalFixture(t)
	respRef, err := c.SQLExecuteFactory(context.Background(), ref, `SELECT 1`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ep.WSRF().Get(respRef.AbstractName); !ok {
		t.Fatal("derived resource not in WSRF registry")
	}
	if err := c.DestroyDataResource(context.Background(), respRef); err != nil {
		t.Fatal(err)
	}
	if _, ok := ep.WSRF().Get(respRef.AbstractName); ok {
		t.Fatal("WSRF registry out of sync after plain destroy")
	}
}

// xmlFixture builds an XML endpoint with a seeded collection.
func xmlFixture(t testing.TB) (client.ResourceRef, *client.Client) {
	t.Helper()
	store := xmldb.NewStore("library")
	res := daix.NewXMLCollectionResource(store, "")
	for i, doc := range []string{
		`<book id="1"><title>Alpha</title><price>10</price></book>`,
		`<book id="2"><title>Beta</title><price>30</price></book>`,
	} {
		e, _ := xmlutil.ParseString(doc)
		if err := store.AddDocument("", []string{"a.xml", "b.xml"}[i], e); err != nil {
			t.Fatal(err)
		}
	}
	svc := core.NewDataService("xml", core.WithConfigurationMap(daix.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithWSRF())
	ep.Register(res)
	startEndpoint(t, ep)
	return client.Ref(svc.Address(), res.AbstractName()), client.New(nil)
}

func TestXMLCollectionOverHTTP(t *testing.T) {
	ref, c := xmlFixture(t)
	names, err := c.ListDocuments(context.Background(), ref)
	if err != nil || len(names) != 2 {
		t.Fatalf("names = %v, %v", names, err)
	}
	doc, _ := xmlutil.ParseString(`<book id="3"><title>Gamma</title><price>20</price></book>`)
	if err := c.AddDocument(context.Background(), ref, "c.xml", doc); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetDocument(context.Background(), ref, "c.xml")
	if err != nil || got.FindText("", "title") != "Gamma" {
		t.Fatalf("doc = %v, %v", got, err)
	}
	if err := c.RemoveDocument(context.Background(), ref, "a.xml"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSubcollection(context.Background(), ref, "archive"); err != nil {
		t.Fatal(err)
	}
	subs, err := c.ListSubcollections(context.Background(), ref)
	if err != nil || len(subs) != 1 || subs[0] != "archive" {
		t.Fatalf("subs = %v, %v", subs, err)
	}
	if err := c.RemoveSubcollection(context.Background(), ref, "archive"); err != nil {
		t.Fatal(err)
	}
}

func TestXPathXQueryOverHTTP(t *testing.T) {
	ref, c := xmlFixture(t)
	items, err := c.XPathExecute(context.Background(), ref, "/book[price > 15]/title")
	if err != nil || len(items) != 1 || items[0].Value != "Beta" {
		t.Fatalf("items = %+v, %v", items, err)
	}
	items, err = c.XQueryExecute(context.Background(), ref, `for $b in /book order by $b/price descending return <t>{$b/title}</t>`)
	if err != nil || len(items) != 2 || items[0].Value != "Beta" {
		t.Fatalf("items = %+v, %v", items, err)
	}
}

// TestXPathArityFaults: a rounding function called without its argument
// is an InvalidExpressionFault like any other bad expression — not a
// handler panic that closes the connection — and the resource still
// answers afterwards.
func TestXPathArityFaults(t *testing.T) {
	ref, c := xmlFixture(t)
	for _, expr := range []string{"round()", "floor()", "ceiling()", "/book[round(price, 2) > 1]"} {
		var ief *core.InvalidExpressionFault
		if _, err := c.XPathExecute(context.Background(), ref, expr); !errors.As(err, &ief) {
			t.Fatalf("%s: err = %v, want InvalidExpressionFault", expr, err)
		}
	}
	items, err := c.XPathExecute(context.Background(), ref, "/book[floor(price div 20) = 1]/title")
	if err != nil || len(items) != 1 || items[0].Value != "Beta" {
		t.Fatalf("items = %+v, %v", items, err)
	}
}

func TestXUpdateOverHTTP(t *testing.T) {
	ref, c := xmlFixture(t)
	mods, _ := xmlutil.ParseString(`<xu:modifications xmlns:xu="` + xmldb.NSXUpdate + `">
		<xu:update select="/book/price">77</xu:update>
	</xu:modifications>`)
	n, err := c.XUpdateExecute(context.Background(), ref, "a.xml", mods)
	if err != nil || n != 1 {
		t.Fatalf("n = %d, %v", n, err)
	}
	doc, _ := c.GetDocument(context.Background(), ref, "a.xml")
	if doc.FindText("", "price") != "77" {
		t.Fatal("update not applied")
	}
}

func TestXMLFactoriesOverHTTP(t *testing.T) {
	ref, c := xmlFixture(t)
	seqRef, err := c.XPathExecuteFactory(context.Background(), ref, "//book", nil)
	if err != nil {
		t.Fatal(err)
	}
	items, err := c.GetItems(context.Background(), seqRef, 1, 10)
	if err != nil || len(items) != 2 {
		t.Fatalf("items = %+v, %v", items, err)
	}
	// Paging.
	page, err := c.GetItems(context.Background(), seqRef, 2, 1)
	if err != nil || len(page) != 1 {
		t.Fatalf("page = %+v, %v", page, err)
	}
	// XQuery factory.
	xqRef, err := c.XQueryExecuteFactory(context.Background(), ref, `for $b in /book where $b/price < 20 return <x>{$b/title}</x>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	items, err = c.GetItems(context.Background(), xqRef, 1, 10)
	if err != nil || len(items) != 1 || items[0].Value != "Alpha" {
		t.Fatalf("items = %+v, %v", items, err)
	}
	// Collection factory gives a live view.
	colRef, err := c.CollectionFactory(context.Background(), ref, "derived", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListDocuments(context.Background(), colRef); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroyDataResource(context.Background(), colRef); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccessFalseSerialises(t *testing.T) {
	eng := sqlengine.New("db")
	eng.MustExec(`CREATE TABLE t (n INTEGER)`)
	eng.MustExec(`INSERT INTO t VALUES (1)`)
	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService("serial", core.WithConcurrentAccess(false))
	ep := service.NewEndpoint(svc)
	ep.Register(res)
	startEndpoint(t, ep)

	ref := client.Ref(svc.Address(), res.AbstractName())
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			c := client.New(nil)
			_, err := c.SQLExecute(context.Background(), ref, `SELECT n FROM t`, nil, "")
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Property document advertises it.
	c := client.New(nil)
	doc, err := c.GetPropertyDocument(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if doc.FindText(core.NSDAI, "ConcurrentAccess") != "false" {
		t.Fatal("ConcurrentAccess property wrong")
	}
}

func TestAbstractNameRequiredInBody(t *testing.T) {
	// Paper §3/§5: the abstract name must be in the body. A request
	// without it is rejected even though the action routes.
	_, _, ref, _ := relationalFixture(t)
	bare := xmlutil.NewElement(ops.NSDAIR, "SQLExecuteRequest")
	ops.AddSQLExpression(bare, "SELECT 1", nil)
	err := clientRawCall(t, ref.Address, ops.ActSQLExecute, bare)
	if err == nil || !strings.Contains(err.Error(), "DataResourceAbstractName") {
		t.Fatalf("err = %v", err)
	}
}

// clientRawCall issues a raw SOAP call and returns the error.
func clientRawCall(t *testing.T, address, action string, body *xmlutil.Element) error {
	t.Helper()
	_, err := soap.NewClient(nil).Call(context.Background(), address, action, soap.NewEnvelope(body))
	return err
}

func TestConfigurationDocumentHonoured(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	cfg := core.DefaultConfiguration()
	cfg.Description = "nightly report"
	cfg.Sensitivity = core.Sensitive
	respRef, err := c.SQLExecuteFactory(context.Background(), ref, `SELECT 1`, nil, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.GetPropertyDocument(context.Background(), respRef)
	if err != nil {
		t.Fatal(err)
	}
	if doc.FindText(core.NSDAI, "DataResourceDescription") != "nightly report" {
		t.Fatal("description lost")
	}
	if doc.FindText(core.NSDAI, "Sensitivity") != "Sensitive" {
		t.Fatal("sensitivity lost")
	}
}

func TestWSRFRequiresBodyName(t *testing.T) {
	_, _, ref, _ := relationalFixture(t)
	body := xmlutil.NewElement(wsrf.NSRP, "GetResourceProperty")
	body.AddText(wsrf.NSRP, "ResourceProperty", "Readable")
	err := clientRawCall(t, ref.Address, ops.ActGetResourceProperty, body)
	if err == nil || !strings.Contains(err.Error(), "DataResourceAbstractName") {
		t.Fatalf("err = %v", err)
	}
}

func TestWSRFSetResourceProperties(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	// Flip Writeable off and set a description through WSRF.
	if err := c.SetResourceProperties(context.Background(), ref, map[string]string{
		"Writeable":               "false",
		"DataResourceDescription": "frozen for audit",
	}); err != nil {
		t.Fatal(err)
	}
	doc, err := c.GetPropertyDocument(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if doc.FindText(core.NSDAI, "Writeable") != "false" {
		t.Fatal("Writeable not updated")
	}
	if doc.FindText(core.NSDAI, "DataResourceDescription") != "frozen for audit" {
		t.Fatal("description not updated")
	}
	// The behaviour changes too: writes are refused now.
	var naf *core.NotAuthorizedFault
	if _, err := c.SQLExecute(context.Background(), ref, `DELETE FROM emp WHERE id = 1`, nil, ""); !errors.As(err, &naf) {
		t.Fatalf("write to non-writeable resource: err = %v", err)
	}
	// Unknown properties are rejected.
	if err := c.SetResourceProperties(context.Background(), ref, map[string]string{"DataResourceAbstractName": "x"}); err == nil {
		t.Fatal("static property must not be updatable")
	}
	// Bad values are rejected.
	if err := c.SetResourceProperties(context.Background(), ref, map[string]string{"Readable": "maybe"}); err == nil {
		t.Fatal("invalid boolean should fail")
	}
	if err := c.SetResourceProperties(context.Background(), ref, map[string]string{"Sensitivity": "weird"}); err == nil {
		t.Fatal("invalid sensitivity should fail")
	}
	// Flip Readable off: reads now refused.
	if err := c.SetResourceProperties(context.Background(), ref, map[string]string{"Readable": "false"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SQLExecute(context.Background(), ref, `SELECT 1`, nil, ""); !errors.As(err, &naf) {
		t.Fatalf("err = %v", err)
	}
}

// fileFixture builds a WSRF-enabled endpoint hosting a file resource.
func fileFixture(t testing.TB) (client.ResourceRef, *client.Client) {
	t.Helper()
	store := filestore.NewStore("grid")
	for name, data := range map[string]string{
		"runs/2005/a.dat": "run-a-data",
		"runs/2005/b.dat": "run-b-data",
		"runs/2006/c.dat": "run-c",
	} {
		if err := store.Write(name, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	res := daif.NewFileDataResource(store)
	svc := core.NewDataService("files", core.WithConfigurationMap(daif.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithWSRF())
	ep.Register(res)
	startEndpoint(t, ep)
	return client.Ref(svc.Address(), res.AbstractName()), client.New(nil)
}

func TestFileAccessOverHTTP(t *testing.T) {
	ref, c := fileFixture(t)
	data, err := c.ReadFile(context.Background(), ref, "runs/2005/a.dat", 0, -1)
	if err != nil || string(data) != "run-a-data" {
		t.Fatalf("read = %q, %v", data, err)
	}
	part, err := c.ReadFile(context.Background(), ref, "runs/2005/a.dat", 4, 1)
	if err != nil || string(part) != "a" {
		t.Fatalf("range = %q, %v", part, err)
	}
	// Binary-safe round trip.
	blob := []byte{0x00, 0xFF, 0x7F, '<', '>', '&', 0x01}
	if err := c.WriteFile(context.Background(), ref, "bin.dat", blob); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendFile(context.Background(), ref, "bin.dat", []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(context.Background(), ref, "bin.dat", 0, -1)
	if err != nil || len(got) != 8 || got[7] != 0xAA || got[0] != 0x00 {
		t.Fatalf("binary = %x, %v", got, err)
	}
	info, err := c.StatFile(context.Background(), ref, "bin.dat")
	if err != nil || info.Size != 8 {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if err := c.DeleteFile(context.Background(), ref, "bin.dat"); err != nil {
		t.Fatal(err)
	}
	infos, err := c.ListFiles(context.Background(), ref, "runs/**")
	if err != nil || len(infos) != 3 {
		t.Fatalf("list = %v, %v", infos, err)
	}
}

func TestFileStagingOverHTTP(t *testing.T) {
	ref, c := fileFixture(t)
	stagedRef, err := c.FileSelectFactory(context.Background(), ref, "runs/2005/*", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A third party reads from the staged resource.
	third := client.New(nil)
	infos, err := third.ListFiles(context.Background(), stagedRef, "")
	if err != nil || len(infos) != 2 {
		t.Fatalf("staged list = %v, %v", infos, err)
	}
	data, err := third.ReadFile(context.Background(), stagedRef, "runs/2005/b.dat", 0, -1)
	if err != nil || string(data) != "run-b-data" {
		t.Fatalf("staged read = %q, %v", data, err)
	}
	// The snapshot is pinned against parent mutation.
	if err := c.WriteFile(context.Background(), ref, "runs/2005/b.dat", []byte("CHANGED")); err != nil {
		t.Fatal(err)
	}
	data, _ = third.ReadFile(context.Background(), stagedRef, "runs/2005/b.dat", 0, -1)
	if string(data) != "run-b-data" {
		t.Fatalf("staged data changed: %q", data)
	}
	// Writes to a staged resource are rejected (wrong type).
	if err := third.WriteFile(context.Background(), stagedRef, "x", []byte("y")); err == nil {
		t.Fatal("staged resources must be read-only")
	}
	// Property document shows the derivation.
	doc, err := third.GetPropertyDocument(context.Background(), stagedRef)
	if err != nil {
		t.Fatal(err)
	}
	if doc.FindText(core.NSDAI, "ParentDataResource") == "" {
		t.Fatal("parent missing")
	}
	if doc.FindText(ops.NSDAIF, "NumberOfFiles") != "2" {
		t.Fatal("file count extension missing")
	}
	// Soft-state cleanup works for staged resources too.
	past := time.Now().Add(-time.Second)
	if _, err := c.SetTerminationTime(context.Background(), stagedRef, &past); err != nil {
		t.Fatal(err)
	}

	// E11: the coordinator receives an EPR, not the files: staging one
	// 16 kB file or four reads the same bytes.
	for i := 0; i < 4; i++ {
		if err := c.WriteFile(context.Background(), ref, fmt.Sprintf("bulk/f-%d.dat", i), make([]byte, 16<<10)); err != nil {
			t.Fatal(err)
		}
	}
	stage := func(glob string) int64 {
		return received(t, func(c *client.Client) error {
			_, err := c.FileSelectFactory(context.Background(), ref, glob, nil)
			return err
		})
	}
	if one, all := stage("bulk/f-0.dat"), stage("bulk/*"); one-all < -64 || one-all > 64 || all > 16<<10 {
		t.Errorf("coordinator bytes: staging one file %d, four files %d", one, all)
	}
}

func TestFileGenericQueryOverHTTP(t *testing.T) {
	ref, c := fileFixture(t)
	list, err := c.GenericQuery(context.Background(), ref, daif.LanguageGlob, "**/*.dat")
	if err != nil {
		t.Fatal(err)
	}
	if len(list.FindAll(ops.NSDAIF, "File")) != 3 {
		t.Fatalf("list = %s", xmlutil.MarshalString(list))
	}
}

func TestRealisationPropertyDocuments(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	sqlDoc, err := c.GetSQLPropertyDocument(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if sqlDoc.Find(ops.NSDAIR, "CIMDescription") == nil {
		t.Fatal("SQL property document missing CIMDescription")
	}
	respRef, err := c.SQLExecuteFactory(context.Background(), ref, `SELECT id FROM emp`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	respDoc, err := c.GetSQLResponsePropertyDocument(context.Background(), respRef)
	if err != nil {
		t.Fatal(err)
	}
	if respDoc.FindText(ops.NSDAIR, "NumberOfSQLRowsets") != "1" {
		t.Fatal("response property document missing item counts")
	}
	// Wrong resource type faults.
	if _, err := c.GetSQLResponsePropertyDocument(context.Background(), ref); err == nil {
		t.Fatal("base resource is not a response")
	}
	rowsetRef, err := c.SQLRowsetFactory(context.Background(), respRef, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rsDoc, err := c.GetRowsetPropertyDocument(context.Background(), rowsetRef)
	if err != nil {
		t.Fatal(err)
	}
	if rsDoc.FindText(ops.NSDAIR, "NumberOfRows") != "3" {
		t.Fatal("rowset property document missing NumberOfRows")
	}
}

func TestResponseItemAccessors(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	respRef, err := c.SQLExecuteFactory(context.Background(), ref, `SELECT name FROM emp ORDER BY id`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	item, err := c.GetSQLResponseItem(context.Background(), respRef, 0)
	if err != nil {
		t.Fatal(err)
	}
	if item.Set == nil || len(item.Set.Rows) != 3 {
		t.Fatalf("item = %+v", item)
	}
	if _, err := c.GetSQLResponseItem(context.Background(), respRef, 5); err == nil {
		t.Fatal("out-of-range item")
	}
	// Update responses expose the count through the item accessor too.
	updRef, err := c.SQLExecuteFactory(context.Background(), ref, `UPDATE emp SET salary = 1`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	item, err = c.GetSQLResponseItem(context.Background(), updRef, 0)
	if err != nil || item.UpdateCount != 3 {
		t.Fatalf("item = %+v, %v", item, err)
	}
	// Our engine produces no return values / output parameters; the
	// operations fault cleanly.
	if _, err := c.GetSQLReturnValue(context.Background(), respRef); err == nil {
		t.Fatal("no return value expected")
	}
	if _, err := c.GetSQLOutputParameter(context.Background(), respRef, "p"); err == nil {
		t.Fatal("no output parameter expected")
	}
}

func TestGetMultipleResourcePropertiesOverHTTP(t *testing.T) {
	_, _, ref, c := relationalFixture(t)
	props, err := c.GetMultipleResourceProperties(context.Background(), ref, []string{"Readable", "Writeable", "wsrl:CurrentTime"})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 3 {
		t.Fatalf("props = %d", len(props))
	}
}

func TestWSDLDescription(t *testing.T) {
	_, _, ref, _ := relationalFixture(t)
	resp, err := http.Get(ref.Address + "?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	doc, err := xmlutil.ParseString(strings.TrimPrefix(string(body), `<?xml version="1.0" encoding="UTF-8"?>`))
	if err != nil {
		t.Fatalf("wsdl unparsable: %v", err)
	}
	if doc.Name.Local != "definitions" {
		t.Fatalf("root = %v", doc.Name)
	}
	pt := doc.Find(service.NSWSDL, "portType")
	if pt == nil {
		t.Fatal("portType missing")
	}
	ops := map[string]bool{}
	for _, op := range pt.FindAll(service.NSWSDL, "operation") {
		ops[op.AttrValue("", "name")] = true
	}
	for _, want := range []string{"SQLExecute", "SQLExecuteFactory", "GetTuples", "GenericQuery", "Destroy", "GetResourceProperty"} {
		if !ops[want] {
			t.Errorf("operation %s missing from WSDL (have %d ops)", want, len(ops))
		}
	}
	// The service address is advertised.
	if !strings.Contains(string(body), ref.Address) {
		t.Error("service address missing")
	}
	// A restricted endpoint advertises fewer operations.
	eng := sqlengine.New("x")
	res := dair.NewSQLDataResource(eng)
	svc2 := core.NewDataService("narrow")
	ep2 := service.NewEndpoint(svc2, service.WithInterfaces(service.SQLRowsetAccess))
	ep2.Register(res)
	startEndpoint(t, ep2)
	resp2, err := http.Get(svc2.Address() + "?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if strings.Contains(string(body2), `name="SQLExecute"`) {
		t.Error("restricted endpoint advertises disabled operations")
	}
	if !strings.Contains(string(body2), `name="GetTuples"`) {
		t.Error("restricted endpoint should advertise GetTuples")
	}
	// Plain GET without ?wsdl is a 400 hint, not a SOAP fault.
	resp3, err := http.Get(ref.Address)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain GET status = %d", resp3.StatusCode)
	}
}
