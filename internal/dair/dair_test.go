package dair

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"dais/internal/core"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

func seedEngine(t testing.TB) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.New("hr")
	e.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64) NOT NULL, salary DOUBLE)`)
	e.MustExec(`INSERT INTO emp VALUES (1, 'ann', 120000), (2, 'bob', 95000), (3, 'carol', 87000)`)
	return e
}

func TestSQLExecuteQuery(t *testing.T) {
	r := NewSQLDataResource(seedEngine(t))
	resp, err := r.SQLExecute(context.Background(), `SELECT name FROM emp WHERE salary > ? ORDER BY name`,
		[]sqlengine.Value{sqlengine.NewDouble(90000)})
	if err != nil {
		t.Fatal(err)
	}
	rs := resp.FirstRowset()
	if rs == nil || len(rs.Rows) != 2 {
		t.Fatalf("rowset = %+v", rs)
	}
	if resp.CA.SQLState != sqlengine.StateSuccess || resp.CA.RowsFetched != 2 {
		t.Fatalf("CA = %+v", resp.CA)
	}
	if resp.UpdateCount() != -1 {
		t.Fatalf("update count = %d", resp.UpdateCount())
	}
}

func TestSQLExecuteUpdate(t *testing.T) {
	r := NewSQLDataResource(seedEngine(t))
	resp, err := r.SQLExecute(context.Background(), `UPDATE emp SET salary = salary + 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.UpdateCount() != 3 {
		t.Fatalf("update count = %d", resp.UpdateCount())
	}
	if resp.FirstRowset() != nil {
		t.Fatal("update should not produce a rowset")
	}
}

func TestSQLExecuteErrorCarriesCA(t *testing.T) {
	r := NewSQLDataResource(seedEngine(t))
	resp, err := r.SQLExecute(context.Background(), `SELECT * FROM missing`, nil)
	var ief *core.InvalidExpressionFault
	if !errors.As(err, &ief) {
		t.Fatalf("err = %v", err)
	}
	if resp == nil || resp.CA.SQLState == sqlengine.StateSuccess {
		t.Fatalf("CA should carry the failure: %+v", resp)
	}
}

func TestThickWrapperRejectsEarly(t *testing.T) {
	r := NewSQLDataResource(seedEngine(t), WithWrapper(ThickWrapper{}))
	_, err := r.SQLExecute(context.Background(), `SELEKT * FROM emp`, nil)
	var ief *core.InvalidExpressionFault
	if !errors.As(err, &ief) {
		t.Fatalf("err = %v", err)
	}
	// Valid statements pass through unchanged.
	resp, err := r.SQLExecute(context.Background(), `SELECT COUNT(*) FROM emp`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.FirstRowset().Rows[0][0].I != 3 {
		t.Fatal("wrong result through thick wrapper")
	}
}

func TestGenericQueryRendersRowset(t *testing.T) {
	r := NewSQLDataResource(seedEngine(t))
	el, err := r.GenericQuery(context.Background(), LanguageSQL92, `SELECT id FROM emp ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if el.Name.Local != "SQLRowset" {
		t.Fatalf("element = %v", el.Name)
	}
	set, err := rowset.DecodeSQLRowsetElement(el)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 3 {
		t.Fatalf("rows = %d", len(set.Rows))
	}
	upd, err := r.GenericQuery(context.Background(), LanguageSQL92, `DELETE FROM emp WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if upd.Name.Local != "UpdateCount" || upd.Text() != "1" {
		t.Fatalf("update element = %s", xmlutil.MarshalString(upd))
	}
}

func TestResourceProperties(t *testing.T) {
	r := NewSQLDataResource(seedEngine(t))
	if r.Management() != core.ExternallyManaged {
		t.Fatal("base resource should be externally managed")
	}
	if len(r.QueryLanguages()) != 1 || r.QueryLanguages()[0] != LanguageSQL92 {
		t.Fatalf("languages = %v", r.QueryLanguages())
	}
	if len(r.DatasetFormats()) != 3 {
		t.Fatalf("formats = %v", r.DatasetFormats())
	}
	ext := r.ExtendedProperties()
	var sawCIM, sawTables bool
	for _, e := range ext {
		switch e.Name.Local {
		case "CIMDescription":
			sawCIM = true
			if len(e.ChildElements()) == 0 {
				t.Fatal("CIMDescription empty")
			}
		case "NumberOfTables":
			sawTables = true
			if e.Text() != "1" {
				t.Fatalf("tables = %s", e.Text())
			}
		}
	}
	if !sawCIM || !sawTables {
		t.Fatalf("extensions = %v", ext)
	}
}

func TestSQLExecuteFactoryAndResponseAccess(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	svc2 := core.NewDataService("ds2")
	resp, err := SQLExecuteFactory(context.Background(), src, svc2, `SELECT name, salary FROM emp ORDER BY salary DESC`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Management() != core.ServiceManaged {
		t.Fatal("derived resource must be service managed")
	}
	if resp.ParentName() != src.AbstractName() {
		t.Fatal("parent name not recorded")
	}
	if _, err := svc2.Resolve(resp.AbstractName()); err != nil {
		t.Fatal("resource not registered with target service")
	}
	rs, err := resp.GetSQLRowset(0)
	if err != nil || len(rs.Rows) != 3 {
		t.Fatalf("rowset = %v, %v", rs, err)
	}
	if rs.Rows[0][0].String() != "ann" {
		t.Fatalf("order lost: %v", rs.Rows)
	}
	if _, err := resp.GetSQLRowset(1); err == nil {
		t.Fatal("second rowset should not exist")
	}
	if _, err := resp.GetSQLUpdateCount(0); err == nil {
		t.Fatal("query response has no update count")
	}
	if _, err := resp.GetSQLReturnValue(); err == nil {
		t.Fatal("no return value expected")
	}
	if _, err := resp.GetSQLOutputParameter("x"); err == nil {
		t.Fatal("no output parameter expected")
	}
	item, err := resp.GetSQLResponseItem(0)
	if err != nil || item.Kind != ItemRowset {
		t.Fatalf("item = %+v, %v", item, err)
	}
	if _, err := resp.GetSQLResponseItem(1); err == nil {
		t.Fatal("item 1 should not exist")
	}
	ca := resp.GetSQLCommunicationArea()
	if ca.SQLState != sqlengine.StateSuccess {
		t.Fatalf("CA = %+v", ca)
	}
}

func TestFactoryUpdateResponse(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	svc := core.NewDataService("ds")
	resp, err := SQLExecuteFactory(context.Background(), src, svc, `UPDATE emp SET salary = 1`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := resp.GetSQLUpdateCount(0)
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
	ext := resp.ExtendedProperties()
	var counts []string
	for _, e := range ext {
		counts = append(counts, e.Name.Local+"="+e.Text())
	}
	joined := strings.Join(counts, ",")
	if !strings.Contains(joined, "NumberOfSQLUpdateCounts=1") || !strings.Contains(joined, "NumberOfSQLRowsets=0") {
		t.Fatalf("counts = %s", joined)
	}
}

func TestSQLRowsetFactoryChain(t *testing.T) {
	// The full Fig. 5 pipeline at the model level.
	src := NewSQLDataResource(seedEngine(t))
	ds2 := core.NewDataService("ds2")
	ds3 := core.NewDataService("ds3")

	resp, err := SQLExecuteFactory(context.Background(), src, ds2, `SELECT id, name FROM emp ORDER BY id`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SQLRowsetFactory(context.Background(), resp, ds3, rowset.FormatWebRowSet, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.ParentName() != resp.AbstractName() {
		t.Fatal("rowset parent should be the response resource")
	}
	if rr.FormatURI() != rowset.FormatWebRowSet {
		t.Fatalf("format = %s", rr.FormatURI())
	}
	if n, err := rr.FinalRowCount(context.Background()); err != nil || n != 3 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	page, err := rr.GetTuples(context.Background(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	set, err := (rowset.WebRowSetCodec{}).Decode(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 1 || set.Rows[0][1].String() != "bob" {
		t.Fatalf("page = %+v", set.Rows)
	}
}

func TestSQLRowsetFactoryCountLimit(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	ds := core.NewDataService("ds")
	resp, _ := SQLExecuteFactory(context.Background(), src, ds, `SELECT id FROM emp ORDER BY id`, nil, nil)
	rr, err := SQLRowsetFactory(context.Background(), resp, ds, "", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := rr.FinalRowCount(context.Background()); err != nil || n != 2 {
		t.Fatalf("rows = %d, %v", n, err)
	}
}

func TestSQLRowsetFactoryBadFormat(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	ds := core.NewDataService("ds")
	resp, _ := SQLExecuteFactory(context.Background(), src, ds, `SELECT id FROM emp`, nil, nil)
	_, err := SQLRowsetFactory(context.Background(), resp, ds, "urn:fmt:unknown", 0, nil)
	var idf *core.InvalidDatasetFormatFault
	if !errors.As(err, &idf) {
		t.Fatalf("err = %v", err)
	}
}

// rowsetFromSQL composes the two factories into the short-cut the paper
// notes at the end of §4.2: a query straight to a rowset resource.
func rowsetFromSQL(src *SQLDataResource, ds *core.DataService, expression, formatURI string) (*SQLRowsetResource, error) {
	resp, err := SQLExecuteFactory(context.Background(), src, ds, expression, nil, nil)
	if err != nil {
		return nil, err
	}
	return SQLRowsetFactory(context.Background(), resp, ds, formatURI, 0, nil)
}

func TestRowsetFromSQLShortcut(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	ds := core.NewDataService("ds")
	rr, err := rowsetFromSQL(src, ds, `SELECT name FROM emp`, rowset.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ds.Resolve(rr.ParentName())
	if err != nil || resp.ParentName() != src.AbstractName() {
		t.Fatalf("rowset parent %q should be a response derived from the source: %v", rr.ParentName(), err)
	}
	data, err := rr.GetTuples(context.Background(), 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ann") {
		t.Fatalf("csv = %s", data)
	}
	// Non-query expression fails.
	if _, err := rowsetFromSQL(src, ds, `DELETE FROM emp WHERE id = 99`, ""); err == nil {
		t.Fatal("expected fault for non-query")
	}
}

func TestReadableWriteableEnforcement(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t),
		WithConfiguration(core.Configuration{Readable: false, TransactionIsolation: "READ COMMITTED"}))
	ds := core.NewDataService("ds")
	var naf *core.NotAuthorizedFault
	if _, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT 1`, nil, nil); !errors.As(err, &naf) {
		t.Fatalf("err = %v", err)
	}

	// A derived unreadable response refuses access ops.
	src2 := NewSQLDataResource(seedEngine(t))
	cfg := core.DefaultConfiguration()
	cfg.Readable = false
	resp, err := SQLExecuteFactory(context.Background(), src2, ds, `SELECT 1`, nil, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resp.GetSQLRowset(0); !errors.As(err, &naf) {
		t.Fatalf("err = %v", err)
	}
}

func TestConsumerControlledTransactions(t *testing.T) {
	cfg := core.Configuration{
		Readable: true, Writeable: true,
		TransactionInitiation: core.TransactionConsumerControlled,
		TransactionIsolation:  "READ COMMITTED",
	}
	r := NewSQLDataResource(seedEngine(t), WithConfiguration(cfg))
	if _, err := r.SQLExecute(context.Background(), `BEGIN`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SQLExecute(context.Background(), `UPDATE emp SET salary = 0`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SQLExecute(context.Background(), `ROLLBACK`, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := r.SQLExecute(context.Background(), `SELECT salary FROM emp WHERE id = 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.FirstRowset().Rows[0][0].String() != "120000" {
		t.Fatal("rollback across messages failed")
	}
}

func TestResponseReleaseDropsData(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	ds := core.NewDataService("ds")
	resp, _ := SQLExecuteFactory(context.Background(), src, ds, `SELECT * FROM emp`, nil, nil)
	if err := ds.DestroyDataResource(context.Background(), resp.AbstractName()); err != nil {
		t.Fatal(err)
	}
	if _, err := resp.GetSQLRowset(0); err == nil {
		t.Fatal("released response should have no rowset")
	}
}

func TestCommunicationAreaRoundTrip(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	resp, _ := src.SQLExecute(context.Background(), `SELECT * FROM emp`, nil)
	el := resp.CommunicationAreaElement()
	re, err := xmlutil.ParseString(xmlutil.MarshalString(el))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := ParseCommunicationArea(re)
	if err != nil {
		t.Fatal(err)
	}
	if ca.SQLState != resp.CA.SQLState || ca.RowsFetched != resp.CA.RowsFetched {
		t.Fatalf("ca = %+v, want %+v", ca, resp.CA)
	}
	if _, err := ParseCommunicationArea(nil); err == nil {
		t.Fatal("nil element")
	}
	// A count that is missing or not a number is an error naming its
	// field, never a 0 — an SQLCode of 0 reads as success.
	for _, field := range []string{"SQLCode", "UpdateCount", "RowsFetched"} {
		for _, bad := range []string{"x", "", "12abc", "-"} {
			el := resp.CommunicationAreaElement()
			el.Find(NSDAIR, field).SetText(bad)
			if ca, err := ParseCommunicationArea(el); err == nil || !strings.Contains(err.Error(), field) {
				t.Fatalf("%s %q: ca = %+v, err = %v", field, bad, ca, err)
			}
		}
		el := resp.CommunicationAreaElement()
		el.Children = slices.DeleteFunc(el.Children, func(n xmlutil.Node) bool {
			c, ok := n.(*xmlutil.Element)
			return ok && c.Name.Local == field
		})
		if ca, err := ParseCommunicationArea(el); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("no %s: ca = %+v, err = %v", field, ca, err)
		}
	}
}

func TestRowsetPropertyExtensions(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	ds := core.NewDataService("ds")
	rr, err := rowsetFromSQL(src, ds, `SELECT id, name FROM emp`, "")
	if err != nil {
		t.Fatal(err)
	}
	ext := rr.ExtendedProperties()
	var found int
	for _, e := range ext {
		switch e.Name.Local {
		case "NumberOfRows":
			if e.Text() != "3" {
				t.Fatalf("rows = %s", e.Text())
			}
			found++
		case "RowsetFormat":
			if e.Text() != rowset.FormatSQLRowset {
				t.Fatalf("format = %s", e.Text())
			}
			found++
		case "RowsetSchema":
			if len(e.ChildElements()) == 0 {
				t.Fatal("schema empty")
			}
			found++
		}
	}
	if found != 3 {
		t.Fatalf("extensions = %v", ext)
	}
}

func TestStandardConfigurationMaps(t *testing.T) {
	maps := StandardConfigurationMaps()
	if len(maps) != 2 {
		t.Fatalf("maps = %d", len(maps))
	}
	el := maps[0].Element()
	if el.FindText(core.NSDAI, "MessageName") != "SQLExecuteFactoryRequest" {
		t.Fatalf("map = %s", xmlutil.MarshalString(el))
	}
	if el.Find(core.NSDAI, "ConfigurationDocument") == nil {
		t.Fatal("default configuration missing")
	}
}

func TestSensitivitySemantics(t *testing.T) {
	src := NewSQLDataResource(seedEngine(t))
	ds := core.NewDataService("ds")

	insensitive := core.DefaultConfiguration() // Insensitive by default
	snap, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT COUNT(*) FROM emp`, nil, &insensitive)
	if err != nil {
		t.Fatal(err)
	}
	sensitiveCfg := core.DefaultConfiguration()
	sensitiveCfg.Sensitivity = core.Sensitive
	live, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT COUNT(*) FROM emp`, nil, &sensitiveCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the parent after both derivations.
	if _, err := src.SQLExecute(context.Background(), `DELETE FROM emp WHERE id = 1`, nil); err != nil {
		t.Fatal(err)
	}

	snapSet, err := snap.GetSQLRowset(0)
	if err != nil {
		t.Fatal(err)
	}
	if snapSet.Rows[0][0].I != 3 {
		t.Fatalf("insensitive resource should keep the snapshot: %v", snapSet.Rows[0][0])
	}
	liveSet, err := live.GetSQLRowset(0)
	if err != nil {
		t.Fatal(err)
	}
	if liveSet.Rows[0][0].I != 2 {
		t.Fatalf("sensitive resource should reflect the parent: %v", liveSet.Rows[0][0])
	}
	// Release detaches the sensitive resource from its parent.
	if err := ds.DestroyDataResource(context.Background(), live.AbstractName()); err != nil {
		t.Fatal(err)
	}
	if _, err := live.GetSQLRowset(0); err == nil {
		t.Fatal("released sensitive resource should have no data")
	}
}
