package dais_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/filestore"
	"dais/internal/resil"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// The point_mix workload of benchmark/ in process: a daisd's relational
// and XML services (WSRF and telemetry on) behind one listener, eight
// 1 000-row tables with an ordered index on the key and thirty book
// documents, and one exchange of each of the workload's four classes —
// server and consumer share the process, so the figures cover both.

type pointFixture struct {
	c        *client.Client
	sql, xml client.ResourceRef
	close    func()
}

func newPointFixture(tb testing.TB) *pointFixture {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	obs := telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	mux := http.NewServeMux()

	eng := sqlengine.New("point")
	for t := 0; t < 8; t++ {
		eng.MustExec(fmt.Sprintf(`CREATE TABLE data_%d (id INTEGER PRIMARY KEY, payload VARCHAR(64), num DOUBLE)`, t))
		eng.MustExec(fmt.Sprintf(`CREATE ORDERED INDEX data_%d_id_ord ON data_%d (id)`, t, t))
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO data_%d VALUES ", t)
		for i := 0; i < 1000; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'row-%06d-payload-abcdefghij', %g)", i, i, float64(i)*1.5)
		}
		eng.MustExec(sb.String())
	}
	// daisd's delivery: derived rowsets stream through a buffer that
	// would spill past 64 MiB, observed on /metrics.
	sqlRes := dair.NewSQLDataResource(eng, dair.WithStreamDelivery(rowset.BufferConfig{
		MemCap: 64 << 20,
		Spill:  filestore.NewStore("rowset-spill"),
		Hooks:  service.RowsetStreamHooks(obs.Registry),
	}))
	sqlSvc := core.NewDataService("relational", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	sqlEp := service.NewEndpoint(sqlSvc, service.WithTelemetry(obs), service.WithWSRF())
	sqlEp.Register(sqlRes)
	sqlSvc.SetAddress(base + "/sql")
	mux.Handle("/sql", sqlEp)

	store := xmldb.NewStore("library")
	for i := 0; i < 30; i++ {
		doc, err := xmlutil.ParseString(fmt.Sprintf(
			`<book id="%d" genre="g%d"><title>Title %02d</title><author>Author %d</author><price>%d</price></book>`,
			i, i%4, i, i%9, 10+3*i))
		if err != nil {
			tb.Fatal(err)
		}
		if err := store.AddDocument("", fmt.Sprintf("bench-book-%02d.xml", i), doc); err != nil {
			tb.Fatal(err)
		}
	}
	xmlRes := daix.NewXMLCollectionResource(store, "")
	xmlSvc := core.NewDataService("xml", core.WithConfigurationMap(daix.StandardConfigurationMaps()...))
	xmlEp := service.NewEndpoint(xmlSvc, service.WithTelemetry(obs), service.WithWSRF())
	xmlEp.Register(xmlRes)
	xmlSvc.SetAddress(base + "/xml")
	mux.Handle("/xml", xmlEp)

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed below
	return &pointFixture{
		c:   clientOver(nil),
		sql: client.Ref(base+"/sql", sqlRes.AbstractName()),
		xml: client.Ref(base+"/xml", xmlRes.AbstractName()),
		close: func() {
			srv.Close()
			sqlEp.WSRF().Close()
			xmlEp.WSRF().Close()
		},
	}
}

// clientOver is the consumer benchmark/ drives: the typed client with no
// retry policy and no observer of its own.
func clientOver(hc *http.Client) *client.Client {
	return client.NewResilient(hc, nil, resil.ClientConfig{})
}

// pointClasses are the four classes as benchmark/gen.go deals them; i
// varies the constants, so the literal statement misses the plan cache
// as the workload's does.
var pointClasses = []struct {
	name string
	run  func(f *pointFixture, i int) error
}{
	{"sql_direct", func(f *pointFixture, i int) error {
		lo := (i * 37) % 980
		res, err := f.c.SQLExecute(context.Background(), f.sql,
			fmt.Sprintf(`SELECT id, payload, num FROM data_%d WHERE id BETWEEN %d AND %d`, i%8, lo, lo+19), nil, "")
		if err == nil && len(res.Set.Rows) != 20 {
			err = fmt.Errorf("%d rows, want 20", len(res.Set.Rows))
		}
		return err
	}},
	{"sql_indirect", func(f *pointFixture, i int) error {
		ctx, lo := context.Background(), (i*37)%990
		derived, err := f.c.SQLExecuteFactory(ctx, f.sql,
			fmt.Sprintf(`SELECT id, payload FROM data_%d WHERE id BETWEEN %d AND %d`, i%8, lo, lo+9), nil, nil)
		if err != nil {
			return err
		}
		set, err := f.c.GetSQLRowset(ctx, derived, 0)
		if err == nil && len(set.Rows) != 10 {
			err = fmt.Errorf("%d rows, want 10", len(set.Rows))
		}
		if err != nil {
			return err
		}
		return f.c.WSRFDestroy(ctx, derived)
	}},
	{"xml_xpath", func(f *pointFixture, i int) error {
		items, err := f.c.XPathExecute(context.Background(), f.xml, fmt.Sprintf(`//book[price>%d]/title`, 10+3*(i%29)))
		if err == nil && len(items) != 29-i%29 {
			err = fmt.Errorf("%d items, want %d", len(items), 29-i%29)
		}
		return err
	}},
	{"wsrf_props", func(f *pointFixture, i int) error {
		ref := f.sql
		if i%2 == 1 {
			ref = f.xml
		}
		props, err := f.c.GetResourceProperty(context.Background(), ref, "Readable")
		if err == nil && (len(props) != 1 || props[0].Text() != "true") {
			err = fmt.Errorf("Readable = %v", props)
		}
		return err
	}},
}

// tee records every message a client sends and receives.
type tee struct{ messages [][]byte }

func (t *tee) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(reply))
	t.messages = append(t.messages, body, reply)
	return resp, err
}

// TestPointExchangeVocabulary: every element and attribute name and
// every namespace in the messages of the four classes is a registered
// word (xmlutil.RegisterVocabulary), so parsing them allocates no name —
// all but the consumer's own data, the book's <title>. A registered
// word is the same string in two parses of a message; an unregistered
// one is interned once per parse.
func TestPointExchangeVocabulary(t *testing.T) {
	f := newPointFixture(t)
	defer f.close()
	var wire tee
	f.c = clientOver(&http.Client{Transport: &wire})
	for _, class := range pointClasses {
		if err := class.run(f, 1); err != nil {
			t.Fatalf("%s: %v", class.name, err)
		}
	}
	if len(wire.messages) != 12 {
		t.Fatalf("recorded %d messages, want 12", len(wire.messages))
	}
	shared := func(a, b string) bool { return a == "" || unsafe.StringData(a) == unsafe.StringData(b) }
	var walk func(a, b *xmlutil.Element)
	walk = func(a, b *xmlutil.Element) {
		if a.Name.Local != "title" && !(shared(a.Name.Local, b.Name.Local) && shared(a.Name.Space, b.Name.Space)) {
			t.Errorf("element %v is not in the vocabulary", a.Name)
		}
		for i, at := range a.Attrs {
			if !shared(at.Name.Local, b.Attrs[i].Name.Local) || !shared(at.Name.Space, b.Attrs[i].Name.Space) {
				t.Errorf("attribute %v of %v is not in the vocabulary", at.Name, a.Name)
			}
		}
		bc := b.ChildElements()
		for i, c := range a.ChildElements() {
			walk(c, bc[i])
		}
	}
	for _, m := range wire.messages {
		// Plain parses: the rowset under dai:Dataset is walked too.
		a, err := xmlutil.ParseBytes(m)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := xmlutil.ParseBytes(m)
		walk(a, b)
	}
}

// BenchmarkPointExchange times one exchange of each point_mix class.
func BenchmarkPointExchange(b *testing.B) {
	f := newPointFixture(b)
	defer f.close()
	for _, class := range pointClasses {
		b.Run(class.name, func(b *testing.B) {
			if err := class.run(f, 0); err != nil { // warm: connection, pooled buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := class.run(f, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPointExchangeAllocCeiling pins what one exchange of each
// point_mix class allocates, server and consumer together (net/http's
// share, some 10 kB and 75 allocations an exchange on each side of the
// connection, included). A small exchange is fixed cost, and that cost
// was memory: on one core half of daisd's CPU went to allocating and
// collecting scratch sized for a bulk window — a 256-row slab and two
// 128-element parse arenas for a 20-row reply, the CIM description of
// every table cloned three times to answer "Readable". The ceilings are
// one and a half times what the classes allocated after E23 (the 40-byte
// cell of E24 took another 6 kB off a 20-row reply). sql_indirect runs
// daisd's path, the response streamed into a rowset buffer, which costs
// 1.8 kB and 26 allocations more than the executed, in-memory response
// this fixture used to build (73.3 kB, 1 114):
//
//	class          kB before   kB now   allocations before   now
//	sql_direct         149.6     48.1                  567   439
//	sql_indirect       209.6     75.1                 1349  1140
//	xml_xpath           90.7     45.1                 1641   856
//	wsrf_props         126.3     17.4                 1769   267
func TestPointExchangeAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("allocation figures under the race detector are not the program's")
	}
	ceilings := map[string]struct{ kB, allocs uint64 }{
		"sql_direct":   {72, 657},
		"sql_indirect": {109, 1658},
		"xml_xpath":    {68, 1286},
		"wsrf_props":   {26, 398},
	}
	f := newPointFixture(t)
	defer f.close()
	const runs = 200
	for _, class := range pointClasses {
		for i := 0; i < 20; i++ { // warm: connection, pooled buffers, plan cache
			if err := class.run(f, i); err != nil {
				t.Fatalf("%s: %v", class.name, err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := class.run(f, i); err != nil {
				t.Fatalf("%s: %v", class.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		kB := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		allocs := (after.Mallocs - before.Mallocs) / runs
		ceiling := ceilings[class.name]
		t.Logf("%-12s allocates %6.1f kB in %4d allocations an exchange (ceilings %d kB, %d)",
			class.name, kB, allocs, ceiling.kB, ceiling.allocs)
		if kB > float64(ceiling.kB) || allocs > ceiling.allocs {
			t.Errorf("%s allocates %.1f kB in %d allocations an exchange, over the ceiling of %d kB, %d",
				class.name, kB, allocs, ceiling.kB, ceiling.allocs)
		}
	}
}
