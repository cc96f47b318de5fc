// Package dais_test holds the evaluation suite's `go test -bench`
// benchmarks (DESIGN.md §4 and EXPERIMENTS.md): one benchmark (family)
// per experiment E1–E13 that has one, plus the engine- and session-level
// benchmarks behind the benchmark/ workloads.
package dais_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/filestore"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/xmlutil"
)

// fixture is a served relational data service: table data (id INTEGER
// PRIMARY KEY, payload VARCHAR(64), num DOUBLE) with an ordered index on
// id, and a consumer observed by the endpoint's own observer.
type fixture struct {
	eng *sqlengine.Engine
	ep  *service.Endpoint
	ref client.ResourceRef
	c   *client.Client
}

// fixtureOption is what the benchmarks vary about a fixture.
type fixtureOption struct {
	rows         int
	wsrf         bool // enable the WSRF layer
	extraTables  int  // extra catalogue tables to fatten the property document
	noTelemetry  bool // strip the telemetry interceptors (overhead baseline)
	planCacheOff bool // disable the prepared-plan cache (cold-plan baseline)
	stream       bool // deliver factory results through a never-spilling rowset buffer
}

func newFixture(tb testing.TB, opt fixtureOption) *fixture {
	tb.Helper()
	var engOpts []sqlengine.Option
	if opt.planCacheOff {
		engOpts = append(engOpts, sqlengine.WithPlanCacheSize(0))
	}
	eng := sqlengine.New("bench", engOpts...)
	eng.MustExec(`CREATE TABLE data (id INTEGER PRIMARY KEY, payload VARCHAR(64), num DOUBLE)`)
	eng.MustExec(`CREATE ORDERED INDEX data_id_ord ON data (id)`)
	var sb strings.Builder
	for i := 0; i < opt.rows; i += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO data VALUES ")
		for j := i; j < min(i+1000, opt.rows); j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'row-%06d-payload-abcdefghij', %g)", j, j, float64(j)*1.5)
		}
		eng.MustExec(sb.String())
	}
	for t := 0; t < opt.extraTables; t++ {
		eng.MustExec(fmt.Sprintf(
			`CREATE TABLE extra_%03d (a INTEGER PRIMARY KEY, b VARCHAR(32), c DOUBLE, d BOOLEAN, e TIMESTAMP)`, t))
	}

	var obs *telemetry.Observer
	if !opt.noTelemetry {
		obs = telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	}
	var resOpts []dair.ResourceOption
	if opt.stream {
		resOpts = append(resOpts, dair.WithStreamDelivery(rowset.BufferConfig{
			MemCap: 1 << 62,
			Spill:  filestore.NewStore("rowset-spill"),
			Hooks:  service.RowsetStreamHooks(obs.Registry),
		}))
	}
	res := dair.NewSQLDataResource(eng, resOpts...)
	svc := core.NewDataService("bench", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	epOpts := []service.EndpointOption{service.WithTelemetry(obs)}
	if opt.wsrf {
		epOpts = append(epOpts, service.WithWSRF())
	}
	ep := service.NewEndpoint(svc, epOpts...)
	ep.Register(res)
	ts := httptest.NewServer(ep)
	tb.Cleanup(ts.Close)
	svc.SetAddress(ts.URL)
	return &fixture{eng: eng, ep: ep, ref: client.Ref(ts.URL, res.AbstractName()), c: client.NewObserved(nil, obs)}
}

// E1/E2 — direct vs indirect access and third-party delivery (Fig. 1,
// Fig. 5): one sub-benchmark per result size and pattern.
func BenchmarkE1DirectVsIndirect(b *testing.B) {
	f := newFixture(b, fixtureOption{rows: 1000, wsrf: true})
	for _, n := range []int{1, 10, 100, 1000} {
		query := fmt.Sprintf(`SELECT id, payload, num FROM data ORDER BY id LIMIT %d`, n)
		b.Run(fmt.Sprintf("direct/rows=%d", n), func(b *testing.B) {
			c := client.New(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.SQLExecute(context.Background(), f.ref, query, nil, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.BytesReceived())/float64(b.N), "wire-B/op")
		})
		b.Run(fmt.Sprintf("indirect/rows=%d", n), func(b *testing.B) {
			c := client.New(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				respRef, err := c.SQLExecuteFactory(context.Background(), f.ref, query, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				rowsetRef, err := c.SQLRowsetFactory(context.Background(), respRef, "", 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				reader := client.New(nil)
				if _, err := reader.GetTuplesSet(context.Background(), rowsetRef, 1, n+1); err != nil {
					b.Fatal(err)
				}
				c.DestroyDataResource(context.Background(), rowsetRef) //nolint:errcheck
				c.DestroyDataResource(context.Background(), respRef)   //nolint:errcheck
			}
			b.ReportMetric(float64(c.BytesReceived())/float64(b.N), "consumer1-wire-B/op")
		})
	}
}

// BenchmarkE2ThirdPartyDelivery measures only consumer 1's side of the
// hand-off: relay (pull everything) vs EPR-only factory chain.
func BenchmarkE2ThirdPartyDelivery(b *testing.B) {
	f := newFixture(b, fixtureOption{rows: 1000, wsrf: true})
	query := `SELECT id, payload, num FROM data ORDER BY id LIMIT 1000`
	b.Run("relay", func(b *testing.B) {
		c := client.New(nil)
		for i := 0; i < b.N; i++ {
			if _, err := c.SQLExecute(context.Background(), f.ref, query, nil, ""); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(c.BytesReceived())/float64(b.N), "consumer1-wire-B/op")
	})
	b.Run("epr-handoff", func(b *testing.B) {
		c := client.New(nil)
		for i := 0; i < b.N; i++ {
			respRef, err := c.SQLExecuteFactory(context.Background(), f.ref, query, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			rowsetRef, err := c.SQLRowsetFactory(context.Background(), respRef, "", 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			c.DestroyDataResource(context.Background(), rowsetRef) //nolint:errcheck
			c.DestroyDataResource(context.Background(), respRef)   //nolint:errcheck
		}
		b.ReportMetric(float64(c.BytesReceived())/float64(b.N), "consumer1-wire-B/op")
	})
}

// E3 — WSRF fine-grained property access vs whole property document.
func BenchmarkE3PropertyGranularity(b *testing.B) {
	for _, tables := range []int{0, 50} {
		f := newFixture(b, fixtureOption{rows: 10, wsrf: true, extraTables: tables})
		b.Run(fmt.Sprintf("wholedoc/tables=%d", tables), func(b *testing.B) {
			c := client.New(nil)
			for i := 0; i < b.N; i++ {
				if _, err := c.GetPropertyDocument(context.Background(), f.ref); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.BytesReceived())/float64(b.N), "wire-B/op")
		})
		b.Run(fmt.Sprintf("singleprop/tables=%d", tables), func(b *testing.B) {
			c := client.New(nil)
			for i := 0; i < b.N; i++ {
				if _, err := c.GetResourceProperty(context.Background(), f.ref, "Readable"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.BytesReceived())/float64(b.N), "wire-B/op")
		})
	}
}

// E4 — GetTuples paging with different page sizes over a 2000-row
// rowset resource.
func BenchmarkE4TuplePaging(b *testing.B) {
	const totalRows = 2000
	f := newFixture(b, fixtureOption{rows: totalRows, wsrf: true})
	c := client.New(nil)
	respRef, err := c.SQLExecuteFactory(context.Background(), f.ref, `SELECT id, payload, num FROM data ORDER BY id`, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	rowsetRef, err := c.SQLRowsetFactory(context.Background(), respRef, "", 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, page := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("page=%d", page), func(b *testing.B) {
			pc := client.New(nil)
			for i := 0; i < b.N; i++ {
				got := 0
				for pos := 1; ; pos += page {
					set, err := pc.GetTuplesSet(context.Background(), rowsetRef, pos, page)
					if err != nil {
						b.Fatal(err)
					}
					got += len(set.Rows)
					if len(set.Rows) < page {
						break
					}
				}
				if got != totalRows {
					b.Fatalf("paged %d rows", got)
				}
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/totalRows, "ns/row")
		})
	}
}

// E5 — thin vs thick wrapper, in-process so the wrapper cost is not
// drowned in HTTP noise.
func BenchmarkE5ThinThickWrapper(b *testing.B) {
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE data (id INTEGER PRIMARY KEY, payload VARCHAR(64))`)
	for i := 0; i < 100; i++ {
		eng.MustExec(`INSERT INTO data VALUES (?, ?)`, sqlengine.NewInt(int64(i)), sqlengine.NewString("p"))
	}
	const query = `SELECT id, payload FROM data WHERE id > 10 AND id < 60 ORDER BY id DESC LIMIT 5`
	b.Run("thin", func(b *testing.B) {
		r := dair.NewSQLDataResource(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.SQLExecute(context.Background(), query, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("thick", func(b *testing.B) {
		r := dair.NewSQLDataResource(eng, dair.WithWrapper(dair.ThickWrapper{}))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.SQLExecute(context.Background(), query, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E7 — SOAP wrapper overhead: raw engine vs full SOAP/HTTP round trip.
func BenchmarkE7SOAPOverhead(b *testing.B) {
	f := newFixture(b, fixtureOption{rows: 1000})
	for _, n := range []int{1, 100} {
		query := fmt.Sprintf(`SELECT id, payload, num FROM data ORDER BY id LIMIT %d`, n)
		b.Run(fmt.Sprintf("engine/rows=%d", n), func(b *testing.B) {
			sess := f.eng.NewSession()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Execute(query); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("soap/rows=%d", n), func(b *testing.B) {
			c := client.New(nil)
			for i := 0; i < b.N; i++ {
				if _, err := c.SQLExecute(context.Background(), f.ref, query, nil, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8 — lifetime management: explicit destroy vs soft-state sweep of a
// derived resource.
func BenchmarkE8Lifetime(b *testing.B) {
	f := newFixture(b, fixtureOption{rows: 10, wsrf: true})
	c := client.New(nil)
	b.Run("explicit-destroy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref, err := c.SQLExecuteFactory(context.Background(), f.ref, `SELECT id FROM data`, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.DestroyDataResource(context.Background(), ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("soft-state", func(b *testing.B) {
		past := time.Now().Add(-time.Second)
		for i := 0; i < b.N; i++ {
			ref, err := c.SQLExecuteFactory(context.Background(), f.ref, `SELECT id FROM data`, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.SetTerminationTime(context.Background(), ref, &past); err != nil {
				b.Fatal(err)
			}
			if swept := f.ep.WSRF().SweepExpired(); len(swept) != 1 {
				b.Fatalf("swept %d", len(swept))
			}
		}
	})
}

// E9 — dataset format encode/decode over a 1000-row result.
func BenchmarkE9DatasetFormats(b *testing.B) {
	set := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: "id", Type: sqlengine.TypeInteger},
			{Name: "payload", Type: sqlengine.TypeVarchar},
			{Name: "num", Type: sqlengine.TypeDouble},
		},
	}
	for i := 0; i < 1000; i++ {
		set.Rows = append(set.Rows, []sqlengine.Value{
			sqlengine.NewInt(int64(i)),
			sqlengine.NewString(fmt.Sprintf("row-%06d-payload", i)),
			sqlengine.NewDouble(float64(i) * 1.5),
		})
	}
	reg := rowset.NewRegistry()
	for _, uri := range reg.URIs() {
		codec, err := reg.Lookup(uri)
		if err != nil {
			b.Fatal(err)
		}
		data, err := codec.Encode(set)
		if err != nil {
			b.Fatal(err)
		}
		short := uri[len(uri)-10:]
		b.Run("encode/"+short, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encode(set); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "payload-B")
		})
		b.Run("decode/"+short, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E10 — transaction initiation modes, in-process.
func BenchmarkE10Transactions(b *testing.B) {
	for _, mode := range []core.TransactionInitiation{
		core.TransactionNotSupported,
		core.TransactionPerMessage,
		core.TransactionConsumerControlled,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			eng := sqlengine.New("bench")
			eng.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
			eng.MustExec(`INSERT INTO acct VALUES (1, 0)`)
			res := dair.NewSQLDataResource(eng, dair.WithConfiguration(core.Configuration{
				Readable: true, Writeable: true,
				TransactionInitiation: mode,
				TransactionIsolation:  sqlengine.ReadCommitted.String(),
			}))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := res.SQLExecute(context.Background(), `UPDATE acct SET bal = bal + 1`, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E13 — hot-path allocation profile: the three optimised paths
// (pooled envelope encoding, windowed GetTuples delivery, hash join)
// plus the composed SQLExecute round trip, and the planner's additions:
// the round trip with the prepared-plan cache off, and a ~1%-selective
// range predicate over an ordered index vs the unindexed twin column.
// EXPERIMENTS.md E13 records the before/after tables.

// e13ResultSet is the three-column result set the envelope and paging
// paths are measured against.
func e13ResultSet(rows int) *sqlengine.ResultSet {
	set := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: "id", Type: sqlengine.TypeInteger, Table: "data"},
			{Name: "payload", Type: sqlengine.TypeVarchar, Table: "data"},
			{Name: "num", Type: sqlengine.TypeDouble, Table: "data"},
		},
	}
	for i := 0; i < rows; i++ {
		set.Rows = append(set.Rows, []sqlengine.Value{
			sqlengine.NewInt(int64(i)),
			sqlengine.NewString(fmt.Sprintf("row-%06d-payload-abcdefghij", i)),
			sqlengine.NewDouble(float64(i) * 1.5),
		})
	}
	return set
}

// BenchmarkE13EnvelopeMarshal serialises a realistic GetTuplesResponse
// envelope (100-row SQLRowset dataset plus a RequestID header) — the
// per-exchange encode cost every SOAP response pays.
func BenchmarkE13EnvelopeMarshal(b *testing.B) {
	data, err := rowset.SQLRowsetCodec{}.Encode(e13ResultSet(100))
	if err != nil {
		b.Fatal(err)
	}
	resp := ops.GetTuples.NewResponse()
	resp.AppendChild(ops.DatasetElement(rowset.FormatSQLRowset, data))
	env := soap.NewEnvelope(resp)
	reqID := xmlutil.NewElement(soap.NSPipeline, "RequestID")
	reqID.SetText("bench-e13-request-id")
	env.AddHeader(reqID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := env.Marshal(); len(out) == 0 {
			b.Fatal("empty envelope")
		}
	}
}

// BenchmarkE13GetTuplesPage serves one 100-row page out of a 10 000-row
// service-managed rowset — the paging hot path of paper Fig. 5.
func BenchmarkE13GetTuplesPage(b *testing.B) {
	res, err := dair.NewSQLRowsetResource("parent", rowset.NewBuffer(rowset.NewSetSource(e13ResultSet(10000)), rowset.BufferConfig{}), "", core.DefaultConfiguration())
	if err != nil {
		b.Fatal(err)
	}
	defer res.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data, err := res.GetTuples(context.Background(), 5001, 100); err != nil || len(data) == 0 {
			b.Fatalf("page of %d bytes: %v", len(data), err)
		}
	}
}

// BenchmarkE13EquiJoin runs an equi-join (2 000 orders × 200 customers)
// through the engine — the execJoin hot path.
func BenchmarkE13EquiJoin(b *testing.B) {
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE customers (id INTEGER PRIMARY KEY, name VARCHAR(32))`)
	eng.MustExec(`CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, amount DOUBLE)`)
	sess := eng.NewSession()
	for i := 0; i < 200; i++ {
		if _, err := sess.Execute(`INSERT INTO customers VALUES (?, ?)`,
			sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("cust-%03d", i))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := sess.Execute(`INSERT INTO orders VALUES (?, ?, ?)`,
			sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(i%200)), sqlengine.NewDouble(float64(i%97))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sess.Execute(`SELECT o.id, c.name, o.amount FROM orders o JOIN customers c ON o.cust = c.id WHERE o.amount > 10`)
		if err != nil || len(r.Set.Rows) == 0 {
			b.Fatalf("join: %v", err)
		}
	}
}

// BenchmarkE13SQLExecuteRoundTrip is the full client→server SQLExecute
// exchange (50 rows over loopback HTTP): every optimised layer —
// envelope pool, streaming encoder, transport keep-alive — composes here.
func BenchmarkE13SQLExecuteRoundTrip(b *testing.B) { e13RoundTrip(b, false) }

// BenchmarkE13SQLExecuteRoundTripCold is the same round trip with the
// prepared-plan cache disabled: every exchange re-parses and re-plans.
func BenchmarkE13SQLExecuteRoundTripCold(b *testing.B) { e13RoundTrip(b, true) }

func e13RoundTrip(b *testing.B, planCacheOff bool) {
	f := newFixture(b, fixtureOption{rows: 500, wsrf: true, planCacheOff: planCacheOff})
	query := `SELECT id, payload, num FROM data ORDER BY id LIMIT 50`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.c.SQLExecute(context.Background(), f.ref, query, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13RangeScanIndexed is a ~1%-selective range query whose
// bounds push down into the ordered index (8 000 rows, 80 hit).
func BenchmarkE13RangeScanIndexed(b *testing.B) { e13RangeScan(b, "k") }

// BenchmarkE13RangeScanFullScan is the same predicate over the unindexed
// twin column: the filter sees every row.
func BenchmarkE13RangeScanFullScan(b *testing.B) { e13RangeScan(b, "k_noix") }

func e13RangeScan(b *testing.B, col string) {
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE rng (k INTEGER PRIMARY KEY, k_noix INTEGER, v VARCHAR(32))`)
	eng.MustExec(`CREATE ORDERED INDEX rng_k ON rng (k)`)
	sess := eng.NewSession()
	for i := 0; i < 8000; i++ {
		if _, err := sess.Execute(`INSERT INTO rng VALUES (?, ?, ?)`,
			sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("val-%05d", i))); err != nil {
			b.Fatal(err)
		}
	}
	query := fmt.Sprintf(`SELECT %[1]s, v FROM rng WHERE %[1]s >= 4000 AND %[1]s < 4080`, col)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := sess.Execute(query); err != nil || len(r.Set.Rows) != 80 {
			b.Fatalf("range scan: %v", err)
		}
	}
}

// E12 — telemetry overhead: the same SQLExecute round trip against a
// bare fixture (telemetry interceptors stripped on both sides) and an
// instrumented one (the default). The difference is the full cost of
// the metrics, span and byte accounting on the hot path; EXPERIMENTS.md
// E12 records the expected near-zero gap.
func BenchmarkE12TelemetryOverhead(b *testing.B) {
	query := `SELECT id, payload, num FROM data ORDER BY id LIMIT 10`
	for _, mode := range []struct {
		name string
		bare bool
	}{{"bare", true}, {"instrumented", false}} {
		b.Run(mode.name, func(b *testing.B) {
			f := newFixture(b, fixtureOption{rows: 100, wsrf: true, noTelemetry: mode.bare})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.c.SQLExecute(context.Background(), f.ref, query, nil, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dmlFacts loads the benchmark's facts table shape — a unique index on
// id and nothing else — and scans it once so the chunk cache is live, as
// it is beside a reader.
func dmlFacts(b *testing.B, rows int) *sqlengine.Session {
	b.Helper()
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE facts (id INTEGER PRIMARY KEY, grp INTEGER, payload VARCHAR(64), num DOUBLE)`)
	s := eng.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(`INSERT INTO facts VALUES (?, ?, ?, ?)`, sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i%16)), sqlengine.NewString(fmt.Sprintf("k%d-%06d", i%7, i)), sqlengine.NewDouble(float64(i)/2)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Execute(dmlScan); err != nil {
		b.Fatal(err)
	}
	return s
}

const (
	dmlRows = 100000
	dmlScan = `SELECT grp, COUNT(*), SUM(num) FROM facts GROUP BY grp`
)

// E20 — a write costs what it touches. By-key UPDATE: one index probe,
// one row, one stale chunk.
func BenchmarkDMLUpdateByKey(b *testing.B) {
	s := dmlFacts(b, dmlRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i*7919) % dmlRows
		if _, err := s.Execute(`UPDATE facts SET payload = ? WHERE id = ?`, sqlengine.NewString("upd"), sqlengine.NewInt(id)); err != nil {
			b.Fatal(err)
		}
	}
}

// E20 — range DELETE on the key: an ordered range probe of the primary
// key picks the rows (kernels over the live chunks, zone maps skipping all
// but the owning chunk, before the key was an ordered index). Each
// iteration inserts four rows at the tail and deletes them again.
func BenchmarkDMLDeleteRange(b *testing.B) {
	s := dmlFacts(b, dmlRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(dmlRows + 4*i)
		b.StopTimer()
		for id := lo; id < lo+4; id++ {
			if _, err := s.Execute(`INSERT INTO facts VALUES (?, 0, 'w', 0)`, sqlengine.NewInt(id)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res, err := s.Execute(`DELETE FROM facts WHERE id >= ? AND id <= ?`, sqlengine.NewInt(lo), sqlengine.NewInt(lo+3))
		if err != nil || res.UpdateCount != 4 {
			b.Fatalf("count=%v err=%v", res, err)
		}
	}
}

// E20 — the first scan after a one-row UPDATE rebuilds one chunk, not
// the table. The UPDATE itself is outside the timer.
func BenchmarkScanAfterOneRowUpdate(b *testing.B) {
	s := dmlFacts(b, dmlRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := int64(i*7919) % dmlRows
		if _, err := s.Execute(`UPDATE facts SET num = num WHERE id = ?`, sqlengine.NewInt(id)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Execute(dmlScan); err != nil {
			b.Fatal(err)
		}
	}
}

// E33 — a WHERE with a residual lists its candidates through the kernels
// on its keys: the residual SELECTs and the full-scan DELETE, which
// matches no row, read only the chunks the zone maps keep, as the
// all-key SELECT does.
func BenchmarkResidualWhere(b *testing.B) {
	s := dmlFacts(b, dmlRows)
	for _, bc := range []struct{ name, sql string }{
		{"all_key", `SELECT COUNT(*) FROM facts WHERE num < 0`},
		{"residual", `SELECT COUNT(*) FROM facts WHERE num < 0 AND UPPER(payload) = 'X'`},
		{"like_residual", `SELECT COUNT(*) FROM facts WHERE payload LIKE 'k1%' AND UPPER(payload) = 'X'`},
		{"delete", `DELETE FROM facts WHERE num < 0`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(bc.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The bulk session is the paper's Fig. 5 path as the repository's
// benchmark drives it (bulk_indirect): a factory-made response resource,
// a rowset resource derived from it, the whole rowset pulled in
// 4 096-row windows with two in flight, both resources destroyed — here
// against an in-process daisd, so server and consumer share the process
// and the figures cover both.
const (
	bulkSessionRows   = 50000
	bulkSessionWindow = 4096
)

func bulkSession(tb testing.TB, f *fixture) {
	ctx := context.Background()
	c := f.c
	respRef, err := c.SQLExecuteFactory(ctx, f.ref, `SELECT id, payload, num FROM data WHERE id >= ?`,
		[]sqlengine.Value{sqlengine.NewInt(0)}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rowsetRef, err := c.SQLRowsetFactory(ctx, respRef, "", 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rows := 0
	err = c.FetchPages(ctx, rowsetRef, client.FetchOptions{Chunks: 2, ChunkRows: bulkSessionWindow},
		func(set *sqlengine.ResultSet) error {
			rows += len(set.Rows)
			return nil
		})
	if err != nil || rows != bulkSessionRows {
		tb.Fatalf("fetched %d rows, want %d: %v", rows, bulkSessionRows, err)
	}
	if err := c.DestroyDataResource(ctx, rowsetRef); err != nil {
		tb.Fatal(err)
	}
	if err := c.DestroyDataResource(ctx, respRef); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkBulkSession(b *testing.B) {
	f := newFixture(b, fixtureOption{rows: bulkSessionRows, stream: true})
	bulkSession(b, f) // warm: plan cache, connections, pooled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulkSession(b, f)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/bulkSessionRows, "ns/row")
}

// TestBulkSessionAllocCeiling pins what one bulk session allocates,
// server and consumer together. Garbage was the largest single cost of
// the path once — a quarter of the server's CPU went to marking it — and
// it creeps back a copy at a time: a slab per row here, a string(data)
// there, a window rendered into memory of its own. A session allocated
// 71 900 kB before rows moved in batches (EXPERIMENTS.md E21), 24 500 kB
// before windows were rendered from the buffer's pages into the reply's
// pooled buffer and the cell shrank to 40 bytes (E24), 12 900 kB before
// the scratch buffers came in two size classes (E31), and about
// 10 960 kB now: 150 000 cells, their 50 000 row headers twice (the
// server's batches, the consumer's rows) and the text. The ceiling is
// 12 900 kB and a fifth.
//
// The figure is the least of five sessions, not their mean: on top of
// what the code allocates, a session pays about 620 kB for each window
// whose reply or read finds no buffer of the large class in the pool —
// one the collector emptied, or one the other chunk fetcher holds — so
// single sessions read 10 960 to 12 200 kB with nothing changed (11 000
// to 16 200 kB while one pool served every message and a window that
// drew a small buffer paid for it twice). That noise only adds; a copy
// that creeps back is in every session and lifts the least of them too.
func TestBulkSessionAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("allocation figures under the race detector are not the program's")
	}
	const ceilingKB = 15500
	f := newFixture(t, fixtureOption{rows: bulkSessionRows, stream: true})
	bulkSession(t, f)
	const sessions = 5
	perSession, each := ^uint64(0), make([]uint64, sessions)
	for i := range each {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bulkSession(t, f)
		runtime.ReadMemStats(&after)
		each[i] = (after.TotalAlloc - before.TotalAlloc) / 1024
		perSession = min(perSession, each[i])
	}
	t.Logf("one bulk session allocates %d kB (ceiling %d kB; the five read %v kB)", perSession, ceilingKB, each)
	if perSession > ceilingKB {
		t.Fatalf("one bulk session allocates %d kB, over the ceiling of %d kB", perSession, ceilingKB)
	}
}

// E22 — the benchmark's six scan_agg statement texts (benchmark/gen.go),
// one sub-benchmark each, over its 200 000-row facts and 64-row dims:
// the per-template cost table behind the workload's cpu_ms_per_op.
func BenchmarkScanTemplates(b *testing.B) {
	const rows, groups, tags = 200000, 64, 7
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE facts (id INTEGER PRIMARY KEY, grp INTEGER, payload VARCHAR(64), num DOUBLE)`)
	eng.MustExec(`CREATE TABLE dims (id INTEGER PRIMARY KEY, name VARCHAR(32))`)
	s := eng.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(`INSERT INTO facts VALUES (?, ?, ?, ?)`, sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(i%groups)),
			sqlengine.NewString(fmt.Sprintf("k%d-%06d-payload", i%tags, i)), sqlengine.NewDouble(float64(i)*0.5)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < groups; i++ {
		eng.MustExec(`INSERT INTO dims VALUES (?, ?)`, sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("dim-%02d", i)))
	}
	num := func(i int) sqlengine.Value { return sqlengine.NewInt(int64(i)) }
	dbl := func(i int) sqlengine.Value { return sqlengine.NewDouble(float64(i)) }
	for _, tpl := range []struct {
		name, sql string
		params    func(i int) []sqlengine.Value
	}{
		{"between", `SELECT COUNT(*), SUM(num) FROM facts WHERE num BETWEEN ? AND ?`, func(i int) []sqlengine.Value {
			lo := 1 + i*7919%(rows/2-1001)
			return []sqlengine.Value{dbl(lo), dbl(lo + 1000)}
		}},
		{"like", `SELECT COUNT(*) FROM facts WHERE payload LIKE ? AND num > ?`, func(i int) []sqlengine.Value {
			return []sqlengine.Value{sqlengine.NewString(fmt.Sprintf("k%d%%", i%tags)), dbl(i % 100)}
		}},
		{"groupby", `SELECT grp, COUNT(*), SUM(num) FROM facts GROUP BY grp`, func(int) []sqlengine.Value { return nil }},
		{"interp", `SELECT SUM(num + id) FROM facts WHERE grp = ?`, func(i int) []sqlengine.Value { return []sqlengine.Value{num(i % groups)} }},
		{"join", `SELECT d.name, COUNT(*), SUM(f.num) FROM (SELECT grp, num FROM facts WHERE id BETWEEN ? AND ?) f JOIN dims d ON f.grp = d.id GROUP BY d.name`,
			func(i int) []sqlengine.Value {
				lo := i * 7919 % (rows - 2000)
				return []sqlengine.Value{num(lo), num(lo + 1999)}
			}},
		{"top", `SELECT id, num FROM facts WHERE grp = ? ORDER BY num DESC LIMIT 10`, func(i int) []sqlengine.Value { return []sqlengine.Value{num(i % groups)} }},
	} {
		b.Run(tpl.name, func(b *testing.B) {
			if _, err := s.Execute(tpl.sql, tpl.params(0)...); err != nil { // plan cached, chunks built
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(tpl.sql, tpl.params(i)...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E25 — grouped aggregation by key shape over 200 000 rows: a narrow
// integer key (64 groups), a wide one (50 000 keys spread over every
// page, about a thousand groups a page), VARCHAR and two-column keys
// (group-key bytes), no GROUP BY, MIN/MAX folds, and a primary-key range
// under GROUP BY that selects 1 % or 99 % of the rows. Each statement
// repeats over an unchanged table, so every page its WHERE passes whole
// is merged from the page's partial (E29).
func BenchmarkGroupedAggregate(b *testing.B) {
	const rows, groups, wideKeys, tags = 200000, 64, 50000, 7
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE ga (id INTEGER PRIMARY KEY, grp INTEGER, wide BIGINT, tag VARCHAR(16), num DOUBLE)`)
	s := eng.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(`INSERT INTO ga VALUES (?, ?, ?, ?, ?)`, sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(i%groups)),
			sqlengine.NewBigint(int64(i*7919%wideKeys)), sqlengine.NewString(fmt.Sprintf("tag-%d", i%tags)), sqlengine.NewDouble(float64(i)*0.5)); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct{ name, sql string }{
		{"int_dense", `SELECT grp, COUNT(*), SUM(num) FROM ga GROUP BY grp`},
		{"int_wide", `SELECT wide, COUNT(*), SUM(num) FROM ga GROUP BY wide`},
		{"varchar", `SELECT tag, COUNT(*), SUM(num) FROM ga GROUP BY tag`},
		{"two_keys", `SELECT grp, tag, COUNT(*), SUM(num) FROM ga GROUP BY grp, tag`},
		{"no_group", `SELECT COUNT(*), SUM(num), AVG(num) FROM ga`},
		{"minmax", `SELECT grp, MIN(num), MAX(num), MIN(tag), MAX(id) FROM ga GROUP BY grp`},
		{"pk_narrow", `SELECT grp, COUNT(*), SUM(num) FROM ga WHERE id BETWEEN 100000 AND 101999 GROUP BY grp`},
		{"pk_wide", `SELECT grp, COUNT(*), SUM(num) FROM ga WHERE id BETWEEN 2000 AND 199999 GROUP BY grp`},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := s.Execute(c.sql); err != nil { // plan cached, chunks built
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(c.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E26 — building a unique index: 100 000 single-row INSERTs into a table
// whose only index is its PRIMARY KEY, keys ascending or in a random
// order. A key that lands inside the index shifts one short block of it,
// not the whole index.
func BenchmarkIndexInsert(b *testing.B) {
	const rows = 100000
	for _, order := range []struct {
		name string
		keys func() []int
	}{
		{"ascending", func() []int {
			keys := make([]int, rows)
			for i := range keys {
				keys[i] = i
			}
			return keys
		}},
		{"random", func() []int { return rand.New(rand.NewSource(1)).Perm(rows) }},
	} {
		b.Run(order.name, func(b *testing.B) {
			keys := order.keys()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := sqlengine.New("bench")
				eng.MustExec(`CREATE TABLE ins (k INTEGER PRIMARY KEY, v INTEGER)`)
				s := eng.NewSession()
				for _, k := range keys {
					if _, err := s.Execute(`INSERT INTO ins VALUES (?, ?)`, sqlengine.NewInt(int64(k)), sqlengine.NewInt(int64(k))); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// E28 — bounded top-K (ORDER BY … LIMIT 10) over 200 000 rows by how
// the sort key lies across the 1 024-row pages: num rises with the row
// ID, so the zone maps put the winners in the first or last pages and the
// scan reads two of 196; unc is a permutation of the row IDs, so every
// page may hold a winner and only its filter is saved. corr_desc is
// scan_agg's top template.
func BenchmarkTopK(b *testing.B) {
	const rows, groups = 200000, 64
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE topk (id INTEGER PRIMARY KEY, grp INTEGER, num DOUBLE, unc DOUBLE)`)
	s := eng.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(`INSERT INTO topk VALUES (?, ?, ?, ?)`, sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(i%groups)),
			sqlengine.NewDouble(float64(i)*0.5), sqlengine.NewDouble(float64(i*7919%rows))); err != nil {
			b.Fatal(err)
		}
	}
	grp := func(i int) []sqlengine.Value { return []sqlengine.Value{sqlengine.NewInt(int64(i % groups))} }
	for _, c := range []struct {
		name, sql string
		params    func(i int) []sqlengine.Value
	}{
		{"corr_desc", `SELECT id, num FROM topk WHERE grp = ? ORDER BY num DESC LIMIT 10`, grp},
		{"corr_asc", `SELECT id, num FROM topk WHERE grp = ? ORDER BY num LIMIT 10`, grp},
		{"unc_filter", `SELECT id, unc FROM topk WHERE grp = ? ORDER BY unc DESC LIMIT 10`, grp},
		{"unc_all", `SELECT id, unc FROM topk ORDER BY unc DESC LIMIT 10`, func(int) []sqlengine.Value { return nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := s.Execute(c.sql, c.params(0)...); err != nil { // plan cached, chunks built
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(c.sql, c.params(i)...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
