package service_test

// Streaming-delivery tests at the service boundary: GetTuples edge
// cases over HTTP against rowsets copied from an executed response and
// rowsets streamed through a spilling buffer, and the stream-chaos
// proof — a chunked, fault-injected fetch of a spilled resource that
// must reassemble byte-identically with the retries visible in
// telemetry.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/filestore"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/wsaddr"
)

// streamingFixture hosts a relational endpoint whose resource streams
// results through a spilling buffer, seeded with rows numbered
// 0..rows-1.
func streamingFixture(t testing.TB, rows int, memCap int64) (client.ResourceRef, *filestore.Store, *telemetry.Observer) {
	t.Helper()
	eng := sqlengine.New("big")
	eng.MustExec(`CREATE TABLE pts (id INTEGER PRIMARY KEY, tag VARCHAR(32), v DOUBLE)`)
	for i := 0; i < rows; i += 500 {
		stmt := "INSERT INTO pts VALUES "
		for j := i; j < i+500 && j < rows; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'tag-%03d', %g)", j, j%11, float64(j)*0.5)
		}
		eng.MustExec(stmt)
	}
	obs := telemetry.NewObserver()
	store := filestore.NewStore("rowset-spill")
	res := dair.NewSQLDataResource(eng, dair.WithStreamDelivery(rowset.BufferConfig{
		PageRows: 1024,
		MemCap:   memCap,
		Spill:    store,
		Hooks:    service.RowsetStreamHooks(obs.Registry),
	}))
	svc := core.NewDataService("relational", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithTelemetry(obs))
	ep.Register(res)
	startEndpoint(t, ep)
	return client.Ref(svc.Address(), res.AbstractName()), store, obs
}

// indirectRowset drives the two factory hops and returns the rowset
// resource ref.
func indirectRowset(t testing.TB, c *client.Client, ref client.ResourceRef, query string) client.ResourceRef {
	t.Helper()
	ctx := context.Background()
	respRef, err := c.SQLExecuteFactory(ctx, ref, query, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowsetRef, err := c.SQLRowsetFactory(ctx, respRef, rowset.FormatSQLRowset, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rowsetRef
}

// TestGetTuplesEdgeCasesOverHTTP drives the normalisation table through
// the full wire path, against the two ways rows enter a derived rowset's
// buffer — "materialised": a resource under consumer-controlled
// transactions executes the query, and the rowset holds a copy of its
// rows in memory; "streaming": the engine streams into a buffer that
// spills — the edge semantics must not depend on the delivery path.
func TestGetTuplesEdgeCasesOverHTTP(t *testing.T) {
	const rows = 50
	fixtures := map[string]client.ResourceRef{}
	{
		eng := sqlengine.New("flat")
		eng.MustExec(`CREATE TABLE pts (id INTEGER PRIMARY KEY, tag VARCHAR(32), v DOUBLE)`)
		for i := 0; i < rows; i++ {
			eng.MustExec(fmt.Sprintf(`INSERT INTO pts VALUES (%d, 'tag-%03d', %g)`, i, i%11, float64(i)*0.5))
		}
		res := dair.NewSQLDataResource(eng, dair.WithConfiguration(core.Configuration{
			Readable: true, Writeable: true,
			TransactionInitiation: core.TransactionConsumerControlled,
			TransactionIsolation:  sqlengine.ReadCommitted.String(),
		}))
		svc := core.NewDataService("relational", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
		ep := service.NewEndpoint(svc)
		ep.Register(res)
		startEndpoint(t, ep)
		fixtures["materialised"] = client.Ref(svc.Address(), res.AbstractName())
	}
	{
		ref, _, _ := streamingFixture(t, rows, 1)
		fixtures["streaming"] = ref
	}

	for name, ref := range fixtures {
		t.Run(name, func(t *testing.T) {
			c := client.New(nil)
			ctx := context.Background()
			rowsetRef := indirectRowset(t, c, ref, `SELECT id, tag FROM pts`)

			cases := []struct {
				name      string
				start     int
				count     int
				wantRows  int
				wantFirst int64
				wantFault bool
			}{
				{name: "plain window", start: 11, count: 5, wantRows: 5, wantFirst: 10},
				{name: "negative count faults", start: 1, count: -3, wantFault: true},
				{name: "zero count empty page", start: 5, count: 0, wantRows: 0},
				{name: "start clamps to one", start: -9, count: 2, wantRows: 2, wantFirst: 0},
				{name: "start past end empty page", start: rows + 10, count: 4, wantRows: 0},
				{name: "window overlapping the end truncates", start: rows - 1, count: 10, wantRows: 2, wantFirst: int64(rows - 2)},
				{name: "huge count reads to the end", start: 2, count: math.MaxInt, wantRows: rows - 1, wantFirst: 1},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					set, err := c.GetTuplesSet(ctx, rowsetRef, tc.start, tc.count)
					if tc.wantFault {
						var ief *core.InvalidExpressionFault
						if !errors.As(err, &ief) {
							t.Fatalf("err = %v, want InvalidExpressionFault", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(set.Rows) != tc.wantRows {
						t.Fatalf("rows = %d, want %d", len(set.Rows), tc.wantRows)
					}
					if tc.wantRows > 0 && set.Rows[0][0].I != tc.wantFirst {
						t.Fatalf("first id = %d, want %d", set.Rows[0][0].I, tc.wantFirst)
					}
				})
			}

			// Absent Count on the wire means "rest of the resource" —
			// the typed client always sends Count, so go one level down.
			req := ops.GetTuples.NewRequest(rowsetRef.AbstractName)
			req.AddText(ops.GetTuples.NS, "StartPosition", "41")
			env := soap.NewEnvelope(req)
			h := &wsaddr.MessageHeaders{
				To:        rowsetRef.Address,
				Action:    ops.GetTuples.Action,
				MessageID: wsaddr.NewMessageID(),
				ReplyTo:   wsaddr.NewEPR(wsaddr.AnonymousURI),
			}
			h.Attach(env)
			resp, err := soap.NewClient(nil).Call(ctx, rowsetRef.Address, ops.GetTuples.Action, env)
			if err != nil {
				t.Fatal(err)
			}
			data, format := ops.DatasetPayload(resp.BodyEntry().Find(core.NSDAI, "Dataset"))
			set, err := (rowset.SQLRowsetCodec{}).Decode(data)
			if err != nil {
				t.Fatalf("decode %s payload: %v", format, err)
			}
			if len(set.Rows) != 10 || set.Rows[0][0].I != 40 {
				t.Fatalf("absent count page = %d rows, first %v", len(set.Rows), set.Rows[0])
			}

			// E4: paging to the first short page takes rows/page + 1
			// calls, and bigger pages move fewer bytes in all.
			var wire [2]int64
			for i, page := range []int{1, 25} {
				pc := client.New(nil)
				calls, got := 0, 0
				for pos := 1; ; pos += page {
					set, err := pc.GetTuplesSet(ctx, rowsetRef, pos, page)
					if err != nil {
						t.Fatal(err)
					}
					calls, got = calls+1, got+len(set.Rows)
					if len(set.Rows) < page {
						break
					}
				}
				if calls != rows/page+1 || got != rows {
					t.Errorf("page %d: %d calls for %d rows, want %d calls for %d", page, calls, got, rows/page+1, rows)
				}
				wire[i] = pc.BytesReceived()
			}
			if wire[1] >= wire[0] {
				t.Errorf("25-row pages moved %d bytes, 1-row pages %d", wire[1], wire[0])
			}
		})
	}
}

// TestStreamChaos is the acceptance run for resumable chunked fetch: a
// 100k-row result streamed through a 1-byte memory cap (everything
// spills), fetched with 8 parallel GetTuples windows through a
// transport injecting 10% drop/corrupt/busy faults. The reassembled
// result must equal the calm sequential fetch exactly, with the
// injected faults absorbed by per-chunk idempotent retries that are
// visible in dais_retries_total.
func TestStreamChaos(t *testing.T) {
	const rows = 100_000
	ref, store, _ := streamingFixture(t, rows, 1)
	ctx := context.Background()

	calm := client.New(nil)
	rowsetRef := indirectRowset(t, calm, ref, `SELECT id, tag, v FROM pts`)

	base, err := calm.FetchRowset(ctx, rowsetRef, client.FetchOptions{Chunks: 1, ChunkRows: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != rows {
		t.Fatalf("baseline rows = %d, want %d", len(base.Rows), rows)
	}
	if store.Count() == 0 {
		t.Fatal("resource did not spill; the test must cover the paged-back path")
	}

	obs := telemetry.NewObserver()
	chaotic, ft := chaosClient(t, obs, chaosPlan(17), resil.BreakerConfig{}, 8)
	got, err := chaotic.FetchRowset(ctx, rowsetRef, client.FetchOptions{Chunks: 8, ChunkRows: 4096})
	if err != nil {
		t.Fatalf("chunked fetch under chaos: %v", err)
	}
	if len(got.Rows) != rows {
		t.Fatalf("chaos rows = %d, want %d", len(got.Rows), rows)
	}
	if !reflect.DeepEqual(got, base) {
		for i := range base.Rows {
			if !reflect.DeepEqual(got.Rows[i], base.Rows[i]) {
				t.Fatalf("row %d diverged under chaos: %v != %v", i, got.Rows[i], base.Rows[i])
			}
		}
		t.Fatal("result diverged under chaos")
	}
	if ft.InjectedTotal() == 0 {
		t.Fatal("no faults injected — the chaos run proves nothing")
	}
	var retries float64
	for _, s := range obs.Registry.Snapshot() {
		if s.Name == resil.MetricRetries {
			retries += s.Value
		}
	}
	if retries == 0 {
		t.Fatal("faults injected but dais_retries_total is zero")
	}
	t.Logf("injected=%d retries=%g spillFiles=%d", ft.InjectedTotal(), retries, store.Count())
}
