package dair

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dais/internal/core"
	"dais/internal/filestore"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
)

func wideEngine(t testing.TB, rows int) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.New("wide")
	e.MustExec(`CREATE TABLE obs (id INTEGER PRIMARY KEY, station VARCHAR(32), reading DOUBLE)`)
	for i := 0; i < rows; i += 50 {
		stmt := "INSERT INTO obs VALUES "
		for j := i; j < i+50 && j < rows; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'st-%03d', %g)", j, j%7, float64(j)*0.25)
		}
		e.MustExec(stmt)
	}
	return e
}

// clampedRows is the GetTuples window (start, count) of rows: 1-based,
// a start below 1 read as 1, clamped to the rows there are.
func clampedRows(rows [][]sqlengine.Value, start, count int) [][]sqlengine.Value {
	from := max(start, 1) - 1
	if from >= len(rows) || count <= 0 {
		return nil
	}
	return rows[from : from+min(count, len(rows)-from)]
}

// TestStreamingFactoryPagesMatchMaterialised is the integration half of
// the byte-identity requirement: the factory chain's GetTuples pages,
// in memory and spilled, are the materialised result's rows in the
// window, rendered, in every registered codec.
func TestStreamingFactoryPagesMatchMaterialised(t *testing.T) {
	const rows = 377
	for _, spill := range []bool{false, true} {
		name := "in-memory"
		if spill {
			name = "spilled"
		}
		t.Run(name, func(t *testing.T) {
			cfg := rowset.BufferConfig{PageRows: 32}
			var store *filestore.Store
			if spill {
				store = filestore.NewStore("spill")
				cfg.MemCap = 1 // force everything to disk
				cfg.Spill = store
			}
			eng := wideEngine(t, rows)
			src := NewSQLDataResource(eng, WithStreamDelivery(cfg))
			ds := core.NewDataService("ds")
			const q = `SELECT id, station, reading FROM obs WHERE id >= 10`
			whole, err := eng.Exec(q)
			if err != nil {
				t.Fatal(err)
			}

			resp, err := SQLExecuteFactory(context.Background(), src, ds, q, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resp.stream == nil {
				t.Fatal("expected streaming delivery")
			}

			for _, format := range DefaultRowsetFormats() {
				codec, err := rowset.NewRegistry().Lookup(format)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := SQLRowsetFactory(context.Background(), resp, ds, format, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, win := range [][2]int{{1, 40}, {33, 64}, {360, 100}, {1, rows}, {-3, 5}, {400, 2}} {
					got, err := rr.GetTuples(context.Background(), win[0], win[1])
					if err != nil {
						t.Fatalf("%s GetTuples(%v): %v", format, win, err)
					}
					want := codec.AppendWindow(nil, whole.Set.Columns, clampedRows(whole.Set.Rows, win[0], win[1]))
					if string(got) != string(want) {
						t.Fatalf("%s window %v: page differs from the materialised result's", format, win)
					}
				}
				n, err := rr.FinalRowCount(context.Background())
				if err != nil || n != rows-10 {
					t.Fatalf("final count = %d, %v", n, err)
				}
			}
			if spilled := resp.stream.buf.SpilledBytes(); spill != (spilled > 0) {
				t.Fatalf("spill=%v but %d bytes spilled", spill, spilled)
			}
			if spill && store.Count() == 0 {
				t.Fatal("spill store empty")
			}

			// The response payload itself (materialised once, from the
			// buffer) must match the executed result too.
			set, err := resp.GetSQLRowset(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(set.Rows) != len(whole.Set.Rows) {
				t.Fatalf("rows %d != %d", len(set.Rows), len(whole.Set.Rows))
			}
			if ca := resp.GetSQLCommunicationArea(); ca != whole.CA {
				t.Fatalf("CA %+v != %+v", ca, whole.CA)
			}
		})
	}
}

func TestStreamingReleaseDropsSpill(t *testing.T) {
	store := filestore.NewStore("spill")
	src := NewSQLDataResource(wideEngine(t, 300),
		WithStreamDelivery(rowset.BufferConfig{PageRows: 16, MemCap: 1, Spill: store}))
	ds := core.NewDataService("ds")
	resp, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT id FROM obs`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SQLRowsetFactory(context.Background(), resp, ds, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.GetTuples(context.Background(), 1, 300); err != nil {
		t.Fatal(err)
	}
	if store.Count() == 0 {
		t.Fatal("expected spill file")
	}
	// Both holders must release before the spill file goes away.
	resp.Release()
	if store.Count() == 0 {
		t.Fatal("rowset still holds the buffer; spill must survive")
	}
	rr.Release()
	if store.Count() != 0 {
		t.Fatal("spill file leaked after last release")
	}
}

// TestStreamingFallbacks checks each statement a stream cannot serve is
// executed instead — and, for DML, that the statement runs exactly once
// — and that a query which fails to start faults without a second
// execution.
func TestStreamingFallbacks(t *testing.T) {
	store := filestore.NewStore("spill")
	cfg := rowset.BufferConfig{PageRows: 16, Spill: store, MemCap: 1 << 20}

	t.Run("sensitive", func(t *testing.T) {
		src := NewSQLDataResource(wideEngine(t, 20), WithStreamDelivery(cfg))
		ds := core.NewDataService("ds")
		c := core.DefaultConfiguration()
		c.Sensitivity = core.Sensitive
		resp, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT id FROM obs`, nil, &c)
		if err != nil {
			t.Fatal(err)
		}
		if resp.stream != nil {
			t.Fatal("sensitive resources must not stream")
		}
		// Its rowsets are copies of the executed rows, in buffers of their own.
		for count, want := range map[int]int{0: 20, 3: 3, 50: 20} {
			rr, err := SQLRowsetFactory(context.Background(), resp, ds, "", count, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := rr.FinalRowCount(context.Background()); err != nil || n != want {
				t.Fatalf("count %d: rows = %d, %v", count, n, err)
			}
		}
	})

	t.Run("dml runs once", func(t *testing.T) {
		src := NewSQLDataResource(wideEngine(t, 20), WithStreamDelivery(cfg))
		ds := core.NewDataService("ds")
		resp, err := SQLExecuteFactory(context.Background(), src, ds,
			`UPDATE obs SET reading = reading + 1 WHERE id = 0`, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.stream != nil {
			t.Fatal("DML must not stream")
		}
		n, err := resp.GetSQLUpdateCount(0)
		if err != nil || n != 1 {
			t.Fatalf("update count = %d, %v", n, err)
		}
		check, err := src.SQLExecute(context.Background(), `SELECT reading FROM obs WHERE id = 0`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := check.FirstRowset().Rows[0][0].F; got != 1 {
			t.Fatalf("reading = %g: DML executed %g times", got, got)
		}
	})

	t.Run("query errors use canonical faults", func(t *testing.T) {
		src := NewSQLDataResource(wideEngine(t, 20), WithStreamDelivery(cfg))
		ds := core.NewDataService("ds")
		_, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT id FROM missing`, nil, nil)
		var ief *core.InvalidExpressionFault
		if !errors.As(err, &ief) {
			t.Fatalf("err = %v, want InvalidExpressionFault", err)
		}
	})

	t.Run("bounded rowset copy", func(t *testing.T) {
		src := NewSQLDataResource(wideEngine(t, 100), WithStreamDelivery(cfg))
		ds := core.NewDataService("ds")
		resp, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT id FROM obs`, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := SQLRowsetFactory(context.Background(), resp, ds, "", 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := rr.FinalRowCount(context.Background()); err != nil || n != 7 {
			t.Fatalf("rows = %d, %v", n, err)
		}
	})
}

// TestStreamingTuplesWhileProducing exercises the headline behaviour:
// GetTuples answers from the front of the buffer while the engine is
// still producing the tail.
func TestStreamingTuplesWhileProducing(t *testing.T) {
	src := NewSQLDataResource(wideEngine(t, 5000),
		WithStreamDelivery(rowset.BufferConfig{PageRows: 64}))
	ds := core.NewDataService("ds")
	resp, err := SQLExecuteFactory(context.Background(), src, ds, `SELECT id, station FROM obs`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SQLRowsetFactory(context.Background(), resp, ds, rowset.FormatSQLRowset, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First page: available immediately (or after a short wait), long
	// before 5000 rows exist.
	page, err := rr.GetTuples(context.Background(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	set, err := (rowset.SQLRowsetCodec{}).Decode(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 10 || set.Rows[0][0].I != 0 {
		t.Fatalf("first page = %+v", set.Rows)
	}
	// Tail page: blocks until produced, then completes.
	page, err = rr.GetTuples(context.Background(), 4991, 10)
	if err != nil {
		t.Fatal(err)
	}
	set, err = (rowset.SQLRowsetCodec{}).Decode(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 10 || set.Rows[9][0].I != 4999 {
		t.Fatalf("tail page = %+v", set.Rows)
	}
}
