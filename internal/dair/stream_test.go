package dair

import (
	"context"
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

// TestStreamingFactoryPagesMatchMaterialised is the integration half of
// the byte-identity requirement: the same query through a streaming
// resource and a plain materialised resource must produce identical
// GetTuples pages in every registered codec.
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
			streamSrc := NewSQLDataResource(wideEngine(t, rows), WithStreamDelivery(cfg))
			plainSrc := NewSQLDataResource(wideEngine(t, rows))
			ds := core.NewDataService("ds")
			const q = `SELECT id, station, reading FROM obs WHERE id >= 10`

			sresp, err := SQLExecuteFactory(context.Background(), streamSrc, ds, q, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sresp.stream == nil {
				t.Fatal("expected streaming delivery")
			}
			presp, err := SQLExecuteFactory(context.Background(), plainSrc, ds, q, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if presp.stream != nil {
				t.Fatal("unconfigured resource must not stream")
			}

			for _, format := range DefaultRowsetFormats() {
				srr, err := SQLRowsetFactory(context.Background(), sresp, ds, format, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				prr, err := SQLRowsetFactory(context.Background(), presp, ds, format, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, win := range [][2]int{{1, 40}, {33, 64}, {360, 100}, {1, rows}, {-3, 5}, {400, 2}} {
					got, err := srr.GetTuples(context.Background(), win[0], win[1])
					if err != nil {
						t.Fatalf("%s streaming GetTuples(%v): %v", format, win, err)
					}
					want, err := prr.GetTuples(context.Background(), win[0], win[1])
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Fatalf("%s window %v: streaming page differs from materialised", format, win)
					}
				}
				n, err := srr.FinalRowCount(context.Background())
				if err != nil || n != rows-10 {
					t.Fatalf("final count = %d, %v", n, err)
				}
			}
			if spilled := sresp.stream.buf.SpilledBytes(); spill != (spilled > 0) {
				t.Fatalf("spill=%v but %d bytes spilled", spill, spilled)
			}
			if spill && store.Count() == 0 {
				t.Fatal("spill store empty")
			}

			// The response payload itself (materialised once, from the
			// buffer) must match the plain path too.
			sset, err := sresp.GetSQLRowset(0)
			if err != nil {
				t.Fatal(err)
			}
			pset, err := presp.GetSQLRowset(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(sset.Rows) != len(pset.Rows) {
				t.Fatalf("rows %d != %d", len(sset.Rows), len(pset.Rows))
			}
			if sresp.GetSQLCommunicationArea() != presp.GetSQLCommunicationArea() {
				t.Fatalf("CA %+v != %+v", sresp.GetSQLCommunicationArea(), presp.GetSQLCommunicationArea())
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

// TestStreamingFallbacks checks each ineligibility gate takes the
// materialised path — and, for DML, that the statement runs exactly
// once.
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
		_, serr := SQLExecuteFactory(context.Background(), src, ds, `SELECT id FROM missing`, nil, nil)
		plain := NewSQLDataResource(wideEngine(t, 20))
		_, perr := SQLExecuteFactory(context.Background(), plain, ds, `SELECT id FROM missing`, nil, nil)
		if serr == nil || perr == nil {
			t.Fatalf("errs = %v, %v", serr, perr)
		}
		if fmt.Sprintf("%T", serr) != fmt.Sprintf("%T", perr) {
			t.Fatalf("fault types diverge: %T vs %T", serr, perr)
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
		if rr.RowCount() != 7 {
			t.Fatalf("rows = %d", rr.RowCount())
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
