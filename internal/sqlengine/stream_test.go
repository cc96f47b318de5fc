package sqlengine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

func streamEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New("streamdb")
	e.MustExec(`CREATE TABLE items (id INTEGER PRIMARY KEY, label VARCHAR(32), num DOUBLE)`)
	for i := 0; i < rows; i += 100 {
		stmt := "INSERT INTO items VALUES "
		for j := i; j < i+100 && j < rows; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'label-%04d', %g)", j, j, float64(j)/3)
		}
		e.MustExec(stmt)
	}
	return e
}

func drain(t *testing.T, rs *RowStream) [][]Value {
	t.Helper()
	var rows [][]Value
	for {
		row, err := rs.Next()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		rows = append(rows, row)
	}
}

// TestExecuteStreamMatchesExecute checks streamed rows, columns and the
// communication area against the materialised path for a spread of
// statements — both ones the producer streams and ones that fall back.
func TestExecuteStreamMatchesExecute(t *testing.T) {
	e := streamEngine(t, 500)
	cases := []struct {
		name      string
		sql       string
		params    []Value
		streaming bool
	}{
		{"full scan", `SELECT id, label, num FROM items`, nil, true},
		{"star", `SELECT * FROM items`, nil, true},
		{"filtered", `SELECT id FROM items WHERE num > ?`, []Value{NewDouble(100)}, true},
		{"limit offset", `SELECT id FROM items LIMIT 10 OFFSET 25`, nil, true},
		{"empty result", `SELECT id FROM items WHERE id < 0`, nil, true},
		{"expression projection", `SELECT id * 2, label FROM items WHERE id < 20`, nil, true},
		{"order by falls back", `SELECT id FROM items ORDER BY num DESC LIMIT 5`, nil, false},
		{"aggregate falls back", `SELECT COUNT(*) FROM items`, nil, false},
		{"distinct falls back", `SELECT DISTINCT label FROM items WHERE id < 3`, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := e.NewSession().Execute(tc.sql, tc.params...)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := e.NewSession().ExecuteStream(context.Background(), tc.sql, tc.params...)
			if err != nil {
				t.Fatal(err)
			}
			if stream.Streaming() != tc.streaming {
				t.Fatalf("Streaming() = %v, want %v", stream.Streaming(), tc.streaming)
			}
			gotRows := drain(t, stream)
			res, err := stream.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(gotRows) != len(want.Set.Rows) {
				t.Fatalf("rows = %d, want %d", len(gotRows), len(want.Set.Rows))
			}
			if len(stream.Columns()) != len(want.Set.Columns) {
				t.Fatalf("columns = %d, want %d", len(stream.Columns()), len(want.Set.Columns))
			}
			for i, c := range stream.Columns() {
				if c != want.Set.Columns[i] {
					t.Fatalf("column %d = %+v, want %+v", i, c, want.Set.Columns[i])
				}
			}
			for i := range gotRows {
				for j := range gotRows[i] {
					if gotRows[i][j].String() != want.Set.Rows[i][j].String() {
						t.Fatalf("row %d col %d = %v, want %v", i, j, gotRows[i][j], want.Set.Rows[i][j])
					}
				}
			}
			if res.CA != want.CA {
				t.Fatalf("CA = %+v, want %+v", res.CA, want.CA)
			}
		})
	}
}

func TestExecuteStreamSetupErrors(t *testing.T) {
	e := streamEngine(t, 10)
	for _, sql := range []string{
		`SELECT id FROM missing`,
		`SELECT id FROM items LIMIT 'abc'`,
		`SELECT nosuch FROM items`, // no plan: executed, and fails, before the stream opens
	} {
		if _, err := e.NewSession().ExecuteStream(context.Background(), sql); err == nil {
			t.Fatalf("%s: expected setup error", sql)
		}
	}
	// Setup errors must not leave locks behind: a write must proceed.
	done := make(chan error, 1)
	go func() {
		_, err := e.NewSession().Execute(`INSERT INTO items VALUES (1000, 'x', 1)`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked: stream setup leaked locks")
	}
}

func TestExecuteStreamCancel(t *testing.T) {
	// Enough rows that the producer is still blocked on a batch hand-off
	// when the cancellation lands.
	e := streamEngine(t, 10000)
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := e.NewSession().ExecuteStream(ctx, `SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Drain until the cancellation surfaces.
	var lastErr error
	for {
		_, err := stream.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == io.EOF {
		t.Fatal("expected cancellation error, got clean EOF")
	}
	var ce *CancelledError
	if !asCancelled(lastErr, &ce) {
		t.Fatalf("err = %v, want CancelledError", lastErr)
	}
	// Locks must be released after the producer dies.
	if _, err := e.NewSession().Execute(`INSERT INTO items VALUES (99999, 'y', 2)`); err != nil {
		t.Fatal(err)
	}
}

func asCancelled(err error, target **CancelledError) bool {
	for err != nil {
		if ce, ok := err.(*CancelledError); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestExecuteStreamCloseReleasesLocks(t *testing.T) {
	e := streamEngine(t, 2000)
	stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := e.NewSession().Execute(`UPDATE items SET num = 0 WHERE id = 5`); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteStreamBackpressure(t *testing.T) {
	// A consumer that never drains must not force the producer to
	// materialise: production stalls at the channel depth.
	e := streamEngine(t, 10000)
	stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-stream.done:
		// The producer raced through 10k rows into a one-batch channel
		// with nobody receiving, which cannot happen.
		t.Fatal("producer finished without a consumer: no backpressure")
	default:
	}
}

func TestExecuteStreamInsideTxnFallsBack(t *testing.T) {
	e := streamEngine(t, 50)
	s := e.NewSession()
	if _, err := s.Execute(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	stream, err := s.ExecuteStream(context.Background(), `SELECT id FROM items WHERE id < 5`)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Streaming() {
		t.Fatal("streams must not run inside explicit transactions")
	}
	if got := len(drain(t, stream)); got != 5 {
		t.Fatalf("rows = %d", got)
	}
	if _, err := s.Execute(`COMMIT`); err != nil {
		t.Fatal(err)
	}
}

// cloneRows deep-copies delivered rows, strings included.
func cloneRows(rows [][]Value) [][]Value {
	out := make([][]Value, len(rows))
	for i, r := range rows {
		out[i] = append([]Value(nil), r...)
		for j := range out[i] {
			out[i][j].S = strings.Clone(out[i][j].S)
		}
	}
	return out
}

func sameRows(a, b [][]Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, want %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if x, y := a[i][j], b[i][j]; x.Type != y.Type || x.I != y.I || x.F != y.F || x.S != y.S || x.B != y.B {
				return fmt.Errorf("row %d col %d is now %+v, was delivered as %+v", i, j, x, y)
			}
		}
	}
	return nil
}

// TestStreamedRowsSurviveLaterWrites: an identity projection streams the
// table's stored row images uncopied, which is sound only because the
// engine replaces an image and never writes into one. Whatever happens
// to the rows after they were delivered — UPDATE, DELETE, a rolled-back
// transaction, index DDL — what the consumer holds must not change.
func TestStreamedRowsSurviveLaterWrites(t *testing.T) {
	for _, sql := range []string{
		`SELECT * FROM items`,                             // chunk scan
		`SELECT id, label, num FROM items WHERE id >= 0`,  // ordered-index range, filter satisfied
		`SELECT id, label, num FROM items WHERE num >= 0`, // chunk scan behind a kernel filter
	} {
		e := streamEngine(t, 3000)
		e.MustExec(`CREATE ORDERED INDEX items_id_ord ON items (id)`)
		stream, err := e.NewSession().ExecuteStream(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		held := drain(t, stream)
		if len(held) != 3000 {
			t.Fatalf("%s: %d rows", sql, len(held))
		}
		delivered := cloneRows(held)
		s := e.NewSession()
		for _, write := range []string{
			`UPDATE items SET label = 'overwritten', num = -1 WHERE id < 2000`,
			`DELETE FROM items WHERE id >= 1000 AND id < 2500`,
			`BEGIN`,
			`UPDATE items SET label = 'doomed' WHERE id < 500`,
			`DELETE FROM items WHERE id >= 2500`,
			`ROLLBACK`,
			`CREATE INDEX items_label ON items (label)`,
			`DROP INDEX items_id_ord`,
			`INSERT INTO items VALUES (1500, 'reborn', 1)`,
		} {
			if _, err := s.Execute(write); err != nil {
				t.Fatalf("%s: %v", write, err)
			}
		}
		if err := sameRows(held, delivered); err != nil {
			t.Fatalf("%s: a delivered row changed under a later write: %v", sql, err)
		}
	}
}
