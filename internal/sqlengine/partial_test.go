package sqlengine

import (
	"fmt"
	"sync"
	"testing"
)

// partialReads are grouped reads a page's partial can answer: no WHERE,
// and a WHERE the zone maps decide true on every page.
var partialReads = []string{
	`SELECT g, COUNT(*), SUM(b), AVG(b), MIN(b), MAX(c), SUM(c), AVG(c), COUNT(b) FROM t GROUP BY g`,
	`SELECT COUNT(*), SUM(b), AVG(b), MIN(c), MAX(b) FROM t`,
	`SELECT g, COUNT(*), SUM(b) FROM t WHERE id >= 0 GROUP BY g`,
}

// partialTable is a three-page table whose DOUBLE column b mixes pages
// with a fixed scale (quarters) and pages without one (tenths).
func partialTable(t *testing.T) *Engine {
	t.Helper()
	e := New("partials")
	e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, b DOUBLE, c INTEGER, s VARCHAR(8))`)
	s := e.NewSession()
	for i := 0; i < 2*chunkRows+400; i++ {
		b := NewDouble(float64(i) * 0.25)
		if i/chunkRows == 1 {
			b = NewDouble(float64(i) * 0.1)
		}
		if i%97 == 0 {
			b = Null
		}
		if _, err := s.Execute(`INSERT INTO t VALUES (?, ?, ?, ?, 'x')`, NewInt(int64(i)), NewInt(int64(i%13)), b, NewInt(int64(i*7%101))); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// checkPartialReads runs the grouped reads on e — on every path, so
// against the row operators and the oracle — and on a fresh engine
// loaded with e's rows, and requires the same bytes.
func checkPartialReads(t *testing.T, e *Engine, when string) {
	t.Helper()
	rows, err := e.NewSession().Execute(`SELECT id, g, b, c, s FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New("fresh")
	fresh.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, b DOUBLE, c INTEGER, s VARCHAR(8))`)
	fs := fresh.NewSession()
	for _, r := range rows.Set.Rows {
		if _, err := fs.Execute(`INSERT INTO t VALUES (?, ?, ?, ?, ?)`, r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range partialReads {
		got := dumpSet(execAllPaths(t, e, sql))
		res, err := fresh.NewSession().Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want := dumpSet(res.Set); got != want {
			t.Fatalf("%s: %s:\n%s\na fresh engine with the same rows:\n%s", when, sql, got, want)
		}
	}
}

// TestPagePartialsFollowWrites holds the page partials to every kind of
// write: an INSERT that joins the tail page in place, an UPDATE of a
// grouping key, of a summed column and of a column no read touches, a
// DELETE, the rollback of each, and index DDL (which no transaction
// holds). Before and after each, the grouped reads — which fill and reuse
// the partials — answer what a fresh engine loaded with the same rows
// answers, and what the row operators and the oracle answer.
func TestPagePartialsFollowWrites(t *testing.T) {
	writes := []struct {
		name string
		sql  []string
	}{
		{"insert into the tail page", []string{`INSERT INTO t VALUES (100000, 3, 0.3, 5, 'y')`}},
		{"update the key", []string{`UPDATE t SET g = 99 WHERE id = 5`}},
		{"update a summed column", []string{`UPDATE t SET b = b + 0.1, c = c - 1000 WHERE id BETWEEN 1500 AND 1510`}},
		{"update an unrelated column", []string{`UPDATE t SET s = 'z' WHERE id = 7`}},
		{"delete", []string{`DELETE FROM t WHERE id % 50 = 3`}},
		{"create and drop an index", []string{`CREATE INDEX t_g ON t (g)`}},
	}
	for _, w := range writes {
		for _, rollback := range []bool{false, true} {
			ddl := w.name == "create and drop an index"
			if ddl && rollback {
				continue
			}
			t.Run(fmt.Sprintf("%s/rollback=%v", w.name, rollback), func(t *testing.T) {
				e := partialTable(t)
				checkPartialReads(t, e, "before")
				s := e.NewSession()
				stmts := w.sql
				if rollback {
					stmts = append(append([]string{`BEGIN`}, stmts...), `ROLLBACK`)
				}
				for _, sql := range stmts {
					if _, err := s.Execute(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				checkPartialReads(t, e, "after "+w.name)
				if ddl {
					e.MustExec(`DROP INDEX t_g`)
					checkPartialReads(t, e, "after DROP INDEX")
				}
			})
		}
	}
}

// TestPagePartialsReused pins the reuse the partials exist for: a
// grouped read of an unchanged table answers every page from its
// partial, a write drops the partials of the pages it touches, and a read
// with a WHERE the zone maps leave undecided reads rows.
func TestPagePartialsReused(t *testing.T) {
	e := partialTable(t)
	read := func(sql string) uint64 {
		t.Helper()
		before := e.VectorStats().PartialsReused
		if _, err := e.NewSession().Execute(sql); err != nil {
			t.Fatal(err)
		}
		return e.VectorStats().PartialsReused - before
	}
	const grouped = `SELECT g, COUNT(*), SUM(b) FROM t GROUP BY g`
	if n := read(grouped); n != 0 {
		t.Fatalf("first read reused %d partials, want 0", n)
	}
	if n := read(grouped); n != 3 {
		t.Fatalf("second read reused %d partials, want all 3 pages", n)
	}
	e.MustExec(`UPDATE t SET b = 1 WHERE id = 3`)
	if n := read(grouped); n != 2 {
		t.Fatalf("after a write to one page, reused %d partials, want 2", n)
	}
	if n := read(`SELECT g, COUNT(*), SUM(b) FROM t WHERE id < 1500 GROUP BY g`); n != 1 {
		t.Fatalf("a WHERE that cuts the second page reused %d partials, want 1 (the first page)", n)
	}
	for _, sql := range []string{`SELECT g, COUNT(*), SUM(b + 1) FROM t GROUP BY g`, `SELECT g, SUM(b * 2), COUNT(*) FROM t GROUP BY g`} {
		for i := 0; i < 2; i++ {
			if n := read(sql); n != 0 {
				t.Fatalf("%s: a computed argument reused %d partials, want 0", sql, n)
			}
		}
	}
}

// TestPagePartialsConcurrentFill has readers fill and reuse the same
// pages' partials at once, under the shared latch; run with -race. Every
// answer is the row operators'.
func TestPagePartialsConcurrentFill(t *testing.T) {
	e := partialTable(t)
	const sql = `SELECT g, COUNT(*), SUM(b), AVG(b), MIN(c) FROM t GROUP BY g`
	e.SetVectorDisabled(true)
	want := dumpSet(e.MustExec(sql).Set)
	e.SetVectorDisabled(false)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := e.NewSession().Execute(sql)
				if err != nil {
					errs <- err
					return
				}
				if got := dumpSet(res.Set); got != want {
					errs <- fmt.Errorf("concurrent grouped read:\n%s\nrow operators:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
