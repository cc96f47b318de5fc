package sqlengine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// seedIndexed builds a table with an indexed and an unindexed column
// holding identical data, so results through both access paths can be
// compared.
func seedIndexed(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New("idx")
	e.MustExec(`CREATE TABLE d (id INTEGER PRIMARY KEY, grp INTEGER, grp_noix INTEGER, label VARCHAR(32))`)
	e.MustExec(`CREATE INDEX ix_grp ON d (grp)`)
	s := e.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(`INSERT INTO d VALUES (?, ?, ?, ?)`,
			NewInt(int64(i)), NewInt(int64(i%10)), NewInt(int64(i%10)),
			NewString(fmt.Sprintf("row-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestIndexPathMatchesScan(t *testing.T) {
	e := seedIndexed(t, 500)
	queries := [][2]string{
		{`SELECT id FROM d WHERE grp = 3 ORDER BY id`, `SELECT id FROM d WHERE grp_noix = 3 ORDER BY id`},
		{`SELECT COUNT(*) FROM d WHERE grp = 7`, `SELECT COUNT(*) FROM d WHERE grp_noix = 7`},
		{`SELECT id FROM d WHERE grp = 2 AND id > 100 ORDER BY id`, `SELECT id FROM d WHERE grp_noix = 2 AND id > 100 ORDER BY id`},
		{`SELECT id FROM d WHERE 4 = grp ORDER BY id`, `SELECT id FROM d WHERE 4 = grp_noix ORDER BY id`},
		{`SELECT label FROM d WHERE grp = 99`, `SELECT label FROM d WHERE grp_noix = 99`}, // no matches
	}
	for _, q := range queries {
		a := queryStrings(t, e, q[0])
		b := queryStrings(t, e, q[1])
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows vs %d", q[0], len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: row %d differs: %v vs %v", q[0], i, a[i], b[i])
				}
			}
		}
	}
}

func TestIndexPathWithParams(t *testing.T) {
	e := seedIndexed(t, 200)
	rows := queryStrings(t, e, `SELECT COUNT(*) FROM d WHERE grp = ?`, NewInt(5))
	if rows[0][0] != "20" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestIndexPathWithAlias(t *testing.T) {
	e := seedIndexed(t, 100)
	rows := queryStrings(t, e, `SELECT t.id FROM d t WHERE t.grp = 1 ORDER BY t.id LIMIT 2`)
	if len(rows) != 2 || rows[0][0] != "1" || rows[1][0] != "11" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestIndexPathTypeCoercion(t *testing.T) {
	e := New("c")
	e.MustExec(`CREATE TABLE p (v DOUBLE)`)
	e.MustExec(`CREATE INDEX ix_v ON p (v)`)
	e.MustExec(`INSERT INTO p VALUES (5), (5.0), (6)`)
	// Integer literal against DOUBLE column must still hit the index.
	rows := queryStrings(t, e, `SELECT COUNT(*) FROM p WHERE v = 5`)
	if rows[0][0] != "2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestIndexPathSeesUpdatesAndDeletes(t *testing.T) {
	e := seedIndexed(t, 50)
	e.MustExec(`UPDATE d SET grp = 42 WHERE id = 3`)
	rows := queryStrings(t, e, `SELECT id FROM d WHERE grp = 42`)
	if len(rows) != 1 || rows[0][0] != "3" {
		t.Fatalf("rows = %v", rows)
	}
	// Old bucket no longer contains the row.
	rows = queryStrings(t, e, `SELECT COUNT(*) FROM d WHERE grp = 3`)
	if rows[0][0] != "4" { // was 5 per group of 50/10, one moved away
		t.Fatalf("rows = %v", rows)
	}
	e.MustExec(`DELETE FROM d WHERE id = 13`)
	rows = queryStrings(t, e, `SELECT COUNT(*) FROM d WHERE grp = 3`)
	if rows[0][0] != "3" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPrimaryKeyIndexUsedForPointLookups(t *testing.T) {
	e := seedIndexed(t, 100)
	rows := queryStrings(t, e, `SELECT label FROM d WHERE id = 42`)
	if len(rows) != 1 || rows[0][0] != "row-42" {
		t.Fatalf("rows = %v", rows)
	}
}

// Property: the index path and a full scan agree for random data and
// random probes.
func TestQuickIndexEquivalence(t *testing.T) {
	f := func(vals []int16, probe int16) bool {
		e := New("q")
		e.MustExec(`CREATE TABLE d (a INTEGER, b INTEGER)`)
		e.MustExec(`CREATE INDEX ix_a ON d (a)`)
		s := e.NewSession()
		for _, v := range vals {
			if _, err := s.Execute(`INSERT INTO d VALUES (?, ?)`,
				NewInt(int64(v%50)), NewInt(int64(v%50))); err != nil {
				return false
			}
		}
		p := NewInt(int64(probe % 50))
		ra, err := e.Exec(`SELECT COUNT(*) FROM d WHERE a = ?`, p)
		if err != nil {
			return false
		}
		rb, err := e.Exec(`SELECT COUNT(*) FROM d WHERE b = ?`, p)
		if err != nil {
			return false
		}
		return ra.Set.Rows[0][0].I == rb.Set.Rows[0][0].I
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// seedBothIndexed extends the twin-column harness to both spellings of
// CREATE INDEX: hv carries a plain index, ov an ORDERED one (the same
// ordered index since there is one kind), and each has an unindexed
// twin holding identical data.
func seedBothIndexed(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New("idx2")
	e.MustExec(`CREATE TABLE m (id INTEGER PRIMARY KEY, hv INTEGER, hv_noix INTEGER, ov INTEGER, ov_noix INTEGER)`)
	e.MustExec(`CREATE INDEX ix_hv ON m (hv)`)
	e.MustExec(`CREATE ORDERED INDEX ox_ov ON m (ov)`)
	s := e.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(`INSERT INTO m VALUES (?, ?, ?, ?, ?)`,
			NewInt(int64(i)), NewInt(int64(i%10)), NewInt(int64(i%10)),
			NewInt(int64(i%25)), NewInt(int64(i%25))); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// assertIndexesConsistent compares every indexed access path against
// its unindexed twin: hash point lookups, ordered point/range lookups
// and index-satisfied ORDER BY must all agree with the scan answer.
func assertIndexesConsistent(t *testing.T, e *Engine) {
	t.Helper()
	queries := [][2]string{
		{`SELECT id FROM m WHERE hv = 3 ORDER BY id`, `SELECT id FROM m WHERE hv_noix = 3 ORDER BY id`},
		{`SELECT COUNT(*) FROM m WHERE hv = 7`, `SELECT COUNT(*) FROM m WHERE hv_noix = 7`},
		{`SELECT id FROM m WHERE ov = 12 ORDER BY id`, `SELECT id FROM m WHERE ov_noix = 12 ORDER BY id`},
		{`SELECT id, ov FROM m WHERE ov > 5 AND ov <= 11 ORDER BY id`, `SELECT id, ov_noix FROM m WHERE ov_noix > 5 AND ov_noix <= 11 ORDER BY id`},
		{`SELECT id, ov FROM m WHERE ov BETWEEN 20 AND 24 ORDER BY id`, `SELECT id, ov_noix FROM m WHERE ov_noix BETWEEN 20 AND 24 ORDER BY id`},
		{`SELECT id FROM m ORDER BY ov, id`, `SELECT id FROM m ORDER BY ov_noix, id`},
		{`SELECT COUNT(*) FROM m WHERE ov < 0`, `SELECT COUNT(*) FROM m WHERE ov_noix < 0`},
	}
	for _, q := range queries {
		a := queryStrings(t, e, q[0])
		b := queryStrings(t, e, q[1])
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows vs %d", q[0], len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: row %d differs: %v vs %v", q[0], i, a[i], b[i])
				}
			}
		}
	}
}

// TestIndexMaintenanceUnderUpdateDelete churns committed DML through
// both index kinds and re-checks indexed-vs-scan agreement after every
// batch: moves between buckets, moves to NULL and back, and deletes.
func TestIndexMaintenanceUnderUpdateDelete(t *testing.T) {
	e := seedBothIndexed(t, 300)
	assertIndexesConsistent(t, e)

	e.MustExec(`UPDATE m SET hv = 42, hv_noix = 42 WHERE id % 7 = 0`)
	e.MustExec(`UPDATE m SET ov = ov + 100, ov_noix = ov_noix + 100 WHERE id % 5 = 0`)
	assertIndexesConsistent(t, e)

	e.MustExec(`UPDATE m SET ov = NULL, ov_noix = NULL WHERE id % 11 = 0`)
	e.MustExec(`UPDATE m SET hv = NULL, hv_noix = NULL WHERE id % 13 = 0`)
	assertIndexesConsistent(t, e)

	e.MustExec(`UPDATE m SET ov = 3, ov_noix = 3 WHERE ov = NULL OR id % 11 = 0`)
	e.MustExec(`DELETE FROM m WHERE id % 3 = 0`)
	assertIndexesConsistent(t, e)

	e.MustExec(`DELETE FROM m WHERE ov > 100`)
	assertIndexesConsistent(t, e)
}

// TestIndexMaintenanceUnderRollback aborts a transaction full of
// inserts, updates and deletes, then verifies both index kinds were
// rolled back in lockstep with the table: contents match the
// pre-transaction snapshot and every access path still agrees with its
// scan twin.
func TestIndexMaintenanceUnderRollback(t *testing.T) {
	e := seedBothIndexed(t, 200)
	snapshot := func() [][]string {
		return queryStrings(t, e, `SELECT id, hv, ov FROM m ORDER BY id`)
	}
	before := snapshot()

	s := e.NewSession()
	for _, sql := range []string{
		`BEGIN`,
		`UPDATE m SET hv = 77 WHERE id < 50`,
		`UPDATE m SET ov = NULL WHERE id >= 50 AND id < 100`,
		`DELETE FROM m WHERE id >= 100 AND id < 150`,
		`INSERT INTO m VALUES (9001, 1, 1, 1, 1)`,
		`ROLLBACK`,
	} {
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("rollback changed row count: %d -> %d", len(before), len(after))
	}
	for i := range after {
		for j := range after[i] {
			if after[i][j] != before[i][j] {
				t.Fatalf("row %d changed across rollback: %v vs %v", i, after[i], before[i])
			}
		}
	}
	assertIndexesConsistent(t, e)

	// The aborted insert must be gone from both index paths.
	for _, q := range []string{
		`SELECT COUNT(*) FROM m WHERE id = 9001`,
		`SELECT COUNT(*) FROM m WHERE hv = 77`,
	} {
		if rows := queryStrings(t, e, q); rows[0][0] != "0" {
			t.Fatalf("%s = %v after rollback", q, rows)
		}
	}
}

// TestIndexMaintenanceCommitAfterRollback makes sure an aborted
// transaction leaves the indexes usable: a following committed
// transaction lands in both index kinds normally.
func TestIndexMaintenanceCommitAfterRollback(t *testing.T) {
	e := seedBothIndexed(t, 60)
	s := e.NewSession()
	for _, sql := range []string{
		`BEGIN`, `UPDATE m SET ov = 500 WHERE id = 1`, `ROLLBACK`,
		`BEGIN`, `UPDATE m SET ov = 500, ov_noix = 500 WHERE id = 2`, `COMMIT`,
	} {
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	rows := queryStrings(t, e, `SELECT id FROM m WHERE ov = 500`)
	if len(rows) != 1 || rows[0][0] != "2" {
		t.Fatalf("committed update via ordered index = %v", rows)
	}
	rows = queryStrings(t, e, `SELECT id FROM m WHERE ov BETWEEN 499 AND 501`)
	if len(rows) != 1 || rows[0][0] != "2" {
		t.Fatalf("range over ordered index = %v", rows)
	}
	assertIndexesConsistent(t, e)
}

func BenchmarkIndexLookupVsScan(b *testing.B) {
	e := seedIndexed(b, 10000)
	b.Run("indexed", func(b *testing.B) {
		s := e.NewSession()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(`SELECT COUNT(*) FROM d WHERE grp = 3`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		s := e.NewSession()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(`SELECT COUNT(*) FROM d WHERE grp_noix = 3`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestIndexProbeMatchesWalk: an index answers a probe only under the
// comparison the walk would make. A key Compare cannot order against the
// column — a VARCHAR against an INTEGER key, an integer against a VARCHAR
// one — widens the access, and every path then raises the walk's error,
// whether the probe would have found a row or not.
func TestIndexProbeMatchesWalk(t *testing.T) {
	e := New("probe")
	e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(8) UNIQUE)`)
	e.MustExec(`INSERT INTO t VALUES (1, 'a'), (2, '7')`)
	for _, sql := range []string{
		`SELECT v FROM t WHERE id = '7'`,
		`SELECT v FROM t WHERE id = '1'`,
		`SELECT DISTINCT v FROM t WHERE id = '7'`,
		`SELECT id FROM t WHERE v = 7`,
	} {
		execAllPaths(t, e, sql)
		if _, err := e.Exec(sql); err == nil || !strings.Contains(err.Error(), "cannot compare") {
			t.Fatalf("%s: err = %v, want the walk's comparison error", sql, err)
		}
	}
}

// TestUniqueDoubleKeys: uniqueness is the equality = uses, so -0 collides
// with 0; NaN, which the index keeps apart from every other key, collides
// only with NaN, on INSERT and on UPDATE alike.
func TestUniqueDoubleKeys(t *testing.T) {
	e := New("dbl")
	e.MustExec(`CREATE TABLE d (id INTEGER, x DOUBLE UNIQUE)`)
	insert := func(id int64, x float64) error {
		_, err := e.Exec(`INSERT INTO d VALUES (?, ?)`, NewInt(id), NewDouble(x))
		return err
	}
	nan := math.NaN()
	for _, step := range []struct {
		id      int64
		x       float64
		violate bool
	}{
		{1, 0, false},
		{2, math.Copysign(0, -1), true},
		{3, 1, false},
		{4, nan, false},
		{5, nan, true},
	} {
		if err := insert(step.id, step.x); (err != nil) != step.violate {
			t.Fatalf("INSERT (%d, %v): err = %v, want violation %v", step.id, step.x, err, step.violate)
		}
	}
	// lookup returns the ids of the rows the index finds for x.
	lookup := func(x float64) []int64 {
		var ids []int64
		for _, rid := range e.db.indexes["uq_d_x"].lookup(NewDouble(x)) {
			ids = append(ids, e.db.tables["d"].row(rid)[0].I)
		}
		return ids
	}
	if got := lookup(1); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("lookup(1.0) = %v, want the 1.0 row alone", got)
	}
	if _, err := e.Exec(`UPDATE d SET x = ? WHERE id = 3`, NewDouble(nan)); err == nil {
		t.Fatal("UPDATE to a second NaN was not a violation")
	}
	e.MustExec(`DELETE FROM d WHERE id = 4`)
	e.MustExec(`UPDATE d SET x = ? WHERE id = 3`, NewDouble(nan))
	if got := lookup(1); got != nil {
		t.Fatalf("lookup(1.0) after the UPDATE to NaN = %v, want none", got)
	}
	if got := lookup(nan); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("lookup(NaN) = %v, want the updated row", got)
	}
}
