package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// groupKeyEngine builds gk, whose chunks each give the grouping keys k
// (INTEGER) and kb (BIGINT, the same values) one shape the group-ordinal
// pass treats apart: the chunk-local table over a zone-map span, its
// edges, the map when the span is wider or does not fit in an int64, and
// the NULL group. Rows are inserted in id order, so chunk c holds ids
// c*chunkRows up to (c+1)*chunkRows; the last chunk is short.
func groupKeyEngine(t *testing.T) *Engine {
	t.Helper()
	e := New("groupkeys")
	e.MustExec(`CREATE TABLE gk (id INTEGER, k INTEGER, kb BIGINT, v INTEGER, d DOUBLE, s VARCHAR(8))`)
	s := e.NewSession()
	for id := 0; id < 8*chunkRows-300; id++ {
		i := id % chunkRows
		var k Value
		switch id / chunkRows {
		case 0: // negative and positive keys, a NULL key every 7th row
			k = NewInt(int64(i%37 - 18))
			if i%7 == 3 {
				k = Null
			}
		case 1: // every key NULL: no zone-map span at all
			k = Null
		case 2: // MinInt64 and MaxInt64 in one chunk: max − min overflows
			k = NewInt(int64(i % 5))
			switch i % 97 {
			case 10:
				k = NewInt(math.MinInt64)
			case 50:
				k = NewInt(math.MaxInt64)
			}
		case 3: // span chunkRows−1: every slot of the chunk-local table in use
			k = NewInt(5000 + int64(i*7%chunkRows))
		case 4: // span chunkRows: one past the chunk-local table
			k = NewInt(int64(i))
			if i == chunkRows-1 {
				k = NewInt(chunkRows)
			}
		case 5: // span chunkRows+1
			k = NewInt(int64(i - 500))
			if i == chunkRows-1 {
				k = NewInt(chunkRows + 1 - 500)
			}
		case 6: // keys of chunk 3 beside keys first seen here, from another min
			k = NewInt(4990 + int64(i%50))
		default: // the short last chunk: few keys, some NULL
			k = NewInt(int64(i % 3))
			if i%11 == 5 {
				k = Null
			}
		}
		v := NewInt(int64(id%23 - 11))
		if id%13 == 5 {
			v = Null
		}
		d := NewDouble(float64(id%29)/4 - 3)
		switch {
		case id%11 == 0:
			d = NewDouble(math.NaN())
		case id%17 == 4:
			d = Null
		}
		sv := NewString(fmt.Sprintf("s%02d", id%31))
		if id%19 == 7 {
			sv = Null
		}
		if _, err := s.Execute(`INSERT INTO gk VALUES (?, ?, ?, ?, ?, ?)`, NewInt(int64(id)), k, k, v, d, sv); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// groupKeyCorpus is written over the key column %[1]s. Statements without
// ORDER BY list groups in first-appearance order, which the ordinal pass
// must keep.
var groupKeyCorpus = []struct {
	sql    string
	params []Value
}{
	{sql: `SELECT %[1]s, COUNT(*) FROM gk GROUP BY %[1]s`},
	{sql: `SELECT %[1]s, COUNT(*), COUNT(v), COUNT(d), COUNT(s) FROM gk GROUP BY %[1]s`},
	{sql: `SELECT %[1]s, SUM(v), AVG(v), SUM(d), AVG(d) FROM gk GROUP BY %[1]s`},
	{sql: `SELECT %[1]s, MIN(v), MAX(v), MIN(d), MAX(d), MIN(s), MAX(s) FROM gk GROUP BY %[1]s`}, // d: NaN first in some groups
	{sql: `SELECT %[1]s, SUM(v * 2 + id), AVG(d - v), MIN(-d), MAX(v - id), COUNT(v + d) FROM gk GROUP BY %[1]s`},
	{sql: `SELECT %[1]s, SUM(id / (v + 11)) FROM gk GROUP BY %[1]s`}, // a zero divisor: abandoned, the interpreter raises
	{sql: `SELECT %[1]s, COUNT(*), SUM(d), MIN(s) FROM gk WHERE id BETWEEN 2100 AND 4000 GROUP BY %[1]s`},
	{sql: `SELECT %[1]s, COUNT(*), MAX(s) FROM gk WHERE id >= ? GROUP BY %[1]s`, params: []Value{NewInt(6*chunkRows + 5)}},
	{sql: `SELECT %[1]s, COUNT(*), MIN(d) FROM gk GROUP BY %[1]s ORDER BY 2 DESC, 1 LIMIT 12 OFFSET 3`},
	{sql: `SELECT %[1]s, SUM(v) FROM gk GROUP BY %[1]s ORDER BY 1 DESC LIMIT 40`},
	{sql: `SELECT %[1]s, s, COUNT(*), MAX(v) FROM gk WHERE id < 3500 GROUP BY %[1]s, s ORDER BY 3 DESC, 1, 2 LIMIT 30`},
	{sql: `SELECT COUNT(*), SUM(%[1]s), MIN(%[1]s), MAX(%[1]s), AVG(d), MAX(s) FROM gk`}, // SUM outside BIGINT once the UPDATE wraps a key
	{sql: `SELECT COUNT(*), MIN(%[1]s), MAX(%[1]s), AVG(d), MAX(s) FROM gk`},
	// HAVING, ORDER BY an alias or an aggregate, and DISTINCT run on the
	// group rows, whatever feeds the groups.
	{sql: `SELECT %[1]s, COUNT(*), SUM(v) FROM gk GROUP BY %[1]s HAVING COUNT(*) > ?`, params: []Value{NewInt(40)}},
	{sql: `SELECT %[1]s, COUNT(*) AS n FROM gk GROUP BY %[1]s ORDER BY n DESC, 1 LIMIT 20`},
	{sql: `SELECT DISTINCT COUNT(*) FROM gk WHERE id < 4000 GROUP BY %[1]s ORDER BY COUNT(*)`},
	{sql: `SELECT %[1]s, s, MAX(d) - MIN(d) FROM gk GROUP BY %[1]s HAVING MIN(v) < 0 AND NOT SUM(v) > 50`},
}

// TestGroupedAggregateKeyShapes holds the chunk feeder's fold to the
// row filter and the interpreter over every key shape of gk, on INTEGER
// and BIGINT keys, before and after an UPDATE that moves rows between
// groups, a DELETE that shortens chunks, and a rolled-back transaction.
func TestGroupedAggregateKeyShapes(t *testing.T) {
	e := groupKeyEngine(t)
	run := func(stage string) {
		t.Run(stage, func(t *testing.T) {
			for _, key := range []string{"k", "kb"} {
				for _, tc := range groupKeyCorpus {
					sql := fmt.Sprintf(tc.sql, key)
					lines, err := e.NewSession().Explain(sql)
					if err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(strings.Join(lines, "\n"), "vector aggregate: typed fold over column chunks") {
						t.Fatalf("%s does not fold over column chunks:\n%s", sql, strings.Join(lines, "\n"))
					}
					execAllPaths(t, e, sql, tc.params...)
				}
			}
		})
	}
	run("initial")
	// Integer arithmetic faults outside BIGINT, so the extreme keys take
	// by hand what k + 3 and kb - 3 would wrap them to.
	e.MustExec(`UPDATE gk SET k = CASE WHEN k > 9223372036854775804 THEN -9223372036854775806 ELSE k + 3 END,
		kb = CASE WHEN kb < -9223372036854775805 THEN 9223372036854775805 ELSE kb - 3 END WHERE id % 4 = 1`)
	run("after_update")
	e.MustExec(`DELETE FROM gk WHERE id % 9 = 2 AND id < 5000`)
	run("after_delete")
	s := e.NewSession()
	for _, sql := range []string{`BEGIN`, `UPDATE gk SET k = NULL, kb = 7 WHERE id < 3000`, `DELETE FROM gk WHERE id > 6000`, `INSERT INTO gk VALUES (9999, 1, 1, 1, 1, 'x')`, `ROLLBACK`} {
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	run("after_rollback")
}

// TestEmptyImplicitGroupReadsNull: a bare column of the implicit group
// over no rows reads NULL on every path — in the select list, HAVING,
// ORDER BY and over an empty derived table — and the statement leaves
// the database usable: a write and a read after it complete.
func TestEmptyImplicitGroupReadsNull(t *testing.T) {
	e := New("emptygroup")
	e.MustExec(`CREATE TABLE t (id INTEGER, a INTEGER)`)
	e.MustExec(`CREATE TABLE u (a INTEGER)`)
	e.MustExec(`CREATE TABLE other (x INTEGER)`)
	e.MustExec(`INSERT INTO t VALUES (1, 2)`)
	for sql, want := range map[string]string{
		`SELECT id, COUNT(*) FROM t WHERE id > 5`:                     "[[NULL 0]]",
		`SELECT COUNT(*) FROM t WHERE id > 5 HAVING id > 0`:           "[]",
		`SELECT COUNT(*), id + a FROM t WHERE id > 5 ORDER BY id`:     "[[0 NULL]]",
		`SELECT x.a, COUNT(*) FROM (SELECT a FROM u) x`:               "[[NULL 0]]",
		`SELECT id, MAX(a) FROM t WHERE id > 0`:                       "[[1 2]]",
		`SELECT id, COUNT(*) FROM t WHERE id > 5 HAVING COUNT(*) = 0`: "[[NULL 0]]",
	} {
		set := execAllPaths(t, e, sql)
		if set == nil {
			t.Fatalf("%s failed", sql)
		}
		var got [][]string
		for _, r := range set.Rows {
			var row []string
			for _, v := range r {
				row = append(row, v.String())
			}
			got = append(got, row)
		}
		if g := fmt.Sprint(got); g != want && !(want == "[]" && len(got) == 0) {
			t.Fatalf("%s = %s, want %s", sql, g, want)
		}
	}
	done := make(chan error, 1)
	go func() {
		if _, err := e.Exec(`INSERT INTO other VALUES (1)`); err != nil {
			done <- err
			return
		}
		_, err := e.Exec(`SELECT COUNT(*) FROM other`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an INSERT and a SELECT after the empty-group statements did not complete")
	}
}

// TestGroupedErrorsSurfaceByGroup pins the oracle's answers, probed
// before the grouping stage was one, on every path: which groups read
// which aggregate slots decides which error a grouped statement raises,
// if any.
func TestGroupedErrorsSurfaceByGroup(t *testing.T) {
	e := planEngine(t, 150)
	for sql, want := range map[string]string{
		`SELECT ABS(SUM(k)) FROM rng`:                       "aggregate SUM not allowed here",
		`SELECT k, COALESCE(MAX(d), 0) FROM rng GROUP BY k`: "aggregate MAX not allowed here",
		`SELECT SUM(s) FROM rng`:                            "SUM requires numeric values, got VARCHAR",
		`SELECT k, SUM(CASE WHEN id = 3 THEN s ELSE id END) FROM rng GROUP BY k HAVING k <> 3`:      "",
		`SELECT k_noix, SUM(CASE WHEN id = 1 THEN s ELSE 10 / k_noix END) FROM rng GROUP BY k_noix`: "SUM requires numeric values, got VARCHAR",
		`SELECT k_noix, MIN(CASE WHEN id = 1 THEN s ELSE k END) FROM rng GROUP BY k_noix`:           "cannot compare INTEGER with VARCHAR",
		`SELECT k, COUNT(*) FROM rng GROUP BY k HAVING COUNT(*) > 1000 AND SUM(s) > 0`:              "SUM requires numeric values, got VARCHAR",
		`SELECT COUNT(*) FROM rng WHERE id < 0 GROUP BY k HAVING SUM(s) > 0`:                        "",
	} {
		execAllPaths(t, e, sql)
		_, err := e.NewSession().Execute(sql)
		if got := fmt.Sprint(err); want == "" && err != nil || want != "" && got != want {
			t.Fatalf("%s: err = %v, want %q", sql, err, want)
		}
	}
}

// TestRepeatedAggregateCallsShareASlot: an aggregate call written again —
// in HAVING, the select list or ORDER BY — reads the slot of its first
// writing, so the groups fold it once; a call that differs in DISTINCT or
// argument has a slot of its own. Every statement agrees on every path.
func TestRepeatedAggregateCallsShareASlot(t *testing.T) {
	e := groupKeyEngine(t)
	for sql, slots := range map[string]int{
		`SELECT k, COUNT(*) AS n FROM gk GROUP BY k HAVING COUNT(*) > 3 ORDER BY COUNT(*) DESC, 1`: 1,
		`SELECT k, SUM(v) + COUNT(*), -SUM(v) FROM gk GROUP BY k ORDER BY SUM(v), COUNT(*), 1`:     2,
		`SELECT COUNT(v), COUNT(DISTINCT v), COUNT(d), SUM(v), SUM(v + 0) FROM gk`:                 5,
		`SELECT s, COUNT(DISTINCT v) FROM gk GROUP BY s HAVING COUNT(DISTINCT v) > 20`:             1,
	} {
		p, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.topPlan().group.items); got != slots {
			t.Errorf("%s: %d aggregate slots, want %d", sql, got, slots)
		}
		execAllPaths(t, e, sql)
	}
}
