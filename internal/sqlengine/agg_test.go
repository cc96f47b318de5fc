package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"testing"
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
	{sql: `SELECT COUNT(*), SUM(%[1]s), MIN(%[1]s), MAX(%[1]s), AVG(d), MAX(s) FROM gk`},
}

// TestGroupedAggregateKeyShapes holds the vectorised aggregate to the
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
					if !strings.Contains(lines[0], "(vectorised aggregate)") {
						t.Fatalf("%s is not a vectorised aggregate:\n%s", sql, strings.Join(lines, "\n"))
					}
					execAllPaths(t, e, sql, tc.params...)
				}
			}
		})
	}
	run("initial")
	e.MustExec(`UPDATE gk SET k = k + 3, kb = kb - 3 WHERE id % 4 = 1`)
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
