package sqlengine

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// vecEngine builds a table with NO indexes — every plannable SELECT is
// a full scan, which is exactly the class the columnar executor owns.
// Columns cover every vector layout; NULLs land on coprime strides so
// combinations occur; every 11th double is NaN.
func vecEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New("vec")
	e.MustExec(`CREATE TABLE vt (id INTEGER, a INTEGER, b DOUBLE, s VARCHAR(16), f BOOLEAN, ts TIMESTAMP)`)
	e.MustExec(`CREATE VIEW vv AS SELECT id, a, b FROM vt WHERE a > 10`)
	s := e.NewSession()
	for i := 0; i < rows; i++ {
		a := NewInt(int64(i % 50))
		if i%7 == 0 {
			a = Null
		}
		b := NewDouble(float64(i)/8 - 5)
		switch {
		case i%11 == 3:
			b = NewDouble(math.NaN())
		case i%13 == 0:
			b = Null
		}
		sv := NewString(fmt.Sprintf("v-%03d", i%17))
		if i%5 == 2 {
			sv = Null
		}
		f := NewBool(i%3 == 0)
		if i%19 == 0 {
			f = Null
		}
		ts := NewString(fmt.Sprintf("2026-01-%02dT0%d:00:00Z", i%27+1, i%9))
		if _, err := s.Execute(`INSERT INTO vt VALUES (?, ?, ?, ?, ?, CAST(? AS TIMESTAMP))`,
			NewInt(int64(i)), a, b, sv, f, ts); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// vectorCorpus exercises every kernel, the three-valued combinators,
// zone-map edge cases (NaN vectors, all-NULL chunks), row-independent
// predicates and operands, bind-time fallbacks, and statements that must error
// identically on all paths.
var vectorCorpus = []struct {
	sql    string
	params []Value
}{
	// Comparison kernels per type, both operand orders.
	{sql: `SELECT id FROM vt WHERE a > 30`},
	{sql: `SELECT id FROM vt WHERE a >= 30`},
	{sql: `SELECT id FROM vt WHERE a < 4`},
	{sql: `SELECT id FROM vt WHERE a <= 4`},
	{sql: `SELECT id FROM vt WHERE a = 25`},
	{sql: `SELECT id FROM vt WHERE a <> 25`},
	{sql: `SELECT id FROM vt WHERE 30 < a`},
	{sql: `SELECT id FROM vt WHERE a > 24.5`}, // int column, double constant
	{sql: `SELECT id FROM vt WHERE b > 2.5`},
	{sql: `SELECT id FROM vt WHERE b <= -3`},
	{sql: `SELECT id FROM vt WHERE b = 0`},
	{sql: `SELECT id FROM vt WHERE b <> 1.25`}, // NaN rows: NaN <> 1.25 holds
	{sql: `SELECT id FROM vt WHERE s > 'v-008'`},
	{sql: `SELECT id FROM vt WHERE s = 'v-003'`},
	{sql: `SELECT id FROM vt WHERE f = TRUE`},
	{sql: `SELECT id FROM vt WHERE f < TRUE`},
	{sql: `SELECT id FROM vt WHERE ts > CAST('2026-01-14T00:00:00Z' AS TIMESTAMP)`},
	// Parameters bind per execution.
	{sql: `SELECT id FROM vt WHERE a > ?`, params: []Value{NewInt(44)}},
	{sql: `SELECT id FROM vt WHERE a > ?`, params: []Value{Null}},
	{sql: `SELECT id FROM vt WHERE b < ?`, params: []Value{NewDouble(math.NaN())}},
	// Three-valued AND/OR/NOT with NULL operands on both sides.
	{sql: `SELECT id FROM vt WHERE a > 10 AND b < 3`},
	{sql: `SELECT id FROM vt WHERE a > 45 OR b > 6`},
	{sql: `SELECT id FROM vt WHERE NOT (a > 10)`},
	{sql: `SELECT id FROM vt WHERE NOT (a > 10 AND s = 'v-001')`},
	{sql: `SELECT id FROM vt WHERE a > 10 AND a < 20 AND id > 40`},
	{sql: `SELECT id FROM vt WHERE (a < 5 OR a > 45) AND b > 0`},
	// IS NULL / BETWEEN / IN / LIKE kernels.
	{sql: `SELECT id FROM vt WHERE a IS NULL`},
	{sql: `SELECT id FROM vt WHERE a IS NOT NULL AND b IS NULL`},
	{sql: `SELECT id FROM vt WHERE a BETWEEN 10 AND 20`},
	{sql: `SELECT id FROM vt WHERE a NOT BETWEEN 10 AND 20`},
	{sql: `SELECT id FROM vt WHERE a BETWEEN 20 AND 10`},
	{sql: `SELECT id FROM vt WHERE b BETWEEN ? AND ?`, params: []Value{NewDouble(-1), NewDouble(2)}},
	{sql: `SELECT id FROM vt WHERE a BETWEEN ? AND 30`, params: []Value{Null}},
	{sql: `SELECT id FROM vt WHERE a IN (1, 2, 47)`},
	{sql: `SELECT id FROM vt WHERE a NOT IN (1, 2, 47)`},
	{sql: `SELECT id FROM vt WHERE a IN (1, NULL, 47)`},
	{sql: `SELECT id FROM vt WHERE a NOT IN (1, NULL, 47)`},
	{sql: `SELECT id FROM vt WHERE s LIKE 'v-00%'`},
	{sql: `SELECT id FROM vt WHERE s LIKE '%1_'`},
	{sql: `SELECT id FROM vt WHERE s NOT LIKE 'v-%'`},
	// Row-independent predicates and operands: constants of one execution,
	// bound before the scan; one that does not evaluate, or is not
	// boolean where a predicate is, takes the row path.
	{sql: `SELECT id FROM vt WHERE 1 = 1 AND a > 30`},
	{sql: `SELECT id FROM vt WHERE 1 = 0 AND a > 30`},
	{sql: `SELECT id FROM vt WHERE 1 = 0 OR a > 30`},
	{sql: `SELECT id FROM vt WHERE a > 30 AND TRUE`},
	{sql: `SELECT id FROM vt WHERE 1 = 1`},
	{sql: `SELECT id FROM vt WHERE NULL`},
	{sql: `SELECT id FROM vt WHERE NOT NULL`},
	{sql: `SELECT id FROM vt WHERE a > ? + 1`, params: []Value{NewInt(30)}},
	{sql: `SELECT id FROM vt WHERE a > -?`, params: []Value{NewInt(-40)}},
	{sql: `SELECT id FROM vt WHERE a BETWEEN ABS(?) AND 10`, params: []Value{NewInt(-3)}},
	{sql: `SELECT id FROM vt WHERE b < CAST(? AS DOUBLE)`, params: []Value{NewInt(2)}},
	{sql: `SELECT id FROM vt WHERE a IN (? + 1, ABS(?), NULL)`, params: []Value{NewInt(4), NewInt(-9)}},
	{sql: `SELECT id FROM vt WHERE s LIKE ? || '%'`, params: []Value{NewString("v-01")}},
	{sql: `SELECT id FROM vt WHERE ? IS NULL OR a > 40`, params: []Value{Null}},
	{sql: `SELECT id FROM vt WHERE ? IS NULL OR a > 40`, params: []Value{NewInt(1)}},
	{sql: `SELECT id FROM vt WHERE ?`, params: []Value{NewBool(true)}},
	{sql: `SELECT id FROM vt WHERE NOT (a > 10 AND ?)`, params: []Value{Null}}, // unknown, not false
	{sql: `SELECT id FROM vt WHERE NOT (a > 10 OR ?)`, params: []Value{NewBool(false)}},
	{sql: `SELECT id FROM vt WHERE ? AND a > 40`, params: []Value{NewString("x")}},
	{sql: `SELECT id FROM vt WHERE a > 40 AND ?`, params: []Value{NewString("x")}},
	{sql: `SELECT id FROM vt WHERE a + ABS(?) > 3`, params: []Value{NewInt(-40)}},
	{sql: `SELECT id FROM vt WHERE a > 1 / ?`, params: []Value{NewInt(0)}},
	{sql: `SELECT id FROM vt WHERE a > 1 / ?`, params: []Value{NewInt(1)}},
	{sql: `SELECT id FROM vt WHERE a % (1 / ?) = 0`, params: []Value{NewInt(2)}}, // a zero divisor
	{sql: `SELECT COUNT(*), SUM(a + ABS(?)), MAX(id * -?) FROM vt WHERE 1 = 1 AND a > ?`, params: []Value{NewInt(-2), NewInt(3), NewInt(20)}},
	// Projection: gather vs computed, star, ORDER BY over vector scan.
	{sql: `SELECT * FROM vt WHERE a = 7`},
	{sql: `SELECT s, b, a FROM vt WHERE a > 40`},
	{sql: `SELECT id * 2, a + b FROM vt WHERE a > 40`},
	{sql: `SELECT id, a FROM vt WHERE a > 30 ORDER BY a DESC, id`},
	{sql: `SELECT id FROM vt WHERE a > 30 ORDER BY b`},
	{sql: `SELECT id FROM vt WHERE a > 10 ORDER BY id LIMIT 7 OFFSET 3`},
	{sql: `SELECT id FROM vt WHERE a > 10 LIMIT 5`},
	{sql: `SELECT id FROM vt OFFSET 495`},
	// Vectorised aggregates.
	{sql: `SELECT COUNT(*) FROM vt`},
	{sql: `SELECT COUNT(*) FROM vt WHERE a > 30`},
	{sql: `SELECT COUNT(a), COUNT(b), COUNT(s) FROM vt`},
	{sql: `SELECT SUM(a), SUM(b) FROM vt`},
	{sql: `SELECT MIN(a), MAX(a), MIN(b), MAX(b) FROM vt`},
	{sql: `SELECT MIN(s), MAX(s), MIN(f), MAX(f), MIN(ts), MAX(ts) FROM vt`},
	{sql: `SELECT AVG(a), AVG(b) FROM vt`},
	{sql: `SELECT COUNT(*) FROM vt WHERE a > 200`},
	{sql: `SELECT SUM(a) FROM vt WHERE a > 200`},
	{sql: `SELECT a, COUNT(*) FROM vt GROUP BY a ORDER BY 1`},
	{sql: `SELECT a, COUNT(*), SUM(b), MIN(s) FROM vt WHERE b > -4 GROUP BY a ORDER BY 1 DESC, 2`},
	{sql: `SELECT s, COUNT(*) FROM vt GROUP BY s ORDER BY 1`},
	{sql: `SELECT b, COUNT(*) FROM vt GROUP BY b ORDER BY 2 DESC, 1 LIMIT 5`}, // NaN forms one group
	{sql: `SELECT a, s, COUNT(*) FROM vt GROUP BY a, s ORDER BY 1, 2 LIMIT 20 OFFSET 5`},
	{sql: `SELECT f, COUNT(*) FROM vt GROUP BY f ORDER BY 1`},
	{sql: `SELECT a, AVG(b) FROM vt GROUP BY a ORDER BY 1`},
	// Aggregate shapes that must fall back (interpreter owns them).
	{sql: `SELECT COUNT(DISTINCT a) FROM vt`},
	{sql: `SELECT a, COUNT(*) FROM vt GROUP BY a HAVING COUNT(*) > 8 ORDER BY 1`},
	{sql: `SELECT SUM(ABS(a)) FROM vt`},
	{sql: `SELECT a, COUNT(*) FROM vt GROUP BY a ORDER BY a`},
	// Expression vectors as aggregate arguments: integer, DOUBLE (NaN in
	// b; b = 0 at id 40, so -b and b * -1 make -0), mixed, parameters,
	// results outside BIGINT, grouped.
	{sql: `SELECT SUM(a + 1) FROM vt`},
	{sql: `SELECT SUM(a + id), AVG(a * 2), MIN(-a), MAX(a - id), COUNT(a + b) FROM vt`},
	{sql: `SELECT SUM(a + b), AVG(b * 2), MIN(-b), MAX(b / 2), MIN(b * -1) FROM vt WHERE a > 5`},
	{sql: `SELECT MIN(-b), MAX(-b), SUM(b * 0) FROM vt WHERE id BETWEEN 38 AND 42`},
	{sql: `SELECT SUM(id * 922337203685477580), MAX(id * 922337203685477580) FROM vt WHERE id < 10`}, // SUM outside BIGINT, of products inside it
	{sql: `SELECT MAX(id * 4611686018427387904 * 4) FROM vt`},                                        // a product outside BIGINT faults
	{sql: `SELECT MIN(a * 9223372036854775807), SUM(id + 9223372036854775807) FROM vt`},
	{sql: `SELECT a, SUM(id + ?), AVG(b - ?), MIN(id % 7) FROM vt GROUP BY a ORDER BY 1`, params: []Value{NewBigint(1 << 40), NewDouble(0.5)}},
	{sql: `SELECT SUM(a + ?), MAX(a + ?) FROM vt`, params: []Value{NewDouble(0.25), NewBigint(7)}},
	{sql: `SELECT COUNT(*), SUM(a + id) FROM vt WHERE a + id > 400`},
	{sql: `SELECT SUM(a + id) FROM vt WHERE a > 200`},
	// ... that abandon the plan: an operand that does not bind, a zero
	// divisor on a selected row (b = 0 at id 40, a = 0 at id 50), and the
	// same divisors on rows the WHERE leaves out.
	{sql: `SELECT SUM(a + ?) FROM vt`, params: []Value{Null}},
	{sql: `SELECT SUM(a + ?) FROM vt`, params: []Value{NewString("x")}},
	{sql: `SELECT SUM(s + 1) FROM vt`},
	{sql: `SELECT SUM(a / b) FROM vt`},
	{sql: `SELECT SUM(a / b) FROM vt WHERE id <> 40`},
	{sql: `SELECT SUM(id / a) FROM vt`},
	{sql: `SELECT SUM(id / a), SUM(id % a) FROM vt WHERE a > 0`},
	{sql: `SELECT SUM(a % 0) FROM vt`},
	{sql: `SELECT SUM(a % 0) FROM vt WHERE a > 200`},
	{sql: `SELECT a, SUM(id / (a - 3)) FROM vt GROUP BY a ORDER BY 1`},
	// Computed WHERE operands: comparison, BETWEEN, IN, IS NULL.
	{sql: `SELECT id FROM vt WHERE a + id > ?`, params: []Value{NewInt(470)}},
	{sql: `SELECT id FROM vt WHERE a % 2 = 0`},
	{sql: `SELECT id FROM vt WHERE a + b > 10 AND id % 3 = 1`},
	{sql: `SELECT id FROM vt WHERE -a < -40 OR b * 2 BETWEEN 1 AND 3`},
	{sql: `SELECT id FROM vt WHERE 100 < id + a * 2 AND NOT (b - 1 > 0)`},
	{sql: `SELECT id FROM vt WHERE (a + 1) IS NULL`},
	{sql: `SELECT id FROM vt WHERE a * 2 IN (4, 8, NULL)`},
	{sql: `SELECT id FROM vt WHERE a * 2 NOT IN (4, ?)`, params: []Value{NewDouble(8)}},
	{sql: `SELECT id FROM vt WHERE b / 2 > 20`},
	{sql: `SELECT id FROM vt WHERE 10 / a > 2`}, // a divisor that can be zero on a row: row path, errors
	{sql: `SELECT id FROM vt WHERE a / 0 > 2`},
	{sql: `SELECT id FROM vt WHERE a % ? = 1`, params: []Value{NewInt(0)}},
	{sql: `SELECT id FROM vt WHERE a % ? = 1`, params: []Value{NewInt(4)}},
	{sql: `SELECT id FROM vt WHERE a + ? > 3`, params: []Value{Null}},
	{sql: `SELECT id FROM vt WHERE a + ? > 3`, params: []Value{NewString("x")}},
	{sql: `SELECT id FROM vt WHERE a + 1 > 'x'`},
	{sql: `SELECT id FROM vt WHERE s + 1 > 3`},
	// Expression projection.
	{sql: `SELECT id, a * 2, -b, a + b, id % 5 - a FROM vt WHERE a > 45`},
	{sql: `SELECT a * ? FROM vt WHERE id < 9`, params: []Value{NewDouble(1.5)}},
	{sql: `SELECT id / a FROM vt WHERE id < 60`},
	{sql: `SELECT id / a FROM vt WHERE id < 50`},
	{sql: `SELECT id, a * 2 FROM vt WHERE a > 40 ORDER BY 2 DESC, 1 LIMIT 6`},
	// Bounded top-K: ties keep scan order, NULL keys first, multi-key,
	// DESC, OFFSET, unprojected keys; NaN keys, big and failing limits
	// take the sort.
	{sql: `SELECT id, a FROM vt WHERE a > 10 ORDER BY a LIMIT 7`},
	{sql: `SELECT id, a FROM vt ORDER BY a LIMIT 90`},
	{sql: `SELECT id, a, s FROM vt ORDER BY a DESC, s LIMIT 9 OFFSET 4`},
	{sql: `SELECT id, a FROM vt ORDER BY 2, 1 DESC LIMIT ?`, params: []Value{NewInt(5)}},
	{sql: `SELECT id FROM vt WHERE id > 20 ORDER BY a, s DESC LIMIT 12 OFFSET ?`, params: []Value{NewInt(3)}},
	{sql: `SELECT id, f, ts FROM vt ORDER BY f DESC, ts LIMIT 8`},
	{sql: `SELECT id, b FROM vt ORDER BY b LIMIT 5`},
	{sql: `SELECT id, s FROM vt ORDER BY s DESC LIMIT 3 OFFSET 600`},
	{sql: `SELECT id FROM vt ORDER BY a LIMIT 0`},
	{sql: `SELECT id FROM vt ORDER BY a LIMIT 2000`},
	{sql: `SELECT id FROM vt ORDER BY a LIMIT -1`},
	{sql: `SELECT id FROM vt ORDER BY a LIMIT 3 OFFSET ?`, params: []Value{Null}},
	// Nested blocks reach the same executors: derived tables, a view (vv:
	// id, a, b of the rows with a > 10), UNION arms, IN, scalar and
	// correlated subqueries, and a failure inside one.
	{sql: `SELECT x.a, COUNT(*) FROM (SELECT id, a FROM vt WHERE id BETWEEN 100 AND 300) x GROUP BY x.a ORDER BY 1`},
	{sql: `SELECT x.id, y.a FROM (SELECT id FROM vt WHERE a > 45) x JOIN (SELECT id, a FROM vt WHERE a + 1 > 46) y ON x.id = y.id`},
	{sql: `SELECT x.n FROM (SELECT COUNT(*) AS n, SUM(a + id) AS t FROM vt WHERE a > ?) x`, params: []Value{NewInt(30)}},
	{sql: `SELECT id, a FROM vv WHERE b > 0`},
	{sql: `SELECT COUNT(*), SUM(a + 1) FROM vv`},
	{sql: `SELECT v.id, t.s FROM vv v JOIN vt t ON v.id = t.id WHERE t.a > 47`},
	{sql: `SELECT id FROM vt WHERE a > 47 UNION SELECT id FROM vt WHERE a < 2 ORDER BY 1 LIMIT 20`},
	{sql: `SELECT a FROM vt WHERE id < 10 UNION ALL SELECT SUM(a + id) FROM vt UNION ALL SELECT a FROM vv WHERE id < 30`},
	{sql: `SELECT id FROM vt WHERE a IN (SELECT a FROM vt WHERE id < 5)`},
	{sql: `SELECT id, (SELECT MAX(a + 1) FROM vt) FROM vt WHERE id < 3`},
	{sql: `SELECT id FROM vt WHERE a = (SELECT MIN(a) FROM vt WHERE id > ?)`, params: []Value{NewInt(450)}},
	{sql: `SELECT id FROM vt o WHERE EXISTS (SELECT 1 FROM vt i WHERE i.id = o.a AND i.a > 40)`},
	{sql: `SELECT id, (SELECT COUNT(*) FROM vt i WHERE i.a = o.a) FROM vt o WHERE id < 20`},
	{sql: `SELECT q FROM (SELECT id / a AS q FROM vt) x WHERE q > 1`},
	{sql: `SELECT id FROM vt WHERE a IN (SELECT a / 0 FROM vt)`},
	// Bind-time fallbacks and identical errors on every path.
	{sql: `SELECT id FROM vt WHERE s > 5`},
	{sql: `SELECT id FROM vt WHERE a > 'abc'`},
	{sql: `SELECT id FROM vt WHERE a BETWEEN 'x' AND 'y'`},
	{sql: `SELECT id FROM vt WHERE a IN (1, 'x')`},
	{sql: `SELECT id FROM vt WHERE f > 1.5`},
	{sql: `SELECT SUM(a) FROM vt WHERE s > 5`},
	{sql: `SELECT id FROM vt WHERE a > 1 LIMIT -1`},
	{sql: `SELECT id FROM vt WHERE a > 1 OFFSET ?`, params: []Value{Null}},
}

// execAllPaths runs one statement four ways — vectorised, row plan
// (vector disabled), interpreter oracle (planner disabled), and with every
// join listing its candidate pairs by scan (hash join disabled) — and
// requires byte-identical dumps, CAs, or error text. It returns the answer
// they agree on, nil when they agree on an error.
func execAllPaths(t *testing.T, e *Engine, sql string, params ...Value) *ResultSet {
	t.Helper()
	type outcome struct {
		set  *ResultSet
		dump string
		ca   SQLCA
		err  error
	}
	run := func() outcome {
		res, err := e.NewSession().Execute(sql, params...)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{set: res.Set, dump: dumpSet(res.Set), ca: res.CA}
	}
	vec := run()
	e.SetVectorDisabled(true)
	row := run()
	e.SetVectorDisabled(false)
	e.SetPlannerDisabled(true)
	interp := run()
	e.SetPlannerDisabled(false)
	e.SetHashJoinDisabled(true)
	scan := run()
	e.SetHashJoinDisabled(false)
	for name, o := range map[string]outcome{"row": row, "interpreted": interp, "hash join off": scan} {
		if (vec.err == nil) != (o.err == nil) {
			t.Fatalf("%s: vector err = %v, %s err = %v", sql, vec.err, name, o.err)
		}
		if vec.err != nil {
			if vec.err.Error() != o.err.Error() {
				t.Fatalf("%s: error text diverged:\nvector: %v\n%s: %v", sql, vec.err, name, o.err)
			}
			continue
		}
		if vec.dump != o.dump {
			t.Fatalf("%s: results diverged:\nvector:\n%s\n%s:\n%s", sql, vec.dump, name, o.dump)
		}
		if vec.ca != o.ca {
			t.Fatalf("%s: CA diverged: %+v vs %s %+v", sql, vec.ca, name, o.ca)
		}
	}
	return vec.set
}

// TestVectorMatchesRowAndInterpreter is the three-way equivalence
// corpus over a multi-chunk table (cold plans).
func TestVectorMatchesRowAndInterpreter(t *testing.T) {
	e := vecEngine(t, 500)
	for _, tc := range vectorCorpus {
		execAllPaths(t, e, tc.sql, tc.params...)
	}
}

// TestVectorMatchesWarm re-runs the corpus with all plans cached: a
// cache-hit vectorised execution is held to the same standard.
func TestVectorMatchesWarm(t *testing.T) {
	e := vecEngine(t, 500)
	for _, tc := range vectorCorpus {
		_, _ = e.NewSession().Execute(tc.sql, tc.params...)
	}
	for _, tc := range vectorCorpus {
		execAllPaths(t, e, tc.sql, tc.params...)
	}
}

// TestVectorEmptyTable runs the corpus against a zero-row table —
// empty chunk lists, implicit aggregate groups, and the bind-time
// error-parity rule (no rows ⇒ no per-row errors anywhere).
func TestVectorEmptyTable(t *testing.T) {
	e := vecEngine(t, 0)
	for _, tc := range vectorCorpus {
		execAllPaths(t, e, tc.sql, tc.params...)
	}
}

// TestVectorStreamMatches drains ExecuteStream with vector execution
// on and off over the streamable subset of the corpus.
func TestVectorStreamMatches(t *testing.T) {
	e := vecEngine(t, 500)
	streamable := []struct {
		sql    string
		params []Value
	}{
		{sql: `SELECT id FROM vt WHERE a > 30`},
		{sql: `SELECT id, a, b, s FROM vt WHERE a > 10 AND b < 3`},
		{sql: `SELECT id * 2 FROM vt WHERE a IN (1, NULL, 47)`},
		{sql: `SELECT * FROM vt WHERE s LIKE 'v-00%'`},
		{sql: `SELECT id FROM vt WHERE a > 10 LIMIT 7 OFFSET 3`},
		{sql: `SELECT id FROM vt WHERE s > 5`},
		{sql: `SELECT id FROM vt WHERE a > ?`, params: []Value{Null}},
		{sql: `SELECT id, a * 2, -b FROM vt WHERE a + id > 100 AND a % 2 = 0`},
		{sql: `SELECT id / a FROM vt WHERE id < 60`},
		{sql: `SELECT id FROM vt WHERE a IN (SELECT a FROM vt WHERE id < 5)`},
	}
	collect := func(sql string, params []Value) (string, SQLCA, error) {
		stream, err := e.NewSession().ExecuteStream(context.Background(), sql, params...)
		if err != nil {
			return "", SQLCA{}, err
		}
		var rows [][]Value
		for {
			row, rerr := stream.Next()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return "", SQLCA{}, rerr
			}
			rows = append(rows, row)
		}
		res, rerr := stream.Result()
		if rerr != nil {
			return "", SQLCA{}, rerr
		}
		return dumpSet(&ResultSet{Columns: stream.Columns(), Rows: rows}), res.CA, nil
	}
	for _, tc := range streamable {
		vd, vca, verr := collect(tc.sql, tc.params)
		e.SetVectorDisabled(true)
		rd, rca, rerr := collect(tc.sql, tc.params)
		e.SetVectorDisabled(false)
		if (verr == nil) != (rerr == nil) {
			t.Fatalf("%s: stream err = %v vs %v", tc.sql, verr, rerr)
		}
		if verr != nil {
			if verr.Error() != rerr.Error() {
				t.Fatalf("%s: stream error diverged: %v vs %v", tc.sql, verr, rerr)
			}
			continue
		}
		if vd != rd {
			t.Fatalf("%s: streamed rows diverged:\nvector:\n%s\nrow:\n%s", tc.sql, vd, rd)
		}
		if vca != rca {
			t.Fatalf("%s: streamed CA diverged: %+v vs %+v", tc.sql, vca, rca)
		}
	}
}

// TestVectorDisabledEngineOption proves the vector switch pins an engine
// to row execution: results match and no vector batches run.
func TestVectorDisabledEngineOption(t *testing.T) {
	e := New("novec")
	e.SetVectorDisabled(true)
	e.MustExec(`CREATE TABLE x (a INTEGER)`)
	for i := 0; i < 10; i++ {
		e.MustExec(`INSERT INTO x VALUES (?)`, NewInt(int64(i)))
	}
	rows := queryStrings(t, e, `SELECT a FROM x WHERE a > 6`)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if st := e.VectorStats(); st.Batches != 0 || st.ChunksSkipped != 0 {
		t.Fatalf("vector stats on disabled engine: %+v", st)
	}
}

// TestVectorZoneMapSkipping checks that a selective predicate over
// clustered data eliminates chunks without evaluating them, and that
// the skip is observable both in VectorStats and in EXPLAIN.
func TestVectorZoneMapSkipping(t *testing.T) {
	e := New("zones")
	e.MustExec(`CREATE TABLE z (id INTEGER, v INTEGER)`)
	s := e.NewSession()
	const n = 5 * chunkRows
	for i := 0; i < n; i++ {
		if _, err := s.Execute(`INSERT INTO z VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := e.VectorStats()
	rows := queryStrings(t, e, `SELECT id FROM z WHERE v >= ?`, NewInt(int64(n-10)))
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	after := e.VectorStats()
	if skipped := after.ChunksSkipped - before.ChunksSkipped; skipped != 4 {
		t.Fatalf("skipped %d chunks, want 4", skipped)
	}
	if batches := after.Batches - before.Batches; batches != 1 {
		t.Fatalf("evaluated %d chunks, want 1", batches)
	}
	// A stream stops scanning once its LIMIT is met.
	stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT id FROM z WHERE v >= 0 LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(drain(t, stream)); rows != 3 {
		t.Fatalf("streamed %d rows", rows)
	}
	if batches := e.VectorStats().Batches - after.Batches; batches != 1 {
		t.Fatalf("streaming evaluated %d chunks, want 1", batches)
	}

	lines, err := e.NewSession().Explain(fmt.Sprintf(`SELECT id FROM z WHERE v >= %d`, n-10))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		fmt.Sprintf("vector: columnar scan (chunks of %d rows)", chunkRows),
		"vector filter: compiled kernels",
		"vector zone maps: 4/5 chunks skippable",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("EXPLAIN:\n%s\nmissing %q", joined, want)
		}
	}
	// Parameterised predicates cannot pre-bind: the count defers.
	lines, err = e.NewSession().Explain(`SELECT id FROM z WHERE v >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	if joined := strings.Join(lines, "\n"); !strings.Contains(joined, "vector zone maps: evaluated per execution") {
		t.Fatalf("EXPLAIN:\n%s\nmissing deferred zone-map line", joined)
	}
}

// decidedSidesCorpus holds AND/OR statements with a side the zone maps
// decide on some pages and not on others (id < 1024 is true on the
// first page of a three-page vt and false on the rest), beside sides
// whose every page holds NULLs (a, s) or NULLs and NaN (b).
var decidedSidesCorpus = []struct {
	sql    string
	params []Value
}{
	{sql: `SELECT id FROM vt WHERE id < 1024 AND a > 10`},
	{sql: `SELECT id FROM vt WHERE a > 10 AND id >= 1024`},
	{sql: `SELECT id FROM vt WHERE b < 3 AND id < 2048`},
	{sql: `SELECT id FROM vt WHERE s LIKE 'v-01%' AND id > 1500 AND id < 2100`},
	{sql: `SELECT id FROM vt WHERE id < ? AND a > ?`, params: []Value{NewInt(1024), NewInt(10)}},
	{sql: `SELECT id FROM vt WHERE id >= 1024 OR a > 40`},
	{sql: `SELECT id FROM vt WHERE a > 45 OR id < 1024`},
	{sql: `SELECT id FROM vt WHERE b > 0 OR id >= 2048`},
	{sql: `SELECT id FROM vt WHERE NOT (id < 1024 AND a > 10)`},
	{sql: `SELECT id FROM vt WHERE NOT (id >= 1024 OR b > 0)`},
	{sql: `SELECT id FROM vt WHERE (id < 1024 OR a IS NULL) AND (b IS NULL OR id >= 2048)`},
	{sql: `SELECT id FROM vt WHERE id IS NOT NULL AND a + id > 2000`},
	{sql: `SELECT id FROM vt WHERE b IS NULL AND id < 1500`},
	{sql: `SELECT COUNT(*), SUM(a), MIN(b) FROM vt WHERE id < 1024 AND a > 10`},
	{sql: `SELECT a, COUNT(*) FROM vt WHERE b > 50 OR id < 1024 GROUP BY a ORDER BY 1`},
}

// TestVectorDecidedSides runs decidedSidesCorpus three ways over one
// page (where id < 1024 is decided everywhere) and over three.
func TestVectorDecidedSides(t *testing.T) {
	for _, rows := range []int{500, 2*chunkRows + 500} {
		e := vecEngine(t, rows)
		for _, tc := range decidedSidesCorpus {
			execAllPaths(t, e, tc.sql, tc.params...)
		}
	}
}

// TestTopKLimitOverflow: OFFSET + LIMIT past the largest int is not a
// small bound. The heap's test must not add them, or it keeps nothing.
func TestTopKLimitOverflow(t *testing.T) {
	e := New("topk")
	e.MustExec(`CREATE TABLE t (id INTEGER, k INTEGER)`)
	for i := 0; i < 50; i++ {
		e.MustExec(`INSERT INTO t VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i%7)))
	}
	queryStrings(t, e, `SELECT COUNT(*) FROM t WHERE k > 0`) // builds the chunk cache
	const sql = `SELECT id FROM t ORDER BY k LIMIT 9223372036854775807 OFFSET 1`
	if rows := queryStrings(t, e, sql); len(rows) != 49 {
		t.Fatalf("%s: %d rows, want 49", sql, len(rows))
	}
	execAllPaths(t, e, sql)
}

// TestTopKPagePruning: a bounded top-K reads the pages whose zone maps
// promise the best first key, then skips every page that cannot enter its
// heap, and still answers exactly as the stable sort does — ties to the
// lower row ID across pages visited out of order, NULLs first under ASC
// and last under DESC, an all-NULL page, two keys, OFFSET+LIMIT at the
// bound, and pages left stale by DML or a rollback.
func TestTopKPagePruning(t *testing.T) {
	const n = 5*chunkRows + 40 // six pages, the last one short
	e := New("topk")
	e.MustExec(`CREATE TABLE tk (id INTEGER, grp INTEGER, up INTEGER, down INTEGER, tie INTEGER, nk INTEGER)`)
	s := e.NewSession()
	for i := 0; i < n; i++ {
		tie := NewInt(int64(i % 5))
		switch {
		case i >= 1000 && i < 1050: // straddles the first page boundary
			tie = NewInt(7)
		case i >= 3050 && i < 3100: // straddles the third
			tie = NewInt(-7)
		}
		nk := NewInt(int64(i % 1000))
		if i%97 == 0 || (i >= 2*chunkRows && i < 3*chunkRows) { // page 2 is all NULL
			nk = Null
		}
		if _, err := s.Execute(`INSERT INTO tk VALUES (?, ?, ?, ?, ?, ?)`, NewInt(int64(i)), NewInt(int64(i%8)),
			NewInt(int64(i)), NewInt(int64(-i)), tie, nk); err != nil {
			t.Fatal(err)
		}
	}
	statements := []struct {
		sql    string
		params []Value
	}{
		{sql: `SELECT id, up FROM tk ORDER BY up DESC LIMIT 10`},
		{sql: `SELECT id, up FROM tk ORDER BY up LIMIT 10`},
		{sql: `SELECT id, down FROM tk ORDER BY down DESC LIMIT 10`},
		{sql: `SELECT id, down FROM tk ORDER BY down LIMIT 10`},
		{sql: `SELECT id, up FROM tk WHERE grp = ? ORDER BY up DESC LIMIT 10`, params: []Value{NewInt(3)}},
		{sql: `SELECT id, down FROM tk WHERE grp = ? ORDER BY down LIMIT 10`, params: []Value{NewInt(5)}},
		{sql: `SELECT id, tie FROM tk ORDER BY tie DESC LIMIT 5`},
		{sql: `SELECT id, tie FROM tk ORDER BY tie DESC LIMIT 30 OFFSET 20`},
		{sql: `SELECT id, tie FROM tk ORDER BY tie LIMIT 5`},
		{sql: `SELECT id, tie FROM tk WHERE grp = 1 ORDER BY tie DESC LIMIT 4`},
		{sql: `SELECT id, nk FROM tk ORDER BY nk LIMIT 10`},
		{sql: `SELECT id, nk FROM tk ORDER BY nk DESC LIMIT 10`},
		{sql: `SELECT id, nk FROM tk ORDER BY nk, id DESC LIMIT 30`},
		{sql: `SELECT id, nk FROM tk WHERE grp = 3 AND id >= 2000 AND id < 3200 ORDER BY nk DESC LIMIT 200`},
		{sql: `SELECT id, nk FROM tk WHERE id >= 2048 AND id < 3072 ORDER BY nk DESC LIMIT 3`},
		{sql: `SELECT id, grp, down FROM tk ORDER BY grp DESC, down LIMIT 12`},
		{sql: `SELECT id, tie, up FROM tk ORDER BY tie DESC, up DESC LIMIT 5`},
		{sql: `SELECT id FROM tk ORDER BY up DESC LIMIT 1000 OFFSET 24`},
		{sql: `SELECT id FROM tk ORDER BY down LIMIT 1024`},
		{sql: `SELECT id FROM tk WHERE grp = 2 ORDER BY nk LIMIT 1 OFFSET 1023`},
	}
	runAll := func() {
		t.Helper()
		for _, tc := range statements {
			execAllPaths(t, e, tc.sql, tc.params...)
		}
	}
	runAll()

	// The correlated DESC shape reads the short last page and the one
	// before it, and skips the other four.
	const top = `SELECT id, up FROM tk WHERE grp = ? ORDER BY up DESC LIMIT 10`
	for g := 0; g < 8; g++ {
		before := e.VectorStats()
		rows := queryStrings(t, e, top, NewInt(int64(g)))
		after := e.VectorStats()
		batches, skipped := after.Batches-before.Batches, after.ChunksSkipped-before.ChunksSkipped
		if batches > 3 || batches+skipped != 6 {
			t.Fatalf("grp %d: filtered %d pages and skipped %d, want at most 3 of 6 filtered and the rest skipped", g, batches, skipped)
		}
		if want := fmt.Sprint((n-1)/8*8 + g); len(rows) != 10 || rows[0][0] != want {
			t.Fatalf("grp %d: %v, want 10 rows from id %s down", g, rows, want)
		}
	}

	// Stale pages: a key raised on page 0, keys cleared on page 4, rows
	// deleted off the last page; then a DELETE rolled back.
	e.MustExec(`UPDATE tk SET up = 100000, down = -100000, tie = 9 WHERE id = 17`)
	e.MustExec(`UPDATE tk SET nk = NULL, tie = 7 WHERE id >= 4100 AND id < 4110`)
	e.MustExec(`DELETE FROM tk WHERE id >= 5100`)
	runAll()
	if rows := queryStrings(t, e, `SELECT id FROM tk ORDER BY up DESC LIMIT 1`); rows[0][0] != "17" {
		t.Fatalf("after UPDATE: top row %v, want 17", rows)
	}
	want := queryStrings(t, e, `SELECT id, up FROM tk ORDER BY up DESC LIMIT 20`)
	mustSess(t, s, `BEGIN`)
	mustSess(t, s, `DELETE FROM tk WHERE id >= 4000 OR id = 17`)
	mustSess(t, s, `ROLLBACK`)
	runAll()
	if got := queryStrings(t, e, `SELECT id, up FROM tk ORDER BY up DESC LIMIT 20`); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after a rolled-back DELETE: %v, want %v", got, want)
	}
}

// TestConstantsBindPerExecution: a row-independent expression is a
// constant of one execution wherever the planner looks for one — an index
// bound, a kernel operand, a whole conjunct, a term of an expression
// vector — and one that does not evaluate sends the statement down the
// row path, which raises the interpreter's error.
func TestConstantsBindPerExecution(t *testing.T) {
	explain := func(e *Engine, sql string) string {
		t.Helper()
		lines, err := e.NewSession().Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(lines, "\n")
	}
	pe := planEngine(t, 50)
	computed, literal := `SELECT id FROM rng WHERE k BETWEEN 1+1 AND 10-2`, `SELECT id FROM rng WHERE k BETWEEN 2 AND 8`
	if got, want := explain(pe, computed), explain(pe, literal); got != want {
		t.Fatalf("computed bounds plan apart from literal ones:\n%s\nvs\n%s", got, want)
	}
	execBothWays(t, pe, computed)
	if got := explain(pe, `SELECT id FROM rng WHERE k > ? + 1`); !strings.Contains(got, "access: ordered range scan via rng_k (k > ?)") {
		t.Fatalf("k > ? + 1 does not take the ordered range:\n%s", got)
	}
	execBothWays(t, pe, `SELECT id FROM rng WHERE k > ? + 1`, NewInt(14))

	ve := vecEngine(t, 500)
	for _, tc := range []struct {
		sql    string
		params []Value
	}{
		{`SELECT id FROM vt WHERE 1 = 1 AND a > 30`, nil},
		{`SELECT id FROM vt WHERE b + ABS(?) > 3`, []Value{NewInt(-40)}},
	} {
		if got := explain(ve, tc.sql); !strings.Contains(got, "vector filter: compiled kernels") {
			t.Fatalf("%s is not on the kernels:\n%s", tc.sql, got)
		}
		execBothWays(t, ve, tc.sql, tc.params...)
	}
	const failing = `SELECT id FROM vt WHERE a > 1 / ?`
	before := ve.VectorStats().Fallbacks
	if _, err := ve.Exec(failing, NewInt(0)); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("%s with 0: err = %v", failing, err)
	}
	if got := ve.VectorStats().Fallbacks - before; got != 1 {
		t.Fatalf("%s with 0: %d fallbacks, want 1", failing, got)
	}
	execBothWays(t, ve, failing, NewInt(0))
}

// TestChaosVectorScanDML hammers vectorised scans and aggregates
// against concurrent INSERT/UPDATE/DELETE and rolled-back
// transactions. Run under -race: it exists to prove chunk-cache
// maintenance publishes safely through the database latch.
func TestChaosVectorScanDML(t *testing.T) {
	// The single-table hammer serialises hard on the lock manager; under
	// -race the default 2s wait is starvation, not deadlock.
	e := New("chaos", WithLockTimeout(time.Minute))
	e.MustExec(`CREATE TABLE h (id INTEGER, v INTEGER, s VARCHAR(8))`)
	seed := e.NewSession()
	for i := 0; i < 3000; i++ {
		if _, err := seed.Execute(`INSERT INTO h VALUES (?, ?, ?)`,
			NewInt(int64(i)), NewInt(int64(i%100)), NewString(fmt.Sprintf("s%d", i%10))); err != nil {
			t.Fatal(err)
		}
	}
	const readers, writers, iters = 4, 2, 150
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < iters; i++ {
				id := int64(3000 + w*iters + i)
				if _, err := s.Execute(`INSERT INTO h VALUES (?, ?, 'w')`, NewInt(id), NewInt(id%100)); err != nil {
					errs <- err
					return
				}
				if _, err := s.Execute(`UPDATE h SET v = v + 1 WHERE id = ?`, NewInt(int64(i%3000))); err != nil {
					errs <- err
					return
				}
				if _, err := s.Execute(`DELETE FROM h WHERE id = ?`, NewInt(id)); err != nil {
					errs <- err
					return
				}
				// Rolled-back transaction: its splice-undo must also
				// invalidate the chunk cache.
				for _, sql := range []string{`BEGIN`, `DELETE FROM h WHERE v = 7`, `ROLLBACK`} {
					if _, err := s.Execute(sql); err != nil {
						errs <- fmt.Errorf("%s: %w", sql, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < iters; i++ {
				res, err := s.Execute(`SELECT COUNT(*) FROM h WHERE v >= 50`)
				if err != nil {
					errs <- err
					return
				}
				if res.Set.Rows[0][0].I < 0 {
					errs <- fmt.Errorf("negative count")
					return
				}
				if _, err := s.Execute(`SELECT s, COUNT(*), SUM(v) FROM h GROUP BY s ORDER BY 1`); err != nil {
					errs <- err
					return
				}
				// Grouped reads with no WHERE fill and reuse the pages'
				// partials, concurrently with each other: whatever a write
				// left, the groups' counts add up to a table of the 3000
				// seeded rows and at most one live row per writer.
				res, err = s.Execute(`SELECT v, COUNT(*), SUM(id), AVG(v), MIN(s) FROM h GROUP BY v`)
				if err != nil {
					errs <- err
					return
				}
				n := int64(0)
				for _, r := range res.Set.Rows {
					n += r[1].I
				}
				if n < 3000 || n > 3000+writers {
					errs <- fmt.Errorf("grouped counts add up to %d rows", n)
					return
				}
				if _, err := s.Execute(`SELECT id, v FROM h WHERE v BETWEEN 10 AND 20 ORDER BY id LIMIT 50`); err != nil {
					errs <- err
					return
				}
				// The writers only insert and delete 'w' rows and roll back
				// what else they delete: whatever pages were pushed into,
				// rebuilt or spliced back, the prefix words find the 300
				// seeded 's1' rows.
				res, err = s.Execute(`SELECT COUNT(*) FROM h WHERE s LIKE 's1%'`)
				if err != nil {
					errs <- err
					return
				}
				if n := res.Set.Rows[0][0].I; n != 300 {
					errs <- fmt.Errorf("LIKE 's1%%' counted %d rows, want 300", n)
					return
				}
			}
		}()
	}
	// A consumer of streamed rows beside the writers: the identity
	// projection hands out the stored row images uncopied, so under -race
	// a write into one of them is a reported race, and without it a
	// changed row shows when what was held is compared with what arrived.
	var held, arrived [][]Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT * FROM h`)
			if err != nil {
				errs <- err
				return
			}
			for {
				batch, err := stream.NextBatch()
				if err != nil {
					break
				}
				held = append(held, batch...)
				arrived = append(arrived, cloneRows(batch)...)
			}
			if _, err := stream.Result(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sameRows(held, arrived); err != nil {
		t.Fatalf("a streamed row changed under a concurrent write: %v", err)
	}
	// Final state must agree with the interpreter exactly.
	execAllPaths(t, e, `SELECT COUNT(*), SUM(v), MIN(id), MAX(id) FROM h`)
	execAllPaths(t, e, `SELECT s, COUNT(*) FROM h GROUP BY s ORDER BY 1`)
}
