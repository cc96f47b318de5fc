package sqlengine

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// planEngine seeds the planner-equivalence fixture: an ordered index on
// k (with NULLs mixed in), the primary key's index on id, and twin
// unindexed columns so the same predicate can run with and without
// pushdown. Rows: id 0..n-1, k = id%20 (NULL every 7th row), k_noix a
// copy of k, s a label, d a double.
func planEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New("plan")
	e.MustExec(`CREATE TABLE rng (id INTEGER PRIMARY KEY, k INTEGER, k_noix INTEGER, s VARCHAR(16), d DOUBLE)`)
	e.MustExec(`CREATE ORDERED INDEX rng_k ON rng (k)`)
	s := e.NewSession()
	for i := 0; i < rows; i++ {
		k := NewInt(int64(i % 20))
		if i%7 == 0 {
			k = Null
		}
		if _, err := s.Execute(`INSERT INTO rng VALUES (?, ?, ?, ?, ?)`,
			NewInt(int64(i)), k, k,
			NewString(fmt.Sprintf("v-%03d", i%13)), NewDouble(float64(i)/4-8)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// planCorpus is every statement shape the equivalence tests push
// through both executors. Range predicates in every direction, flipped
// operands, BETWEEN, parameters, ORDER BY (indexed, unindexed, DESC,
// multi-key, ordinal) with LIMIT/OFFSET, point lookups, joins,
// aggregates and subqueries, and statements that must fail with
// identical errors.
var planCorpus = []struct {
	sql    string
	params []Value
}{
	{sql: `SELECT id, k FROM rng WHERE k > 12`},
	{sql: `SELECT id, k FROM rng WHERE k >= 12`},
	{sql: `SELECT id, k FROM rng WHERE k < 4`},
	{sql: `SELECT id, k FROM rng WHERE k <= 4`},
	{sql: `SELECT id, k FROM rng WHERE 12 < k`},
	{sql: `SELECT id, k FROM rng WHERE k BETWEEN 6 AND 9`},
	{sql: `SELECT id, k FROM rng WHERE k BETWEEN 9 AND 2`},
	{sql: `SELECT id, k FROM rng WHERE k NOT BETWEEN 6 AND 9`},
	{sql: `SELECT id, k FROM rng WHERE k > ?`, params: []Value{NewInt(14)}},
	{sql: `SELECT id, k FROM rng WHERE k >= ? AND k <= ?`, params: []Value{NewInt(3), NewInt(11)}},
	{sql: `SELECT id, k FROM rng WHERE k > 3 AND k < 9 AND id > 40`},
	{sql: `SELECT id, k FROM rng WHERE k > 5.5`},
	{sql: `SELECT id, k FROM rng WHERE k > 900`},
	{sql: `SELECT id FROM rng WHERE k = 5`},
	{sql: `SELECT id FROM rng WHERE k = NULL`},
	{sql: `SELECT s FROM rng WHERE id = 42`},
	{sql: `SELECT k FROM rng ORDER BY k`},
	{sql: `SELECT k FROM rng ORDER BY k DESC`},
	{sql: `SELECT id, k FROM rng WHERE k > 3 AND k < 9 ORDER BY k`},
	{sql: `SELECT id, k FROM rng ORDER BY k LIMIT 7`},
	{sql: `SELECT id, k FROM rng ORDER BY k DESC LIMIT 7 OFFSET 3`},
	{sql: `SELECT id, k FROM rng ORDER BY k_noix LIMIT 7`},
	{sql: `SELECT id, s FROM rng ORDER BY s DESC, k LIMIT 10`},
	{sql: `SELECT id FROM rng ORDER BY 1 DESC LIMIT 5`},
	{sql: `SELECT id FROM rng LIMIT 0`},
	{sql: `SELECT id FROM rng ORDER BY k LIMIT 5 OFFSET 5000`},
	{sql: `SELECT id * 2, k + d FROM rng WHERE d > 10 ORDER BY id`},
	{sql: `SELECT * FROM rng WHERE k <= 2 ORDER BY id DESC`},
	{sql: `SELECT a.id, b.s FROM rng a JOIN rng b ON a.k = b.id WHERE a.id < 20 ORDER BY a.id, b.id`},
	{sql: `SELECT COUNT(*) FROM rng WHERE k > 5`},
	{sql: `SELECT k, COUNT(*) FROM rng GROUP BY k ORDER BY k`},
	{sql: `SELECT DISTINCT k FROM rng WHERE k > 10 ORDER BY k`},
	{sql: `SELECT id FROM rng WHERE k IN (SELECT k FROM rng WHERE id < 5) ORDER BY id`},
	// Nested blocks take the same access paths: an index range inside a
	// derived table, a point lookup inside a scalar subquery, UNION arms,
	// a correlated subquery, computed predicates and
	// aggregate arguments.
	{sql: `SELECT x.k, COUNT(*) FROM (SELECT id, k FROM rng WHERE k >= 3 AND k < 9) x GROUP BY x.k ORDER BY 1`},
	{sql: `SELECT x.id, r.s FROM (SELECT id FROM rng WHERE k = ?) x JOIN rng r ON x.id = r.id`, params: []Value{NewInt(5)}},
	{sql: `SELECT id, (SELECT s FROM rng WHERE id = 42) FROM rng WHERE id < 3`},
	{sql: `SELECT id FROM rng WHERE k > 17 UNION SELECT id FROM rng WHERE k < 1 ORDER BY 1`},
	{sql: `SELECT id FROM rng WHERE k > 17 UNION ALL SELECT k FROM rng WHERE id = 3 UNION ALL SELECT COUNT(*) FROM rng`},
	{sql: `SELECT id FROM rng WHERE k > 17 UNION SELECT id FROM rng WHERE k < 1 ORDER BY 1 LIMIT (SELECT COUNT(*) FROM rng WHERE id < 4)`},
	{sql: `SELECT id FROM rng o WHERE k = (SELECT MAX(k) FROM rng i WHERE i.id < o.id) ORDER BY id LIMIT 9`},
	{sql: `SELECT id FROM rng WHERE k_noix + id > 100 AND id % 2 = 1`},
	{sql: `SELECT SUM(k + id), AVG(d * 2), MIN(-k) FROM rng WHERE k_noix > 3`},
	{sql: `SELECT k, SUM(id / k) FROM rng GROUP BY k ORDER BY 1`},
	{sql: `SELECT id, k_noix FROM rng ORDER BY k_noix DESC, id LIMIT 6 OFFSET 2`},
	// Every block reads through the access path: DISTINCT, HAVING and a
	// grouped ORDER BY by name over a hash point, an ordered point and an
	// ordered range, then parameters that widen each one.
	{sql: `SELECT DISTINCT k FROM rng WHERE id = 42`},
	{sql: `SELECT DISTINCT s FROM rng WHERE k = 5 ORDER BY s`},
	{sql: `SELECT DISTINCT id, k FROM rng WHERE k BETWEEN 6 AND 9`},
	{sql: `SELECT s, COUNT(*) FROM rng WHERE id = 17 GROUP BY s HAVING COUNT(*) > 0`},
	{sql: `SELECT s, COUNT(*) FROM rng WHERE k = 5 GROUP BY s HAVING COUNT(*) > 1 ORDER BY 1`},
	{sql: `SELECT k, COUNT(*) FROM rng WHERE k >= 3 AND k < 9 GROUP BY k HAVING SUM(id) > 500`},
	{sql: `SELECT k, MAX(id) FROM rng WHERE id = 44 GROUP BY k ORDER BY k`},
	{sql: `SELECT s, COUNT(*) FROM rng WHERE k = 12 GROUP BY s ORDER BY s DESC`},
	{sql: `SELECT k, SUM(d) FROM rng WHERE k > 14 GROUP BY k ORDER BY k`},
	{sql: `SELECT DISTINCT s FROM rng WHERE id = ?`, params: []Value{Null}},
	{sql: `SELECT DISTINCT k FROM rng WHERE k = ?`, params: []Value{NewString("7")}},
	{sql: `SELECT k, COUNT(*) FROM rng WHERE k >= ? GROUP BY k HAVING COUNT(*) > 1 ORDER BY 1`, params: []Value{NewDouble(6.5)}},
	{sql: `SELECT k, COUNT(*) FROM rng WHERE id = ? GROUP BY k ORDER BY k`, params: []Value{NewDouble(6.5)}},
	{sql: `SELECT DISTINCT k FROM rng WHERE k BETWEEN ? AND 9`, params: []Value{Null}},
	// DISTINCT keeps the first of equal rows in row-ID order, with that
	// row's ORDER BY key, however the key column is indexed.
	{sql: `SELECT DISTINCT s FROM rng ORDER BY k`},
	{sql: `SELECT DISTINCT s FROM rng WHERE k BETWEEN 2 AND 9 ORDER BY k DESC`},
	{sql: `SELECT DISTINCT s FROM rng WHERE k = 4 ORDER BY k`},
	// Grouped blocks read aggregates the way the oracle's evalGrouped does:
	// extracted through operators and CAST only, so one inside a function
	// call fails for every group; a fold's type or comparison error, or an
	// argument's evaluation error, raised for the first group that reads
	// its slot, and only if one does; both operands of a grouped AND
	// evaluated.
	{sql: `SELECT ABS(SUM(k)) FROM rng`},
	{sql: `SELECT k, COALESCE(MAX(d), 0) FROM rng GROUP BY k`},
	{sql: `SELECT SUM(s) FROM rng`},
	{sql: `SELECT k, SUM(CASE WHEN id = 3 THEN s ELSE id END) FROM rng GROUP BY k HAVING k <> 3`},
	{sql: `SELECT k, SUM(CASE WHEN id = 3 THEN s ELSE id END) FROM rng GROUP BY k`},
	{sql: `SELECT k_noix, SUM(CASE WHEN id = 1 THEN s ELSE 10 / k_noix END) FROM rng GROUP BY k_noix`},
	{sql: `SELECT k_noix, MIN(CASE WHEN id = 1 THEN s ELSE k END) FROM rng GROUP BY k_noix`},
	{sql: `SELECT k, COUNT(*) FROM rng GROUP BY k HAVING COUNT(*) > 1000 AND SUM(s) > 0`},
	{sql: `SELECT k, SUM(DISTINCT k_noix), COUNT(DISTINCT s) FROM rng WHERE id < 90 GROUP BY k ORDER BY COUNT(DISTINCT s) DESC, 1`},
	{sql: `SELECT s, COUNT(*) AS n, SUM(d) + MAX(id) FROM rng GROUP BY s HAVING n > 0 ORDER BY n DESC, s`},
	{sql: `SELECT k % 3, -MAX(d), CAST(COUNT(*) AS DOUBLE) FROM rng GROUP BY k % 3 ORDER BY 1`},
	{sql: `SELECT k AS id, SUM(id) FROM rng GROUP BY k ORDER BY SUM(id) DESC, 1`}, // an argument reads its row, not an alias
	// The chunk feeder folds what the zone maps keep whatever index the
	// WHERE names; a DISTINCT aggregate reads the index.
	{sql: `SELECT k_noix, COUNT(*), SUM(d) FROM rng WHERE id BETWEEN ? AND 140 GROUP BY k_noix`, params: []Value{NewInt(20)}},
	{sql: `SELECT k_noix, MAX(s) FROM rng WHERE k = 3 GROUP BY k_noix HAVING COUNT(*) > 1`},
	{sql: `SELECT k_noix, COUNT(DISTINCT s) FROM rng WHERE id BETWEEN 20 AND 140 GROUP BY k_noix`},
	// Failures must match byte for byte too.
	{sql: `SELECT id FROM rng WHERE k < 'abc'`},
	// A block that cannot bind fails when it runs, where the oracle fails,
	// and a subquery that never runs never fails.
	{sql: `SELECT id FROM nosuch`},
	{sql: `SELECT a.id FROM (SELECT id FROM rng WHERE 1/(id - 5) > 0) a JOIN nosuch b ON a.id = b.id`},
	{sql: `SELECT *`},
	{sql: `SELECT * WHERE 1/0 = 1`},
	{sql: `SELECT x.* FROM rng WHERE id < 3`},
	{sql: `SELECT COUNT(*) FROM rng WHERE SUM(id) > 1`},
	{sql: `SELECT id FROM rng WHERE id < 0 AND id IN (SELECT x FROM nosuch)`},
	{sql: `SELECT id FROM rng WHERE id < 3 AND EXISTS (SELECT * WHERE 1 = 1)`},
	{sql: `SELECT id, (SELECT nosuch FROM rng i WHERE i.id = o.k) FROM rng o WHERE o.k IS NULL ORDER BY id LIMIT 3`},
	{sql: `SELECT id FROM rng o ORDER BY (SELECT COUNT(*) FROM rng i WHERE i.k = o.k), id DESC LIMIT 5`},
	{sql: `SELECT id AS k, k AS id FROM rng WHERE id < 30 ORDER BY k + 0 DESC, id`},
	{sql: `SELECT id FROM rng WHERE nosuch > 1`},
	{sql: `SELECT id FROM rng ORDER BY k LIMIT -1`},
	{sql: `SELECT id FROM rng OFFSET ?`, params: []Value{Null}},
	// Every row is filtered before any is projected: the WHERE failing on
	// a late row (id 145) wins over the projection failing on an early one
	// (id 3), LIMIT or not.
	{sql: `SELECT 10 / (id - 3) FROM rng WHERE CASE WHEN id = 145 THEN s ELSE id END >= 0`},
	{sql: `SELECT 10 / (id - 3) FROM rng WHERE CASE WHEN id = 145 THEN s ELSE id END >= 0 LIMIT 2`},
	{sql: `SELECT id, 10 / (id - 3) FROM rng WHERE CASE WHEN id = 145 THEN s ELSE k_noix END >= 0 ORDER BY id DESC LIMIT 1`},
}

// execBothWays runs sql through the planner and the interpreter,
// requiring identical dumps or identical error messages.
func execBothWays(t *testing.T, e *Engine, sql string, params ...Value) {
	t.Helper()
	planned, perr := e.NewSession().Execute(sql, params...)
	e.SetPlannerDisabled(true)
	naive, nerr := e.NewSession().Execute(sql, params...)
	e.SetPlannerDisabled(false)
	if (perr == nil) != (nerr == nil) {
		t.Fatalf("%s: planned err = %v, interpreted err = %v", sql, perr, nerr)
	}
	if perr != nil {
		if perr.Error() != nerr.Error() {
			t.Fatalf("%s: error text diverged:\nplanned:     %v\ninterpreted: %v", sql, perr, nerr)
		}
		return
	}
	if got, want := dumpSet(planned.Set), dumpSet(naive.Set); got != want {
		t.Fatalf("%s: results diverged:\nplanned:\n%s\ninterpreted:\n%s", sql, got, want)
	}
	if planned.CA != naive.CA {
		t.Fatalf("%s: CA diverged: %+v vs %+v", sql, planned.CA, naive.CA)
	}
}

// TestPlannedMatchesInterpreted is the equivalence corpus: every entry
// must produce byte-identical output (or byte-identical errors) whether
// it runs through compiled plans or the tree interpreter.
func TestPlannedMatchesInterpreted(t *testing.T) {
	e := planEngine(t, 150)
	for _, tc := range planCorpus {
		execBothWays(t, e, tc.sql, tc.params...)
	}
}

// TestPlannedMatchesInterpretedWarm re-runs the corpus with every plan
// already cached, so cache-hit execution is held to the same
// byte-identical standard as cold planning.
func TestPlannedMatchesInterpretedWarm(t *testing.T) {
	e := planEngine(t, 150)
	for _, tc := range planCorpus {
		_, _ = e.NewSession().Execute(tc.sql, tc.params...) // warm the cache
	}
	stats := e.PlanCacheStats()
	for _, tc := range planCorpus {
		execBothWays(t, e, tc.sql, tc.params...)
	}
	after := e.PlanCacheStats()
	if after.Hits <= stats.Hits {
		t.Fatalf("warm corpus ran without cache hits: %+v -> %+v", stats, after)
	}
}

// TestPlannedStreamMatchesInterpreted drains ExecuteStream with the
// planner on and off, comparing rows, columns and the final CA — the
// corpus guarantee extended to the streaming surface.
func TestPlannedStreamMatchesInterpreted(t *testing.T) {
	e := planEngine(t, 150)
	for _, tc := range planCorpus {
		collect := func() (cols []ResultColumn, rows [][]Value, ca SQLCA, err error) {
			stream, serr := e.NewSession().ExecuteStream(context.Background(), tc.sql, tc.params...)
			if serr != nil {
				return nil, nil, SQLCA{}, serr
			}
			cols = stream.Columns()
			for {
				row, rerr := stream.Next()
				if rerr == io.EOF {
					break
				}
				if rerr != nil {
					return nil, nil, SQLCA{}, rerr
				}
				rows = append(rows, row)
			}
			res, rerr := stream.Result()
			if rerr != nil {
				return nil, nil, SQLCA{}, rerr
			}
			return cols, rows, res.CA, nil
		}
		pc, pr, pca, perr := collect()
		e.SetPlannerDisabled(true)
		nc, nr, nca, nerr := collect()
		e.SetPlannerDisabled(false)
		if (perr == nil) != (nerr == nil) {
			t.Fatalf("%s: stream err = %v vs %v", tc.sql, perr, nerr)
		}
		if perr != nil {
			if perr.Error() != nerr.Error() {
				t.Fatalf("%s: stream error diverged: %v vs %v", tc.sql, perr, nerr)
			}
			continue
		}
		pd := dumpSet(&ResultSet{Columns: pc, Rows: pr})
		nd := dumpSet(&ResultSet{Columns: nc, Rows: nr})
		if pd != nd {
			t.Fatalf("%s: streamed results diverged:\nplanned:\n%s\ninterpreted:\n%s", tc.sql, pd, nd)
		}
		if pca != nca {
			t.Fatalf("%s: streamed CA diverged: %+v vs %+v", tc.sql, pca, nca)
		}
	}
}

// TestKernelPlansBind is the plan/bind agreement check: every block of
// the corpus whose plan puts its WHERE's keys on the kernels (kernelPred)
// binds each of them with the statement's parameters, and running the
// statement counts no fallback — a shape the plan admits and the binding
// refuses would take the row path on every execution.
func TestKernelPlansBind(t *testing.T) {
	e := planEngine(t, 150)
	kernels := 0
	for _, tc := range planCorpus {
		prep, err := e.Prepare(tc.sql)
		if err != nil || prep.blocks == nil {
			continue
		}
		filtered := false
		e.db.mu.RLock()
		for _, bp := range prep.blocks.m {
			if p := bp.plan; p != nil && p.vector && len(p.src.keys) > 0 {
				filtered = true
				if wk, chunks := p.src.bindKeys(tc.params), e.db.ensureChunks(p.t); wk.perRow && len(wk.keys) < len(p.src.keys) || !chunks {
					t.Errorf("%s: a key of %v does not bind (chunks %v)", tc.sql, p.src.kernelLines(), chunks)
				}
			}
		}
		e.db.mu.RUnlock()
		if !filtered {
			continue
		}
		kernels++
		before := e.VectorStats().Fallbacks
		_, _ = e.NewSession().Execute(tc.sql, tc.params...)
		if after := e.VectorStats().Fallbacks; after != before {
			t.Errorf("%s: counted %d fallbacks", tc.sql, after-before)
		}
	}
	if kernels < 10 {
		t.Fatalf("only %d corpus statements have a kernel filter", kernels)
	}
}

// TestPlanAccessPaths asserts the planner actually picks the access
// methods the corpus relies on — otherwise the equivalence tests could
// pass vacuously with every query widened to a scan.
func TestPlanAccessPaths(t *testing.T) {
	e := planEngine(t, 50)
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT id FROM rng WHERE id = 3`, `access: ordered point lookup via pk_rng_id`},
		{`SELECT id FROM rng WHERE k = 3`, `access: ordered point lookup via rng_k`},
		{`SELECT id FROM rng WHERE k > 3`, `access: ordered range scan via rng_k (k > ?)`},
		{`SELECT id FROM rng WHERE k BETWEEN 2 AND 5`, `access: ordered range scan via rng_k (k >= ? AND k <= ?)`},
		{`SELECT id FROM rng WHERE k >= 1 AND k < 9`, `access: ordered range scan via rng_k (k >= ? AND k < ?)`},
		{`SELECT id FROM rng WHERE k >= 1 AND k < 9`, `filter: satisfied by access path`},
		{`SELECT id FROM rng WHERE 1 = 1 AND k BETWEEN ? AND ?`, `filter: predicate per row`},
		{`SELECT id FROM rng WHERE k >= 1 AND id < 9`, `filter: predicate per row`},
		{`SELECT id FROM rng WHERE k >= 1 AND k >= 5`, `filter: predicate per row`},
		{`SELECT k FROM rng ORDER BY k`, `order: satisfied by index (no sort)`},
		{`SELECT k FROM rng ORDER BY k DESC`, `access: ordered full scan via rng_k (rng.k desc)`},
		{`SELECT id FROM rng ORDER BY k_noix`, `order: sort on 1 key(s)`},
		{`SELECT id FROM rng WHERE k_noix > 3`, `access: full scan`},
		{`SELECT COUNT(*) FROM rng`, `vector aggregate: typed fold over column chunks`},
		{`SELECT SUM(k + id) FROM rng`, `aggregate arg: expression kernel (SUM(k + id))`},
		{`SELECT id FROM rng WHERE d + id > 10`, `vector filter: compiled kernels`},
		{`SELECT id FROM rng WHERE k_noix + id > 10`, `filter: predicate per row`}, // integer + can leave BIGINT
		{`SELECT id * 2 FROM rng`, `project: 1 columns`},
		{`SELECT id FROM rng ORDER BY k_noix LIMIT 3`, `order: bounded top-K`},
		{`SELECT x.id FROM (SELECT id FROM rng WHERE k > 3) x`, `    access: ordered range scan via rng_k (k > ?)`},
		{`SELECT id FROM rng o WHERE EXISTS (SELECT 1 FROM rng i WHERE i.id = o.k)`, "  subquery:\n    select on \"rng\"\n      access: full scan\n      filter: predicate per row"},
		{`SELECT COUNT(*) FROM rng GROUP BY k HAVING COUNT(*) > 1`, "  group: 1 key(s), aggregates per group row\n  having: per group"},
		{`SELECT DISTINCT k FROM rng`, `  distinct: first of equal rows`},
		{`SELECT DISTINCT k FROM rng WHERE id = 3`, `access: ordered point lookup via pk_rng_id`},
		{`SELECT k, COUNT(*) FROM rng WHERE k BETWEEN 2 AND 5 GROUP BY k HAVING COUNT(*) > 1`, `vector aggregate: typed fold over column chunks`},
		{`SELECT k, COUNT(DISTINCT s) FROM rng WHERE k BETWEEN 2 AND 5 GROUP BY k HAVING COUNT(*) > 1`, `ordered range scan via rng_k`},
		{`SELECT k_noix, COUNT(*), SUM(d) FROM rng WHERE id BETWEEN 10 AND 40 GROUP BY k_noix`, "  access: full scan\n  vector: columnar scan"},
		{`SELECT COUNT(*) FROM rng WHERE id = 5`, `vector aggregate: typed fold over column chunks`},
		{`SELECT id FROM rng o WHERE EXISTS (SELECT 1 FROM rng i WHERE i.id = 3 AND i.k = o.k)`, "  subquery:\n    select on \"rng\"\n      access: ordered point lookup via pk_rng_id"},
		{`SELECT a.id FROM rng a JOIN rng b ON a.k = b.id`, `join: inner hash join`},
	}
	for _, tc := range cases {
		lines, err := e.NewSession().Explain(tc.sql)
		if err != nil {
			t.Fatalf("Explain(%s): %v", tc.sql, err)
		}
		joined := strings.Join(lines, "\n")
		if !strings.Contains(joined, tc.want) {
			t.Fatalf("Explain(%s):\n%s\nmissing %q", tc.sql, joined, tc.want)
		}
	}
}

// TestRangeFilterSatisfiedByAccessPath: a WHERE that is nothing but the
// pushed-down bounds is not evaluated again on the rows the ordered
// index selected — whatever the bound, NaN or a DOUBLE against the
// integer key included, since the index keeps Compare's order — unless a
// bound does not bind (NULL, a type Compare rejects), when the scan widens
// and the interpreter's rows and errors come back.
func TestRangeFilterSatisfiedByAccessPath(t *testing.T) {
	e := planEngine(t, 150)
	e.MustExec(`CREATE ORDERED INDEX rng_d ON rng (d)`)
	e.MustExec(`CREATE ORDERED INDEX rng_s ON rng (s)`)
	for _, tc := range []struct {
		sql    string
		params []Value
	}{
		{`SELECT * FROM rng WHERE k >= ?`, []Value{NewInt(7)}},
		{`SELECT * FROM rng WHERE k >= ?`, []Value{NewBigint(7)}},
		{`SELECT * FROM rng WHERE k >= ?`, []Value{NewDouble(6.5)}},
		{`SELECT * FROM rng WHERE k >= ?`, []Value{NewDouble(9007199254740993)}},
		{`SELECT * FROM rng WHERE k >= ?`, []Value{Null}},
		{`SELECT * FROM rng WHERE ? <= k`, []Value{NewDouble(math.NaN())}}, // NaN is above every integer key
		{`SELECT id FROM rng WHERE id = ?`, []Value{NewDouble(math.NaN())}},
		{`SELECT id FROM rng WHERE k BETWEEN ? AND 9 ORDER BY k`, []Value{NewDouble(math.NaN())}},
		{`SELECT * FROM rng WHERE k >= ?`, []Value{NewString("7")}},
		{`SELECT * FROM rng WHERE k BETWEEN ? AND ?`, []Value{NewInt(3), NewInt(11)}},
		{`SELECT * FROM rng WHERE k BETWEEN ? AND ?`, []Value{NewInt(11), NewInt(3)}},
		{`SELECT * FROM rng WHERE k BETWEEN ? AND ?`, []Value{NewInt(3), NewDouble(10.5)}},
		{`SELECT * FROM rng WHERE ? < k AND k <= ?`, []Value{NewInt(3), NewInt(11)}},
		{`SELECT * FROM rng WHERE k >= 3 AND k >= 15`, nil},
		{`SELECT * FROM rng WHERE k > 3 AND k_noix < 9`, nil},
		{`SELECT * FROM rng WHERE d >= ?`, []Value{NewDouble(0)}}, // DOUBLE key: satisfied like any other
		{`SELECT * FROM rng WHERE d >= ?`, []Value{NewInt(0)}},
		{`SELECT * FROM rng WHERE s >= ? AND s < ?`, []Value{NewString("v-003"), NewString("v-009")}},
		{`SELECT * FROM rng WHERE s >= ?`, []Value{NewInt(3)}},
		{`SELECT id, k FROM rng WHERE k >= ? ORDER BY k DESC LIMIT 5 OFFSET 2`, []Value{NewInt(12)}},
	} {
		execBothWays(t, e, tc.sql, tc.params...)
	}
}

// TestExplainStatement covers EXPLAIN through the ordinary Execute
// surface (the form daisql -explain ships over the wire) and the
// non-SELECT statement descriptions.
func TestExplainStatement(t *testing.T) {
	e := planEngine(t, 10)
	res, err := e.NewSession().Execute(`EXPLAIN SELECT id FROM rng WHERE k > 3 ORDER BY k LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Columns) != 1 || res.Set.Columns[0].Name != "plan" {
		t.Fatalf("columns = %+v", res.Set.Columns)
	}
	var lines []string
	for _, row := range res.Set.Rows {
		lines = append(lines, row[0].String())
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{`select on "rng"`, "ordered range scan via rng_k", "satisfied by index", "limit: yes"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("EXPLAIN output:\n%s\nmissing %q", joined, want)
		}
	}
	for sql, want := range map[string]string{
		`EXPLAIN INSERT INTO rng VALUES (999, 1, 1, 'x', 0)`: `insert into "rng" (interpreted)`,
		`EXPLAIN UPDATE rng SET s = 'y' WHERE id = 1`:        `access: ordered point lookup via pk_rng_id (rng.id = ?)`,
		`EXPLAIN DELETE FROM rng WHERE k >= 1 AND k < 3`:     `access: ordered range scan via rng_k (k >= ? AND k < ?)`,
		`EXPLAIN DELETE FROM rng WHERE 1/k > 0`:              `filter: predicate per row`,
		`EXPLAIN SELECT COUNT(*) FROM rng`:                   `vector aggregate: typed fold over column chunks`,
		`EXPLAIN SELECT COUNT(DISTINCT k) FROM rng`:          `group: 0 key(s), aggregates per group row`,
	} {
		res, err := e.NewSession().Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !strings.Contains(dumpSet(res.Set), want) {
			t.Fatalf("%s:\n%s\nmissing %q", sql, dumpSet(res.Set), want)
		}
	}
	// Nested blocks print indented under what nests them, each in the
	// vocabulary a statement of its own would get.
	e.MustExec(`CREATE VIEW lowk AS SELECT id, k FROM rng WHERE k_noix < 5`)
	for sql, want := range map[string][]string{
		`EXPLAIN SELECT x.k, SUM(x.id + 1) FROM (SELECT id, k FROM rng WHERE id BETWEEN 2 AND 7) x JOIN lowk v ON v.id = x.id GROUP BY x.k`: {
			`select on derived table x`,
			`  join: inner hash join (nested-loop fallback) view lowk`,
			`  group: 1 key(s), aggregates per group row`,
			`  derived table x:`,
			`    select on "rng"`,
			`      vector filter: compiled kernels with zone-map skipping (row fallback on bind failure)`,
			`      vector zone maps: 0/1 chunks skippable`,
			`  view lowk:`,
			`      vector project: gather 2 columns`,
		},
		`EXPLAIN SELECT id FROM rng WHERE k = 1 UNION SELECT SUM(d * 2) FROM rng WHERE id IN (SELECT id FROM lowk)`: {
			`select: union of 2 arms`,
			`  union arm 1:`,
			`      access: ordered point lookup via rng_k (rng.k = ?)`,
			`  union arm 2:`,
			`      group: 0 key(s), aggregates per group row`,
			`      subquery:`,
			`        select on view lowk`,
			`          view lowk:`,
			`            select on "rng"`,
		},
		`EXPLAIN SELECT SUM(d * 2) FROM rng WHERE k_noix > 1`: {
			`select on "rng"`,
			`  vector aggregate: typed fold over column chunks (row feeder if abandoned)`,
			`  aggregate arg: expression kernel (SUM(d * 2))`,
		},
	} {
		res, err := e.NewSession().Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var got []string
		for _, row := range res.Set.Rows {
			got = append(got, row[0].S)
		}
		for _, line := range want {
			if !slices.Contains(got, line) {
				t.Fatalf("%s:\n%s\nmissing line %q", sql, strings.Join(got, "\n"), line)
			}
		}
	}
	// EXPLAIN must not mutate: the INSERT above was only described.
	rows := queryStrings(t, e, `SELECT COUNT(*) FROM rng WHERE id = 999`)
	if rows[0][0] != "0" {
		t.Fatal("EXPLAIN INSERT executed the insert")
	}
}

// TestPlannedExecutionInsideTransaction makes sure plans respect
// uncommitted session state: a planned read inside a transaction sees
// its own writes, and streaming inside a transaction falls back safely.
func TestPlannedExecutionInsideTransaction(t *testing.T) {
	e := planEngine(t, 30)
	s := e.NewSession()
	mustExecSession(t, s, `BEGIN`)
	mustExecSession(t, s, `UPDATE rng SET k = 999 WHERE id = 2`)
	res, err := s.Execute(`SELECT id FROM rng WHERE k = 999`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 1 || res.Set.Rows[0][0].I != 2 {
		t.Fatalf("txn session sees %v", res.Set.Rows)
	}
	mustExecSession(t, s, `ROLLBACK`)
	res, err = s.Execute(`SELECT id FROM rng WHERE k = 999`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 0 {
		t.Fatalf("rollback left rows: %v", res.Set.Rows)
	}
	// With the lock released, other sessions read the restored state too.
	rows := queryStrings(t, e, `SELECT COUNT(*) FROM rng WHERE k = 999`)
	if rows[0][0] != "0" {
		t.Fatal("rolled-back write visible after ROLLBACK")
	}
}

func mustExecSession(t *testing.T, s *Session, sql string, params ...Value) *Result {
	t.Helper()
	res, err := s.Execute(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}
