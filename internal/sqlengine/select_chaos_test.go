package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestExpressionVectorsEngage keeps the equivalence corpus honest: the
// statements it proves equal across paths must actually run on the
// kernels (batches move, nothing is abandoned — an error they raise comes
// from evaluating a selected row), and the ones that cannot must be
// counted as fallbacks — what dais_vector_fallbacks_total shows an
// operator.
func TestExpressionVectorsEngage(t *testing.T) {
	e := vecEngine(t, 2500) // three chunks
	for _, tc := range []struct {
		sql       string
		params    []Value
		abandoned bool
		fails     bool
	}{
		{sql: `SELECT SUM(a + id), AVG(b * 2) FROM vt WHERE a > 5`},
		{sql: `SELECT a, MIN(-b), COUNT(a + b) FROM vt GROUP BY a`},
		{sql: `SELECT id FROM vt WHERE b + id > ? AND id % 2 = 0`, params: []Value{NewInt(100)}},
		{sql: `SELECT id * 2, -b FROM vt WHERE a > 40`},
		{sql: `SELECT id, a FROM vt WHERE a > 3 ORDER BY a DESC LIMIT 5`},
		{sql: `SELECT x.a FROM (SELECT a FROM vt WHERE id < 10) x`},
		{sql: `SELECT id FROM vt WHERE a = (SELECT MAX(a + 1) FROM vt WHERE id < 1000) - 1`},
		{sql: `SELECT SUM(a / b) FROM vt WHERE id <> 40`},
		{sql: `SELECT SUM(a / b) FROM vt`, abandoned: true},         // b = 0 at id 40
		{sql: `SELECT SUM(a / (b - 200)) FROM vt`, abandoned: true}, // b = 200 at id 1 640, in the second chunk
		{sql: `SELECT SUM(a + ?) FROM vt`, params: []Value{Null}, abandoned: true},
		{sql: `SELECT id / a FROM vt WHERE id < 60`, fails: true}, // a = 0 at id 50
		{sql: `SELECT id FROM vt WHERE a % ? = 1`, params: []Value{NewInt(0)}, abandoned: true},
		{sql: `SELECT id FROM vt WHERE a > 'abc'`, abandoned: true},
	} {
		before := e.VectorStats()
		_, err := e.NewSession().Execute(tc.sql, tc.params...)
		after := e.VectorStats()
		switch {
		case tc.abandoned && after.Fallbacks != before.Fallbacks+1:
			t.Fatalf("%s: fallbacks %d -> %d, want one more (err=%v)", tc.sql, before.Fallbacks, after.Fallbacks, err)
		case !tc.abandoned && (tc.fails != (err != nil) || after.Fallbacks != before.Fallbacks || after.Batches == before.Batches):
			t.Fatalf("%s: did not run on the kernels: %+v -> %+v (err=%v)", tc.sql, before, after, err)
		}
	}
	// The derived table's range skips chunks like the statement would.
	before := e.VectorStats()
	if _, err := e.Exec(`SELECT COUNT(*) FROM (SELECT id FROM vt WHERE id BETWEEN 3 AND 9) x JOIN vt y ON x.id = y.id`); err != nil {
		t.Fatal(err)
	}
	if skipped := e.VectorStats().ChunksSkipped - before.ChunksSkipped; skipped != 2 {
		t.Fatalf("derived table skipped %d chunks, want 2", skipped)
	}
}

// TestNestedBlocksArePlannedOnce: the plans of a statement's nested
// blocks are built when it is prepared, reused by every execution, and
// dropped with the schema epoch; a correlated subquery is planned then
// too, and executing it for every outer row runs that plan and plans
// nothing.
func TestNestedBlocksArePlannedOnce(t *testing.T) {
	e := planEngine(t, 60)
	const sql = `SELECT x.id, (SELECT MAX(k) FROM rng) FROM (SELECT id, k FROM rng WHERE k > 3) x ` +
		`WHERE EXISTS (SELECT 1 FROM rng i WHERE i.id = x.k) UNION ALL SELECT id, k FROM rng WHERE k_noix = 2`
	prep, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	head := prep.stmt.(*SelectStmt)
	first := prep.blocks.m[head].plan.firstArm
	if first == nil || prep.blocks.m[first] == nil {
		t.Fatalf("UNION head has no planned first arm: %+v", prep.blocks.m[head])
	}
	derived := first.From.Subquery
	scalar := first.Items[1].Expr.(*SubqueryExpr).Select
	correlated := first.Where.(*ExistsExpr).Select
	arm2 := head.Unions[0].Sel
	if len(prep.blocks.m) != 6 {
		t.Fatalf("planned %d blocks, want 6 (head, two arms, derived, scalar, correlated)", len(prep.blocks.m))
	}
	for name, want := range map[string]struct {
		sel *SelectStmt
		agg bool
	}{
		"derived table": {derived, false},
		"scalar":        {scalar, true},
		"arm 1":         {first, false}, // its FROM is a derived table
		"arm 2":         {arm2, false},
		"correlated":    {correlated, false},
	} {
		bp := prep.blocks.m[want.sel]
		if bp == nil || bp.plan == nil || (bp.plan.group != nil && bp.plan.group.chunked) != want.agg {
			t.Fatalf("%s: planned as %+v", name, bp)
		}
	}
	snapshot := func(p *Prepared) map[*SelectStmt]blockPlan {
		m := map[*SelectStmt]blockPlan{}
		for sel, bp := range p.blocks.m {
			m[sel] = blockPlan{plan: bp.plan}
		}
		return m
	}
	same := func(a, b map[*SelectStmt]blockPlan) bool {
		if len(a) != len(b) {
			return false
		}
		for sel, x := range a {
			if y := b[sel]; x.plan != y.plan {
				return false
			}
		}
		return true
	}

	// Re-execution — the correlated subquery runs once per outer row —
	// finds the same Prepared, with the same plans, and plans nothing.
	built, misses := snapshot(prep), e.PlanCacheStats().Misses
	want := dumpSet(e.MustExec(sql).Set)
	for i := 0; i < 3; i++ {
		if got := dumpSet(e.MustExec(sql).Set); got != want {
			t.Fatalf("execution %d diverged:\n%s\nwant:\n%s", i, got, want)
		}
	}
	again, err := e.Prepare(sql)
	if err != nil || again != prep || !same(built, snapshot(again)) || e.PlanCacheStats().Misses != misses {
		t.Fatalf("plans did not survive re-execution: same prepared=%v same plans=%v misses %d -> %d (err=%v)",
			again == prep, same(built, snapshot(again)), misses, e.PlanCacheStats().Misses, err)
	}
	execBothWays(t, e, sql)

	// Every outer row runs the correlated block on the record Prepare
	// built: swap in the plan of a block that never matches and the first
	// arm's rows go, swap it back and they return.
	e.db.mu.RLock()
	neverSel := mustParse(t, `SELECT 1 FROM rng i WHERE 1 = 0`).(*SelectStmt)
	never := e.db.planStatement(neverSel).m[neverSel]
	e.db.mu.RUnlock()
	kept := prep.blocks.m[correlated]
	prep.blocks.m[correlated] = never
	got, arm2Only := e.MustExec(sql).Set.Rows, e.MustExec(`SELECT id, k FROM rng WHERE k_noix = 2`).Set.Rows
	if dumpSet(&ResultSet{Rows: got}) != dumpSet(&ResultSet{Rows: arm2Only}) {
		t.Fatalf("the correlated block did not run on its prepared record: %d rows, want arm 2's %d", len(got), len(arm2Only))
	}
	prep.blocks.m[correlated] = kept
	if got := dumpSet(e.MustExec(sql).Set); got != want {
		t.Fatalf("after restoring the record:\n%s\nwant:\n%s", got, want)
	}

	// DDL moves the epoch: the old plans are not dispatched any more and
	// the next Prepare builds new ones.
	e.MustExec(`CREATE INDEX rng_noix ON rng (k_noix)`)
	e.db.mu.RLock()
	stale := prep.blocks.block(derived, e.db)
	e.db.mu.RUnlock()
	if stale != nil {
		t.Fatal("a block plan from before the DDL is still dispatched")
	}
	if res, err := e.NewSession().ExecutePrepared(context.Background(), prep); err != nil || dumpSet(res.Set) != want {
		t.Fatalf("stale prepared statement: err=%v", err)
	}
	fresh, err := e.Prepare(sql)
	if err != nil || fresh == prep || fresh.blocks.epoch == prep.blocks.epoch {
		t.Fatalf("DDL did not drop the nested plans (err=%v)", err)
	}
	if bp := fresh.blocks.m[fresh.stmt.(*SelectStmt).Unions[0].Sel]; bp.plan == nil || bp.plan.access != accessOrderedPoint {
		t.Fatalf("arm 2 was not re-planned onto the new index: %+v", bp)
	}
	if got := dumpSet(e.MustExec(sql).Set); got != want {
		t.Fatalf("after DDL:\n%s\nwant:\n%s", got, want)
	}
}

// TestDefaultBlocksArePlannedWithTheInsert: a subquery in a column
// default is planned with the INSERT that reads it — a literal INSERT,
// which Prepare leaves unplanned, as it starts, once, not for each row it
// inserts.
func TestDefaultBlocksArePlannedWithTheInsert(t *testing.T) {
	e := planEngine(t, 60)
	e.MustExec(`CREATE TABLE dflt (id INTEGER, n INTEGER DEFAULT (SELECT COUNT(*) FROM rng WHERE k = 3))`)
	withDefault, err := e.Prepare(`INSERT INTO dflt (id) VALUES (1), (2), (3)`)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Prepare(`INSERT INTO rng (id) VALUES (1000)`)
	if err != nil {
		t.Fatal(err)
	}
	if withDefault.blocks != nil || plain.blocks != nil {
		t.Fatal("a literal INSERT was planned at Prepare")
	}
	s := e.NewSession()
	e.db.mu.RLock()
	s.prep = withDefault
	got := s.blocks(withDefault.stmt)
	s.prep = plain
	gotPlain := s.blocks(plain.stmt)
	s.prep = nil
	e.db.mu.RUnlock()
	def := e.db.tables["dflt"].Columns[1].Default.(*SubqueryExpr).Select
	if got == nil || got.m[def] == nil || got.m[def].plan == nil {
		t.Fatal("the default's subquery is not planned with the INSERT")
	}
	if gotPlain != nil {
		t.Fatal("a literal INSERT into a table without default subqueries has plans")
	}
	if _, err := s.ExecutePrepared(context.Background(), withDefault); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.MustExec(`SELECT id, n FROM dflt ORDER BY id`).Set.Rows {
		if r[1].Type != TypeInteger || r[1].I != 3 {
			t.Fatalf("row %v: the default counted %v rows with k = 3, want 3", r[0], r[1])
		}
	}
}

// selectFuzz draws SELECT statements over dmlFuzz's schema: every
// projection, aggregate, ordering and nesting shape the block plans and
// the expression kernels cover, beside shapes the kernels must refuse.
type selectFuzz struct{ *dmlFuzz }

// numExpr draws arithmetic over the numeric columns, some of it with
// row-independent terms; safe keeps every divisor a non-zero constant.
func (g selectFuzz) numExpr(safe bool) (string, []Value) {
	switch g.r.Intn(16) {
	case 0:
		return `a + id`, nil
	case 1:
		return `a * 2`, nil
	case 2:
		return g.pick(`-a`, `-u`), nil // -u is outside BIGINT where u holds bigintEdge's MinInt64
	case 3:
		return `b * 2 - a`, nil
	case 4:
		return `a % 3`, nil
	case 5:
		return `id - ?`, []Value{g.intVal()}
	case 6:
		return `b + ?`, []Value{g.dblVal()}
	case 7:
		return `u * 4611686018427387904`, nil // outside BIGINT on some rows
	case 8:
		return `-b / 4`, nil
	case 9:
		if !safe {
			return g.pick(`id / a`, `b / a`, `u % (a - 7)`), nil // zero divisors on some rows
		}
		return `(a + 1) * (id % 5)`, nil
	case 10:
		return `a % ?`, []Value{NewInt(int64(g.r.Intn(4)))} // sometimes a zero constant divisor
	case 11:
		return `a + (? + 1)`, []Value{g.intVal()}
	case 12:
		return `id * -?`, []Value{g.intVal()}
	case 13:
		return g.pick(`b - ABS(?)`, `a + CAST(? AS DOUBLE)`), []Value{g.pickVal(g.intVal(), g.dblVal())}
	case 14:
		if !safe {
			return `id + 1 / ?`, []Value{NewInt(int64(g.r.Intn(3)))} // a constant that fails to evaluate at 0
		}
		return `id - 60 / ?`, []Value{NewInt(int64(1 + g.r.Intn(3)))}
	}
	return `id`, nil
}

// bigintEdge draws a BIGINT at or near the ends of its range.
func (g selectFuzz) bigintEdge() Value {
	return g.pickVal(NewBigint(1<<62), NewBigint(-1<<62), NewBigint(math.MaxInt64), NewBigint(math.MinInt64))
}

// predicate draws a WHERE clause: dmlFuzz's classes or a computed one,
// alone or beside a row-independent conjunct or disjunct.
func (g selectFuzz) predicate() (string, []Value) {
	if g.r.Intn(3) > 0 {
		return g.where()
	}
	x, xp := g.numExpr(g.r.Intn(4) > 0)
	switch g.r.Intn(7) {
	case 0:
		return x + ` > ?`, append(xp, g.intVal())
	case 1:
		return `? <= ` + x, append([]Value{g.dblVal()}, xp...)
	case 2:
		return x + ` BETWEEN ? AND ?`, append(xp, g.intVal(), NewInt(int64(g.r.Intn(400))))
	case 3:
		return `(` + x + `) IS NULL`, xp
	case 5:
		return `1 = 1 AND ` + x + ` < ?`, append(xp, g.intVal())
	case 6:
		return `? IS NULL OR ` + x + ` >= ?`, slices.Concat([]Value{g.intVal()}, xp, []Value{g.dblVal()})
	}
	return x + ` IN (?, 4, ?)`, append(xp, g.intVal(), g.dblVal())
}

func (g selectFuzz) whereClause() (string, []Value) {
	w, p := g.predicate()
	if w == "" {
		return "", nil
	}
	return ` WHERE ` + w, p
}

func (g selectFuzz) statement() (string, []Value) {
	w, wp := g.whereClause()
	switch g.r.Intn(22) {
	case 0:
		return `SELECT * FROM t` + w, wp
	case 1:
		return `SELECT id, s, b FROM t` + w, wp
	case 2:
		x, xp := g.numExpr(false)
		y, yp := g.numExpr(true)
		return `SELECT id, ` + x + `, ` + y + ` FROM t` + w, slices.Concat(xp, yp, wp)
	case 3:
		x, xp := g.numExpr(false)
		agg := g.pick("SUM", "AVG", "MIN", "MAX", "COUNT")
		return `SELECT COUNT(*), ` + agg + `(` + x + `), SUM(a), MAX(s) FROM t` + w, append(xp, wp...)
	case 4:
		return g.groupStatement(w, wp)
	case 5: // top-K: ties on a and s, NaN keys in b, big limits
		order := g.pick("a", "a DESC, id", "s, a DESC", "b", "b DESC, id", "2", "id DESC", "a + id")
		lim := g.pickVal(NewInt(0), NewInt(3), NewInt(17), NewInt(40), NewInt(5000), NewInt(-1), NewInt(math.MaxInt64))
		sql := `SELECT id, a, s, b FROM t` + w + ` ORDER BY ` + order + ` LIMIT ?`
		if g.r.Intn(2) == 0 {
			return sql + ` OFFSET ?`, append(wp, lim, NewInt(int64(g.r.Intn(30))))
		}
		return sql, append(wp, lim)
	case 6:
		return `SELECT x.a, COUNT(*), SUM(x.id) FROM (SELECT id, a FROM t` + w + `) x GROUP BY x.a ORDER BY 1`, wp
	case 7:
		w2, wp2 := g.whereClause()
		return `SELECT x.id, y.s FROM (SELECT id, a FROM t` + w + `) x JOIN (SELECT id, s FROM t` + w2 + `) y ON x.id = y.id`, append(wp, wp2...)
	case 8:
		return `SELECT id, b FROM live` + w, wp // a view over t
	case 9:
		return `SELECT v.id, t.s FROM live v JOIN t ON v.id = t.id` + strings.Replace(w, " WHERE ", " WHERE t.u >= 0 AND ", 1), wp
	case 10:
		w2, wp2 := g.whereClause()
		return `SELECT id, a FROM t` + w + g.pick(" UNION ", " UNION ALL ") + `SELECT id, a FROM t` + w2 + ` ORDER BY 1, 2 LIMIT 50`, append(wp, wp2...)
	case 11, 12:
		// An uncorrelated subquery runs once per outer row: keep the outer
		// rows few.
		lo := g.r.Int63n(g.nextID + 1)
		outer := []Value{NewInt(lo), NewInt(lo + 40)}
		if g.r.Intn(2) == 0 {
			return `SELECT id FROM t WHERE id >= ? AND id < ? AND a ` + g.pick("", "NOT ") + `IN (SELECT a FROM t` + w + `)`, append(outer, wp...)
		}
		x, xp := g.numExpr(true)
		return `SELECT id, (SELECT MAX(` + x + `) FROM t` + w + `) FROM t WHERE id >= ? AND id < ?`, slices.Concat(xp, wp, outer)
	case 13: // DISTINCT, alone, ordered and limited, or ordered by a column it may not project
		sql := `SELECT DISTINCT ` + g.pick("a", "a, s", "s, b", "a % 3", "s") + ` FROM t` + w
		switch g.r.Intn(3) {
		case 0:
			return sql + ` ORDER BY 1 DESC LIMIT ?`, append(wp, NewInt(int64(g.r.Intn(30))))
		case 1:
			return sql + ` ORDER BY ` + g.pick("a", "a DESC", "s DESC", "id"), wp
		}
		return sql, wp
	case 14: // no FROM: one row, an expression and a scalar subquery over t
		if g.r.Intn(2) == 0 {
			return `SELECT ? + 1`, []Value{g.pickVal(g.intVal(), g.dblVal(), NewString("x"))}
		}
		return `SELECT ? + 1, (SELECT ` + g.pick("COUNT(*)", "MAX(b)", "MIN(s)") + ` FROM t` + w + `)`, append([]Value{g.intVal()}, wp...)
	case 15: // ORDER BY an expression over a select-list alias
		x, xp := g.numExpr(true)
		return `SELECT id, ` + x + ` AS x, s FROM t` + w + ` ORDER BY ` + g.pick("x + id", "-x, id", "x * 2 DESC, s, id") + ` LIMIT ?`,
			slices.Concat(xp, wp, []Value{NewInt(int64(g.r.Intn(60)))})
	case 16, 17: // inner and outer joins of a derived table and the view
		kind := g.pick("", "LEFT ", "RIGHT ")
		on, onp := g.joinOn()
		if g.r.Intn(2) == 0 {
			return `SELECT x.id, y.b FROM (SELECT id, a, b FROM t` + w + `) x ` + kind + `JOIN live y ON ` + on, append(wp, onp...)
		}
		return `SELECT x.id, y.s, y.b FROM live x ` + kind + `JOIN (SELECT id, s, a, b FROM t` + w + `) y ON ` + on, append(wp, onp...)
	case 18, 19: // correlated, in the select list, WHERE and ORDER BY, inside a narrow range
		lo := g.r.Int63n(g.nextID + 1)
		return `SELECT id, (SELECT COUNT(*) FROM t i WHERE i.a = o.a) AS n FROM t o WHERE id >= ? AND id < ? AND EXISTS (SELECT 1 FROM t i WHERE i.id = o.a)` +
			g.pick(``, ` ORDER BY (SELECT MAX(i.b) FROM t i WHERE i.a = o.a) DESC, id`, ` ORDER BY n + id`), []Value{NewInt(lo), NewInt(lo + 40)}
	}
	// Correlated: once for every outer row, inside a narrow range.
	lo := g.r.Int63n(g.nextID + 1)
	return `SELECT id, (SELECT COUNT(*) FROM t i WHERE i.a = o.a) FROM t o WHERE id >= ? AND id < ? AND EXISTS (SELECT 1 FROM t i WHERE i.id = o.a)`,
		[]Value{NewInt(lo), NewInt(lo + 40)}
}

// joinOn draws the ON of a join of x to y, both holding t's id, a and
// b: an equi conjunct on the NULL-able a, on DOUBLE b (NaN, -0 and 0),
// across a and id or across INTEGER and DOUBLE, alone or beside a residual
// — one that fails on the pairs holding the parameter's y.id or x.id,
// whatever their keys, so that a join evaluating it on a pair its key
// rules out fails where the others answer.
func (g selectFuzz) joinOn() (string, []Value) {
	on := g.pick(`x.a = y.a`, `x.b = y.b`, `x.a = y.id`, `y.a = x.id`, `x.a = y.b`, `x.id = y.id`)
	switch g.r.Intn(4) {
	case 0:
		return on + ` AND y.id < 30`, nil
	case 1:
		return on + ` AND 1 / (y.id - ?) > 0`, []Value{g.someID()}
	case 2:
		return `1 / (x.id - ?) > 0 AND ` + on, []Value{g.someID()}
	}
	return on, nil
}

// groupStatement draws a grouped aggregate under the WHERE clause w over
// one of dmlFuzz's key shapes: a narrow integer key (a, 0 to 39), one
// about a chunk wide per chunk until duplicates and moved keys widen it
// (id), a wide one (u, ten apart), VARCHAR, DOUBLE and two-column keys, an
// expression, or none — the implicit group, sometimes over no rows. Its
// items are aggregates, expressions over them, DISTINCT aggregates and
// bare columns; HAVING may come without GROUP BY, and ORDER BY may name
// an alias or an aggregate. Without ORDER BY, groups come in
// first-appearance order.
func (g selectFuzz) groupStatement(w string, wp []Value) (string, []Value) {
	switch g.r.Intn(10) {
	case 0: // scan_agg's join template over t and the view
		return `SELECT v.b, COUNT(*), SUM(f.u) FROM (SELECT a, u FROM t` + w + `) f JOIN live v ON f.a = v.id GROUP BY v.b`, wp
	case 1: // a correlated subquery in the select list, run for every group
		return `SELECT a, COUNT(*), (SELECT COUNT(*) FROM t i WHERE i.a = o.a) AS n FROM t o` + w + ` GROUP BY a` +
			g.pick(``, ` ORDER BY n DESC, 1`, ` HAVING (SELECT MAX(i.id) FROM t i WHERE i.a = o.a) > 40`), wp
	}
	key := g.pick("a", "id", "u", "s", "b", "a, s", "u, a", "s, id", "a % 3", "")
	var items []string
	if key != "" {
		items = append(items, key)
	} else if g.r.Intn(3) == 0 {
		w, wp = ` WHERE id < 0`, nil // the implicit group over no rows
	}
	var params []Value
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		switch g.r.Intn(10) {
		case 0:
			items = append(items, "COUNT(*)")
		case 1:
			items = append(items, g.pick("COUNT(a)", "COUNT(b)", "COUNT(s)"))
		case 2:
			items = append(items, g.pick("SUM(a)", "SUM(u)", "SUM(b)", "AVG(a)", "AVG(b)"))
		case 3:
			items = append(items, g.pick("MIN(a)", "MAX(u)", "MIN(b)", "MAX(b)", "MIN(s)", "MAX(s)"))
		case 4:
			items = append(items, g.pick("SUM(a) + COUNT(*)", "-MAX(b)", "CAST(COUNT(*) AS DOUBLE)", "MAX(id) - MIN(id)"))
		case 5:
			items = append(items, g.pick("COUNT(DISTINCT s)", "SUM(DISTINCT u)", "COUNT(DISTINCT a % 5)", "AVG(DISTINCT b)"))
		case 6: // a bare column: the group's first row's
			items = append(items, g.pick("s", "b", "id", "u + 1"))
		default:
			x, xp := g.numExpr(true)
			items = append(items, g.pick("SUM", "AVG", "MIN", "MAX", "COUNT")+"("+x+")")
			params = append(params, xp...)
		}
	}
	aliased := g.r.Intn(2) == 0
	if aliased {
		items[len(items)-1] += " AS n"
	}
	sql := `SELECT ` + strings.Join(items, ", ") + ` FROM t` + w
	if key != "" {
		sql += ` GROUP BY ` + key
	}
	params = append(params, wp...)
	if g.r.Intn(3) == 0 {
		sql += ` HAVING ` + g.pick("COUNT(*) > ?", "SUM(a) > ?", "MIN(b) < ?", "MAX(id) - MIN(id) >= ?", "COUNT(DISTINCT s) > ?")
		params = append(params, g.intVal())
	}
	switch g.r.Intn(6) {
	case 0:
		sql += ` ORDER BY 1, 2`
	case 1:
		sql += ` ORDER BY 2 DESC, 1 LIMIT ?`
		params = append(params, NewInt(int64(g.r.Intn(20))))
	case 2:
		sql += ` LIMIT ? OFFSET ?`
		params = append(params, NewInt(int64(g.r.Intn(30))), NewInt(int64(g.r.Intn(10))))
	case 3:
		if aliased {
			sql += ` ORDER BY n DESC, 1`
			break
		}
		fallthrough
	case 4:
		sql += ` ORDER BY ` + g.pick("COUNT(*) DESC, 1", "SUM(a), 1 DESC", "MAX(b) - MIN(b), 1")
	}
	return sql, params
}

// TestChaosSelectDifferential drives seeded random SELECTs over random
// schemas and data — TestChaosDMLDifferential's generator — through the
// vector, row and interpreter paths of one engine and requires identical
// rows, communication areas and error text, with random writes in
// between so the chunk cache goes stale and schema changes so the plans
// do. It then checks what no path can get right by agreeing with
// another: every answer to an ORDER BY is sorted (checkSorted), no block's
// EXPLAIN says it is interpreted, and the rows a predicate accepts,
// rejects and leaves unknown partition the table.
func TestChaosSelectDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel() // the path switches are the engine's own
			selectDifferential(t, seed, chunkRows+400, 150)
		})
	}
}

// FuzzSelectPaths maps a seed to a short selectDifferential run: twenty
// generated statements, with writes and schema changes between them, over
// a table of 300 rows — small enough that a fuzzer tries many schemas and
// data sets a second. The seeds below run with the tier-1 tests.
func FuzzSelectPaths(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	// Joins whose ON divides by zero on a pair with a NULL key (29) or
	// with unequal ones (52): answered where candidates were listed
	// through the hash table, failed where every pair was tried.
	f.Add(int64(29))
	f.Add(int64(52))
	f.Fuzz(func(t *testing.T, seed int64) { selectDifferential(t, seed, 300, 20) })
}

func selectDifferential(t *testing.T, seed int64, rows, statements int) {
	g := selectFuzz{&dmlFuzz{r: rand.New(rand.NewSource(seed))}}
	e := New("select-chaos")
	schema := g.schema()
	for _, ddl := range schema {
		e.MustExec(ddl)
	}
	e.MustExec(`CREATE VIEW live AS SELECT id, a, b FROM t WHERE a IS NOT NULL`)
	s := e.NewSession()
	// A third of the runs put a few BIGINT edge values in u, so that SUM(u)
	// leaves BIGINT's range and every path must fail it alike.
	edges := g.r.Intn(3) == 0
	for i := 0; i < rows; i++ {
		sql, params := g.insert()
		if edges && g.r.Intn(rows) < 4 {
			params[4] = g.bigintEdge()
		}
		_, _ = s.Execute(sql, params...) // a duplicate key just does not land
	}
	// aggs reads, over the rows a WHERE selects, the aggregates whose value
	// over a table is a combination of their values over a partition of it:
	// counts, SUMs of the integer columns (added in 64-bit wrap-around,
	// which gives the exact total whenever the table's is inside BIGINT)
	// and MIN/MAX of the columns other than DOUBLE b. b has neither
	// property: its SUM over a part is rounded, so parts' SUMs do not add
	// up to the whole's, and its MIN or MAX may be -0 over one part and 0
	// over another, equal but rendered apart. What b does have — one
	// answer whatever order its rows are visited in — checkPermuted holds.
	const aggs = `SELECT COUNT(*), COUNT(a), SUM(a), SUM(id), SUM(u), MIN(a), MIN(s), MIN(id), MAX(a), MAX(s), MAX(id) FROM t`
	read := func(where string, params []Value) ([]Value, bool) {
		res, err := s.Execute(aggs+where, params...)
		if err != nil {
			return nil, false
		}
		return res.Set.Rows[0], true
	}
	for i := 0; i < statements; i++ {
		switch k := g.r.Intn(20); {
		case k == 0: // moves the schema epoch: every cached plan is dropped
			_, _ = s.Execute(g.pick(`CREATE INDEX fz_a ON t (a)`, `DROP INDEX fz_a`, `CREATE ORDERED INDEX fz_id ON t (id)`, `DROP INDEX fz_id`))
		case k < 4: // leaves chunks stale
			inTxn := false
			sql, params := g.dmlFuzz.statement(&inTxn)
			if inTxn {
				sql, params = g.insert()
			}
			_, _ = s.Execute(sql, params...)
		}
		sql, params := g.statement()
		checkSorted(t, sql, execAllPaths(t, e, sql, params...))
		if lines, err := s.Explain(sql); err != nil || strings.Contains(strings.Join(lines, "\n"), "interpreted") {
			t.Fatalf("seed %d: EXPLAIN %s (err=%v):\n%s", seed, sql, err, strings.Join(lines, "\n"))
		}

		p, pp := g.predicate()
		if p == "" {
			continue
		}
		all, ok := read(``, nil)
		if !ok {
			continue // a SUM outside BIGINT
		}
		var parts [][]Value
		for _, w := range []string{` WHERE ` + p, ` WHERE NOT (` + p + `)`, ` WHERE (` + p + `) IS NULL`} {
			// A predicate that fails on some row fails only where that row is
			// visited (an index probe for p may never see it): the identity is
			// about predicates that evaluate everywhere.
			part, ok := read(w, pp)
			if !ok {
				parts = nil
				break
			}
			parts = append(parts, part)
		}
		if parts == nil {
			continue
		}
		if got, want := dumpSet(&ResultSet{Rows: [][]Value{combinePartials(parts)}}), dumpSet(&ResultSet{Rows: [][]Value{all}}); got != want {
			t.Fatalf("seed %d: %s %v: accepted, rejected and unknown rows combine to\n%s, the table holds\n%s", seed, p, pp, got, want)
		}
	}
	checkPermuted(t, seed, e, schema)
}

// checkPermuted is the permutation identity: t's rows loaded into a fresh
// engine in a shuffled order, so that they land in other pages and are
// visited in another order, answer SUM, AVG and COUNT over DOUBLE b —
// whole and per group — in the same bytes, and MIN and MAX of b equal
// under Compare (−0 and 0 may trade places).
func checkPermuted(t *testing.T, seed int64, e *Engine, schema []string) {
	t.Helper()
	rows, err := e.NewSession().Execute(`SELECT id, a, b, s, u FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	p := New("permuted")
	for _, ddl := range schema {
		p.MustExec(ddl)
	}
	ps := p.NewSession()
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(rows.Set.Rows)) {
		if _, err := ps.Execute(`INSERT INTO t VALUES (?, ?, ?, ?, ?)`, rows.Set.Rows[i]...); err != nil {
			t.Fatalf("seed %d: reloading %v: %v", seed, rows.Set.Rows[i], err)
		}
	}
	answer := func(e *Engine, sql string) *ResultSet {
		res, err := e.NewSession().Execute(sql)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, sql, err)
		}
		return res.Set
	}
	for _, sql := range []string{
		`SELECT COUNT(*), COUNT(b), SUM(b), AVG(b) FROM t`,
		`SELECT a, COUNT(b), SUM(b), AVG(b) FROM t GROUP BY a ORDER BY a`,
		`SELECT SUM(b), AVG(b) FROM t WHERE a > 5`,
		`SELECT s, SUM(b + a), AVG(b * 2) FROM t GROUP BY s ORDER BY s`,
	} {
		if got, want := dumpSet(execAllPaths(t, p, sql)), dumpSet(answer(e, sql)); got != want {
			t.Fatalf("seed %d: %s over the rows reloaded in another order:\n%s\nin the original order:\n%s", seed, sql, got, want)
		}
	}
	for _, sql := range []string{`SELECT MIN(b), MAX(b) FROM t`, `SELECT a, MIN(b), MAX(b) FROM t GROUP BY a ORDER BY a`} {
		got, want := execAllPaths(t, p, sql), answer(e, sql)
		same := len(got.Rows) == len(want.Rows)
		for r := 0; same && r < len(want.Rows); r++ {
			for c := range want.Rows[r] {
				if cmp, _ := Compare(got.Rows[r][c], want.Rows[r][c]); cmp != 0 {
					same = false
				}
			}
		}
		if !same {
			t.Fatalf("seed %d: %s over the rows reloaded in another order:\n%v\nin the original order:\n%v", seed, sql, got.Rows, want.Rows)
		}
	}
}

// checkSorted fails the test when the answer to a statement with ORDER
// BY is out of order — the check no path can pass by agreeing with
// another. Each key that is an output column, by ordinal or by a name
// exactly one output column has, must be non-decreasing under cmpKeys
// (non-increasing under DESC) among rows whose earlier keys are equal;
// the keys from the first that is no output column on are not checked.
func checkSorted(t *testing.T, sql string, set *ResultSet) {
	t.Helper()
	st, _, err := Parse(sql)
	sel, ok := st.(*SelectStmt)
	if err != nil || !ok || set == nil {
		return
	}
	var cols []int
	var desc []bool
	for _, oi := range sel.OrderBy {
		c, ok := ordinalRef(oi.Expr, len(set.Columns))
		if !ok {
			ce, isCol := oi.Expr.(*ColumnExpr)
			if !isCol {
				break
			}
			matches := 0
			for i, rc := range set.Columns {
				if strings.EqualFold(rc.Name, ce.Column) && (ce.Table == "" || strings.EqualFold(rc.Table, ce.Table)) {
					c, matches = i, matches+1
				}
			}
			if matches != 1 {
				break
			}
		}
		cols, desc = append(cols, c), append(desc, oi.Desc)
	}
	for r := 1; r < len(set.Rows); r++ {
		for k, c := range cols {
			cmp := cmpKeys(set.Rows[r-1][c], set.Rows[r][c])
			if desc[k] {
				cmp = -cmp
			}
			if cmp > 0 {
				t.Fatalf("%s: rows %d and %d are out of order on key %d:\n%v\n%v", sql, r-1, r, k+1, set.Rows[r-1], set.Rows[r])
			}
			if cmp < 0 {
				break
			}
		}
	}
}

// combinePartials combines rows of selectDifferential's aggs read over
// the parts of a partition: the two counts and three SUMs add (a NULL SUM
// is a part without values), the three MINs and three MAXes take the
// least or greatest non-NULL partial.
func combinePartials(parts [][]Value) []Value {
	out := make([]Value, len(parts[0]))
	for c := range out {
		out[c] = Null
		if c < 2 {
			out[c] = NewBigint(0)
		}
		for _, part := range parts {
			v := part[c]
			switch {
			case v.IsNull():
			case out[c].IsNull():
				out[c] = v
			case c < 5:
				out[c] = NewBigint(out[c].I + v.I)
			default:
				cmp, _ := Compare(v, out[c])
				if c < 8 && cmp < 0 || c >= 8 && cmp > 0 {
					out[c] = v
				}
			}
		}
	}
	return out
}
