package sqlengine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// accessKind enumerates the physical access paths a compiled plan can
// bind for its base table.
type accessKind int

const (
	accessFullScan     accessKind = iota // every page, rowID ascending
	accessOrderedPoint                   // index equality probe
	accessOrderedRange                   // index range scan
	accessOrderedScan                    // full ordered iteration (ORDER BY)
)

func (k accessKind) String() string {
	switch k {
	case accessOrderedPoint:
		return "ordered point lookup"
	case accessOrderedRange:
		return "ordered range scan"
	case accessOrderedScan:
		return "ordered full scan"
	}
	return "full scan"
}

// planBound is one side of a compiled range predicate. The bound value
// is a constant (see constExpr) evaluated per execution; if it fails to
// evaluate, is NULL or is not comparable with the column type the scan
// widens — the filter stage re-applies the full WHERE predicate either
// way.
type planBound struct {
	expr Expr
	incl bool
}

// orderKeyKind classifies one compiled ORDER BY key.
type orderKeyKind int

const (
	orderKeyProjected orderKeyKind = iota // key = projected value at idx
	orderKeyExpr                          // key = eval(expr) per input row
)

type planOrderKey struct {
	kind orderKeyKind
	idx  int
	expr Expr
	desc bool
}

// blockSource is one table reference of a block: a base table, or a
// nested block (a derived table, or a view's body) whose rows are bound
// under the reference's qualifier, or the error reading the reference
// raises (an unknown table, a view that reads itself) — at the point the
// block reads it, not before.
type blockSource struct {
	t     *Table
	sub   *SelectStmt
	cols  []boundColumn
	err   error
	label string // how EXPLAIN names it
}

// joinNode is one compiled join step: the right source bound, its
// bindings appended, the ON expression rewritten to ordinals, and the
// hash-join decision taken at plan time.
type joinNode struct {
	src    *blockSource
	cols   []boundColumn // combined bindings including this join
	clause JoinClause    // clause with the rewritten ON expression
	equi   *equiConjunct // the ON's equi conjunct; nil: every pair is a candidate
}

// accessPath is the physical access bound for one base table. SELECT
// plans and UPDATE/DELETE read their table through it, so both list and
// describe their rows in one vocabulary.
type accessPath struct {
	t      *Table
	access accessKind
	ix     *OrderedIndex
	keyCol int  // ordinal of the access column in the base row
	eq     Expr // equality probe value (point access)
	lo, hi *planBound
	desc   bool // iteration direction when a plan's ORDER BY is satisfied

	// boundsAreWhere is set when the WHERE clause is nothing but the range
	// conjuncts pushed down as lo and hi. If the bounds then bind, the
	// index applies the whole predicate — one that cannot fail on any row
	// — and the residual filter is skipped (see candidates).
	boundsAreWhere bool
}

// tableSource is how one SELECT block whose FROM is one base table with
// no joins, or one UPDATE/DELETE, finds its rows: the table and its
// bindings, the access path chooseIndex picks from the WHERE's bound
// conjuncts, and the conjuncts that may be its keys (bindKeys). The block
// plan — its grouping stage's chunk feeder included — and UPDATE/DELETE
// both read the table through it.
type tableSource struct {
	accessPath
	cols []boundColumn // the table's bindings under its qualifier
	// keys are the WHERE's bound conjuncts in the kernels' class, in source
	// order: its keys in an execution whose operands bind them (bindKeys).
	keys []Expr
	// residual reports a conjunct that is never a key: one that does not
	// bind against the table alone or lies outside the kernels' class.
	residual bool
}

// planSource plans the source of one base-table reference, or returns
// nil when tr names no base table (no FROM, a derived table, a view, an
// unknown name). The access path reads the WHERE one conjunct at a time,
// so a conjunct that does not resolve against the table (a correlated
// one) leaves the others their index.
func (d *Database) planSource(tr *TableRef, where Expr) *tableSource {
	if tr == nil || tr.Subquery != nil {
		return nil
	}
	if _, isView := d.views[strings.ToLower(tr.Table)]; isView {
		return nil
	}
	t, err := d.table(tr.Table)
	if err != nil {
		return nil
	}
	s := &tableSource{accessPath: accessPath{t: t, keyCol: -1}, cols: columnsOf(t, tr.qualifier())}
	if where == nil {
		return s
	}
	var conjuncts []Expr
	collectConjuncts(where, &conjuncts)
	bound := make([]Expr, len(conjuncts))
	for i, c := range conjuncts {
		w, ok := rewriteExpr(c, s.cols)
		if ok {
			bound[i] = w
		}
		if ok && kernelPred(w, t) {
			s.keys = append(s.keys, w)
		} else {
			s.residual = true
		}
	}
	s.chooseIndex(bound)
	return s
}

// whereKeys is a source's WHERE bound for one execution (bindKeys).
type whereKeys struct {
	vec boundVec // the kernel filter: the AND of the keys that bind; nil when none does
	// keys are the keys that bind when perRow is set, which a row path
	// tests on each row before the WHERE (decide); nil otherwise.
	keys []Expr
	// perRow reports that the WHERE must still run on each candidate: a
	// conjunct is no key (residual), or a key did not bind.
	perRow bool
}

// bindKeys binds the keys of the source's WHERE for one execution: its
// top-level conjuncts that bind against the table alone (rewriteExpr),
// lie in the kernels' error-free class (kernelPred) and whose operands
// bind with params (bindVecPred) — so that none can fail on any row. A
// key that does not bind is no key in this execution. A row is a
// candidate when every key is TRUE on it, and the WHERE decides the
// candidates only (decide): the index probe, the zone maps and the
// kernels are faster ways to list them (candidates). Without perRow the
// keys are the whole WHERE, which then cannot fail. Plans, UPDATE/DELETE
// and the test oracle all bind by it.
func (s *tableSource) bindKeys(params []Value) whereKeys {
	wk := whereKeys{keys: s.keys, perRow: s.residual}
	for i, k := range s.keys {
		b, ok := bindVecPred(k, params, s.t)
		switch {
		case !ok && len(wk.keys) == len(s.keys): // the first that does not bind
			wk.keys, wk.perRow = slices.Clone(s.keys[:i]), true
			continue
		case !ok:
			continue
		case len(wk.keys) < len(s.keys): // keys is that copy now
			wk.keys = append(wk.keys, k)
		}
		if wk.vec == nil {
			wk.vec = b
		} else {
			wk.vec = &bvLogic{l: wk.vec, r: b, dom: triF}
		}
	}
	if !wk.perRow {
		wk.keys = nil
	}
	return wk
}

// decide reports whether a row is in a WHERE's result under the candidate
// rule: every key (see bindKeys) is TRUE on it, then the WHERE is. A
// key cannot fail, so an error is the WHERE's, on a candidate.
func decide(env *evalEnv, keys []Expr, where Expr, row []Value) (bool, error) {
	for _, k := range keys {
		if ok, err := decide(env, nil, k, row); !ok || err != nil {
			return false, err
		}
	}
	env.row = row
	v, err := eval(where, env)
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// columnsOf binds a table's columns under a qualifier.
func columnsOf(t *Table, qual string) []boundColumn {
	cols := make([]boundColumn, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = boundColumn{qualifier: qual, name: strings.ToLower(c.Name), typ: c.Type, origName: c.Name}
	}
	return cols
}

// qualifier is the name a table reference's columns are qualified by.
func (tr *TableRef) qualifier() string {
	if tr.Alias != "" {
		return strings.ToLower(tr.Alias)
	}
	return strings.ToLower(tr.Table)
}

// selectPlan is the compiled physical plan of one SELECT block: every
// column reference the block binds resolved to a row ordinal, its
// sources, access path and join strategies chosen, and the stages after
// the filter — grouping, projection, DISTINCT, order and limit —
// pre-bound. Every block has one; execPlan runs it. A plan is immutable
// after construction and is only runnable while the database's schema
// epoch matches the one it was built against.
type selectPlan struct {
	sel   *SelectStmt
	epoch uint64

	// firstArm is set for a UNION: the head's first arm as a block of its
	// own (see unionFirstArm); the arms are planned blocks and execUnion
	// runs them. Nothing below is then set but projCols and explain.
	firstArm *SelectStmt

	// from is the FROM reference; nil without one (one empty row).
	from *blockSource
	// accessPath is src's, widened to an ordered full scan when that
	// replaces the sort.
	accessPath
	// src is the source of a FROM that is a base table; with joins, the
	// base table's alone, whose access is a full scan.
	src *tableSource

	joins []joinNode
	cols  []boundColumn // final combined bindings

	where Expr // rewritten filter, nil when absent
	// whereErr is raised once the sources are read, before any row is
	// filtered: an aggregate in WHERE.
	whereErr error
	// group is a grouped block's grouping stage, nil for any other: the
	// projection, HAVING and ORDER BY keys read its group rows (outputExpr).
	group *groupPlan
	// projErr is raised once every row is filtered, where the select list
	// is expanded: `SELECT *` without FROM, `x.*` naming no table.
	projErr   error
	projCols  []ResultColumn
	projExprs []Expr
	outNames  []string // projCols' names, lower-cased: the select-list aliases
	// gather lists the base-row ordinals when the plan has no joins and
	// every projection is a plain column reference (nil otherwise): such
	// a projection cannot fail, so producers copy cells by ordinal
	// instead of calling eval. identity marks the gather that is the
	// table's own column list in order: the output row then is the stored
	// row image, which streaming hands out uncopied.
	gather   []int
	identity bool

	order []planOrderKey
	// aliasOrder marks an ORDER BY with a key that may read a select-list
	// alias: such a key is kept as written, and every key is evaluated
	// with the row's aliases in scope.
	aliasOrder     bool
	orderSatisfied bool // access path already yields ORDER BY order
	// orderCols lists the base column behind each ORDER BY key when the
	// plan has no joins and every key is one (nil otherwise): what a
	// bounded top-K can order by without evaluating anything.
	orderCols []int

	// vector marks a join-free full scan that gains by the kernels — a
	// WHERE with keys (src.keys), a gather, or the chunk feeder's fold: its
	// rows, or its candidates when the WHERE runs per row, may come from the
	// column chunks (see bindScan).
	vector bool

	// unbound notes a name the block's bindings do not resolve: a
	// correlated name, or one that fails when it is evaluated.
	unbound bool

	explain []string
}

// scansTable reports that the block reads one base table and nothing
// else: its rows come through bindScan.
func (p *selectPlan) scansTable() bool { return p.src != nil && len(p.joins) == 0 }

// streamable reports whether the plan can produce rows incrementally: a
// scan of one table (the probe side of a join would need full
// materialisation anyway) that binds every name — a statement's unbound
// name fails, and it fails before a stream opens — projects row by row,
// and has either no ORDER BY or one the access path already satisfies.
func (p *selectPlan) streamable() bool {
	return p.scansTable() && !p.unbound && p.group == nil && !p.sel.Distinct && p.whereErr == nil && p.projErr == nil &&
		(len(p.sel.OrderBy) == 0 || p.orderSatisfied)
}

// planSelect compiles a SELECT block that is not a UNION into its plan.
// Its derived tables and views must be planned in bps already: their
// plans give the columns they bind. Planning never fails: what cannot
// bind — a name that does not resolve, an unknown table, a select list
// that does not expand — raises its error when the block runs, at the
// point the statement reaches it. The caller must hold d.mu for reading.
func (d *Database) planSelect(sel *SelectStmt, bps *blockPlans) *selectPlan {
	p := &selectPlan{sel: sel, epoch: d.epoch}
	if sel.From != nil {
		p.from = d.bindSource(sel.From, bps)
		p.cols = p.from.cols
		if p.from.t != nil {
			where := sel.Where
			if len(sel.Joins) > 0 {
				where = nil // the WHERE filters joined rows
			}
			p.src = d.planSource(sel.From, where)
			p.accessPath = p.src.accessPath
		}
	}

	// Joins: ON rewritten against the combined bindings, its equi
	// conjunct found by the finder the oracle uses per execution.
	for _, j := range sel.Joins {
		src := d.bindSource(j.Table, bps)
		leftWidth := len(p.cols)
		p.cols = append(append([]boundColumn{}, p.cols...), src.cols...)
		node := joinNode{src: src, cols: p.cols, clause: j, equi: joinKeyOf(j.On, &evalEnv{cols: p.cols}, leftWidth)}
		if j.On != nil {
			node.clause.On = p.bind(j.On)
		}
		p.joins = append(p.joins, node)
	}

	// WHERE, over the joined row.
	if sel.Where != nil {
		if containsAggregate(sel.Where) {
			p.whereErr = fmt.Errorf("aggregates are not allowed in WHERE")
		} else {
			p.where = p.bind(sel.Where)
		}
	}

	// Projection: expand stars and rewrite every output expression.
	projCols, projExprs, err := expandSelectItems(sel, &evalEnv{cols: p.cols})
	if err != nil {
		p.projErr = err
	}
	p.projCols = projCols
	if p.projErr != nil {
		p.explain = p.explainLines()
		return p // a failing list neither groups, projects nor orders
	}
	if sel.grouped() {
		p.group = &groupPlan{width: len(p.cols)}
		for _, ge := range sel.GroupBy {
			p.group.keys = append(p.group.keys, p.bind(ge))
		}
		p.group.having = p.outputExpr(sel.Having, true)
	}
	p.projExprs = make([]Expr, len(projExprs))
	for i, e := range projExprs {
		p.projExprs[i] = p.outputExpr(e, true)
	}

	// ORDER BY keys, classified by precedence: ordinals first, then
	// select-list aliases (later duplicates win), then names resolved
	// against the row.
	outNames := make(map[string]int, len(projCols))
	for i, c := range projCols {
		p.outNames = append(p.outNames, strings.ToLower(c.Name))
		outNames[p.outNames[i]] = i
	}
	for _, oi := range sel.OrderBy {
		if ord, ok := ordinalRef(oi.Expr, len(projExprs)); ok {
			p.order = append(p.order, planOrderKey{kind: orderKeyProjected, idx: ord, desc: oi.Desc})
			continue
		}
		if ce, isCol := oi.Expr.(*ColumnExpr); isCol && ce.Table == "" {
			if idx, ok := outNames[strings.ToLower(ce.Column)]; ok {
				p.order = append(p.order, planOrderKey{kind: orderKeyProjected, idx: idx, desc: oi.Desc})
				continue
			}
		}
		if exprHasSubquery(oi.Expr) || refsAnyUnqualified(oi.Expr, outNames) {
			// A key that may read a select-list alias — an unqualified name of
			// one, or a subquery, whose names reach this block's scope.
			p.aliasOrder = true
			p.order = append(p.order, planOrderKey{kind: orderKeyExpr, expr: p.outputExpr(oi.Expr, false), desc: oi.Desc})
			continue
		}
		p.order = append(p.order, planOrderKey{kind: orderKeyExpr, expr: p.outputExpr(oi.Expr, true), desc: oi.Desc})
	}

	// A grouped scan of one table folds its chunks when its WHERE has no
	// residual and the chunk feeder takes its keys and aggregates — every
	// chunk the zone maps keep, whatever index the source found. It reads
	// its rows in row-ID order, the order groups appear in.
	keyed := p.scansTable() && len(p.src.keys) > 0
	if p.scansTable() && p.whereErr == nil && p.group != nil {
		if p.group.chunked = !p.src.residual && p.chunkable(); p.group.chunked {
			p.access = accessFullScan
		}
		p.vector = p.access == accessFullScan && (keyed || p.group.chunked)
	}
	// An ungrouped scan of one table: gather, top-K and the index order.
	// Without a predicate-based access, a single-key ORDER BY over an
	// ordered index can replace the sort with an index-ordered full scan.
	if p.scansTable() && p.whereErr == nil && p.group == nil {
		t := p.t
		p.gather = gatherList(p.projExprs, t)
		p.identity = len(p.gather) == len(t.Columns)
		for i, c := range p.gather {
			p.identity = p.identity && c == i
		}
		p.orderCols = p.orderColumns()
		// DISTINCT keeps the first of equal rows in row-ID order, with that
		// row's keys, so its input stays in row-ID order and its output is
		// sorted.
		single := len(p.orderCols) == 1 && !sel.Distinct
		if single && p.access == accessFullScan {
			if ix := indexOn(t, p.orderCols[0]); ix != nil {
				p.access, p.ix, p.keyCol = accessOrderedScan, ix, p.orderCols[0]
			}
		}
		// The access path emits rows in ORDER BY order — the executor skips
		// the sort and a stream delivers them as they come — when it is the
		// ordered scan chosen above, or a point (equal keys) or range
		// (index-ordered keys) access whose key column is the order column.
		if single && p.access != accessFullScan && p.orderCols[0] == p.keyCol {
			p.orderSatisfied, p.desc = true, p.order[0].desc
		}
		// Columnar annotation: a full scan whose WHERE has keys scans chunk
		// at a time. Index accesses stay on their row IDs — already narrowed
		// and, for ordered scans, not in chunk order.
		p.vector = p.access == accessFullScan && (keyed || sel.Where == nil && p.gather != nil)
	}
	p.explain = p.explainLines()
	return p
}

// bind rewrites an expression of the block against its bindings (see
// rewriteExpr), noting a name that stays unbound.
func (p *selectPlan) bind(e Expr) Expr {
	re, ok := rewriteExpr(e, p.cols)
	p.unbound = p.unbound || !ok
	return re
}

// bindSource binds one table reference of a block. A view's body and a
// derived table are blocks planned before the one reading them, and the
// columns their plans project are what the reference binds; a view being
// planned further up reads itself, which is an error when it runs.
func (d *Database) bindSource(tr *TableRef, bps *blockPlans) *blockSource {
	sub, alias, label := tr.Subquery, tr.Alias, "derived table "+tr.Alias
	if v, ok := d.views[strings.ToLower(tr.Table)]; ok && sub == nil {
		sub, label = v.Select, "view "+v.Name
		if alias == "" {
			alias = v.Name
		}
	}
	if sub != nil {
		inner := bps.m[sub]
		if inner == nil || inner.plan == nil {
			return &blockSource{err: fmt.Errorf("%s reads itself", label), label: label}
		}
		qual := strings.ToLower(alias)
		cols := make([]boundColumn, len(inner.plan.projCols))
		for i, c := range inner.plan.projCols {
			cols[i] = boundColumn{qualifier: qual, name: strings.ToLower(c.Name), typ: c.Type, origName: c.Name}
		}
		return &blockSource{sub: sub, cols: cols, label: label}
	}
	t, err := d.table(tr.Table)
	if err != nil {
		return &blockSource{err: err, label: fmt.Sprintf("%q", tr.Table)}
	}
	return &blockSource{t: t, cols: columnsOf(t, tr.qualifier()), label: fmt.Sprintf("%q", t.Name)}
}

// gatherList reports the base-column ordinals when every projection is
// a plain column reference, enabling columnar gather without row
// materialisation; nil otherwise.
func gatherList(projExprs []Expr, t *Table) []int {
	proj := make([]int, len(projExprs))
	for i, e := range projExprs {
		bc, ok := e.(*boundColExpr)
		if !ok || bc.idx >= len(t.Columns) {
			return nil
		}
		proj[i] = bc.idx
	}
	return proj
}

// orderColumns resolves every ORDER BY key to the base column it reads,
// or returns nil.
func (p *selectPlan) orderColumns() []int {
	var cols []int
	for _, k := range p.order {
		key := k.expr
		if k.kind == orderKeyProjected {
			key = p.projExprs[k.idx]
		}
		col, ok := vecColumn(key, p.t)
		if !ok {
			return nil
		}
		cols = append(cols, col)
	}
	return cols
}

// eqCand and rangeCand are the index candidates the WHERE's conjuncts
// offer: an equality, or the bounds on one column.
type eqCand struct {
	col int
	val Expr
}

type rangeCand struct {
	col    int
	lo, hi *planBound
}

// collectConjuncts splits the AND spine of a WHERE clause into its
// conjuncts, in source order.
func collectConjuncts(e Expr, out *[]Expr) {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		collectConjuncts(b.Left, out)
		collectConjuncts(b.Right, out)
		return
	}
	*out = append(*out, e)
}

// constExpr reports whether e is row-independent: it reads no column, no
// subquery and no aggregate. Such an expression is a constant of one
// execution — evalConst computes it from the parameters alone, and when
// it fails to, the statement takes the row path, which evaluates it per
// row.
func constExpr(e Expr) bool {
	switch n := e.(type) {
	case *ColumnExpr, *boundColExpr:
		return false
	case *FuncExpr:
		if aggregateNames[n.Name] {
			return false
		}
	}
	ok := true
	eachChild(e, func(c Expr) { ok = ok && constExpr(c) }, func(*SelectStmt) { ok = false })
	return ok
}

// evalConst evaluates a constant (see constExpr) for one execution;
// ok=false reports an evaluation error.
func evalConst(e Expr, params []Value) (Value, bool) {
	v, err := eval(e, &evalEnv{params: params})
	if err != nil {
		return Null, false
	}
	return v, true
}

// chooseIndex binds the best index access the WHERE's bound conjuncts
// admit (nil: one that does not resolve against the table): a point probe
// first, then a range scan. A comparison of a plain column with a
// constant offers an equality or a bound, a BETWEEN of one with constant
// ends two bounds; nothing else offers a candidate. Ties
// between indexes on the same column break by name so plans are
// deterministic.
func (p *accessPath) chooseIndex(conjuncts []Expr) {
	t := p.t
	var eqs []eqCand
	ranges := map[int]*rangeCand{}
	var rangeOrder []int
	// offered counts the bounds the conjuncts put forward; expected is what
	// that count would be if every conjunct were a bound.
	offered, expected := 0, 0
	addBound := func(col int, b planBound, isLo bool) {
		offered++
		rc := ranges[col]
		if rc == nil {
			rc = &rangeCand{col: col}
			ranges[col] = rc
			rangeOrder = append(rangeOrder, col)
		}
		if isLo && rc.lo == nil {
			rc.lo = &b
		} else if !isLo && rc.hi == nil {
			rc.hi = &b
		}
	}
	for _, c := range conjuncts {
		expected++
		switch n := c.(type) {
		case *BinaryExpr:
			src, op, v, ok := cmpSides(n, t)
			col, isCol := vecColumn(src, t)
			if !ok || !isCol {
				continue
			}
			switch op {
			case "=":
				eqs = append(eqs, eqCand{col: col, val: v})
			case "<", "<=":
				addBound(col, planBound{expr: v, incl: op == "<="}, false)
			case ">", ">=":
				addBound(col, planBound{expr: v, incl: op == ">="}, true)
			}
		case *BetweenExpr:
			expected++
			col, isCol := vecColumn(n.Operand, t)
			if n.Negate || !isCol || !constExpr(n.Lo) || !constExpr(n.Hi) {
				continue
			}
			addBound(col, planBound{expr: n.Lo, incl: true}, true)
			addBound(col, planBound{expr: n.Hi, incl: true}, false)
		}
	}

	// Point probe.
	for _, eq := range eqs {
		if ix := indexOn(t, eq.col); ix != nil {
			p.access, p.ix, p.keyCol, p.eq = accessOrderedPoint, ix, eq.col, eq.val
			return
		}
	}
	// Range scan.
	for _, col := range rangeOrder {
		if ix := indexOn(t, col); ix != nil {
			rc := ranges[col]
			p.access, p.ix, p.keyCol, p.lo, p.hi = accessOrderedRange, ix, col, rc.lo, rc.hi
			kept := 0
			for _, b := range []*planBound{rc.lo, rc.hi} {
				if b != nil {
					kept++
				}
			}
			p.boundsAreWhere = offered == expected && kept == offered
			return
		}
	}
}

// indexOn returns the lexicographically first index on the given column
// ordinal, or nil.
func indexOn(t *Table, col int) *OrderedIndex {
	var names []string
	for name, ix := range t.indexes {
		if strings.EqualFold(ix.Column, t.Columns[col].Name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return t.indexes[names[0]]
}

// rewriteExpr compiles an expression against fixed bindings: every
// column reference that resolves becomes a row-ordinal boundColExpr. A
// reference that does not — a correlated name, or one unknown or
// ambiguous — stays a ColumnExpr, which lookupColumn resolves through the
// environment chain when it is evaluated, raising the error it raises
// then; ok=false reports that one stayed. Subquery interiors are left
// untouched: they are blocks of their own. The original tree is never
// mutated (plans share ASTs with the cache), so every rewritten node is a
// copy.
func rewriteExpr(e Expr, cols []boundColumn) (Expr, bool) {
	ok := true
	env := &evalEnv{cols: cols}
	var rw func(Expr) Expr
	rw = func(e Expr) Expr {
		switch n := e.(type) {
		case *ColumnExpr:
			i, err := env.resolve(n.Table, n.Column)
			if err != nil {
				ok = false
				return e
			}
			return &boundColExpr{idx: i}
		case *BinaryExpr:
			return &BinaryExpr{Op: n.Op, Left: rw(n.Left), Right: rw(n.Right)}
		case *UnaryExpr:
			return &UnaryExpr{Op: n.Op, Operand: rw(n.Operand)}
		case *IsNullExpr:
			return &IsNullExpr{Operand: rw(n.Operand), Negate: n.Negate}
		case *InExpr:
			list := make([]Expr, len(n.List))
			for i, it := range n.List {
				list[i] = rw(it)
			}
			return &InExpr{Operand: rw(n.Operand), List: list, Subquery: n.Subquery, Negate: n.Negate}
		case *BetweenExpr:
			return &BetweenExpr{Operand: rw(n.Operand), Lo: rw(n.Lo), Hi: rw(n.Hi), Negate: n.Negate}
		case *FuncExpr:
			args := make([]Expr, len(n.Args))
			for i, a := range n.Args {
				args[i] = rw(a)
			}
			return &FuncExpr{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}
		case *CaseExpr:
			whens := make([]CaseWhen, len(n.Whens))
			for i, w := range n.Whens {
				whens[i] = CaseWhen{When: rw(w.When), Then: rw(w.Then)}
			}
			return &CaseExpr{Operand: rw(n.Operand), Whens: whens, Else: rw(n.Else)}
		case *CastExpr:
			return &CastExpr{Operand: rw(n.Operand), Target: n.Target}
		}
		return e // nil, a literal, a parameter, a subquery, a bound column
	}
	return rw(e), ok
}

// forEachSubquery calls f for every SELECT nested directly in the
// expression — scalar, EXISTS and IN subqueries — without descending
// into them.
func forEachSubquery(e Expr, f func(*SelectStmt)) {
	eachChild(e, func(c Expr) { forEachSubquery(c, f) }, f)
}

// exprHasSubquery reports whether the tree contains any subquery form.
func exprHasSubquery(e Expr) bool {
	found := false
	forEachSubquery(e, func(*SelectStmt) { found = true })
	return found
}

// refsAnyUnqualified reports whether the tree, outside its subqueries,
// contains an unqualified column reference whose name appears in the
// given set — the shape that resolves to a select-list alias in ORDER
// BY.
func refsAnyUnqualified(e Expr, names map[string]int) bool {
	if ce, ok := e.(*ColumnExpr); ok && ce.Table == "" {
		_, found := names[strings.ToLower(ce.Column)]
		return found
	}
	found := false
	eachChild(e, func(c Expr) { found = found || refsAnyUnqualified(c, names) }, func(*SelectStmt) {})
	return found
}

// describe names the access kind and, for index accesses, the index and
// the pushed-down key condition or the scan direction.
func (p *accessPath) describe() string {
	access := p.access.String()
	switch p.access {
	case accessOrderedScan:
		dir := "asc"
		if p.desc {
			dir = "desc"
		}
		access += fmt.Sprintf(" via %s (%s.%s %s)", p.ix.Name, p.t.Name, p.t.Columns[p.keyCol].Name, dir)
	case accessOrderedPoint:
		access += fmt.Sprintf(" via %s (%s.%s = ?)", p.ix.Name, p.t.Name, p.t.Columns[p.keyCol].Name)
	case accessOrderedRange:
		var parts []string
		if p.lo != nil {
			op := ">"
			if p.lo.incl {
				op = ">="
			}
			parts = append(parts, p.t.Columns[p.keyCol].Name+" "+op+" ?")
		}
		if p.hi != nil {
			op := "<"
			if p.hi.incl {
				op = "<="
			}
			parts = append(parts, p.t.Columns[p.keyCol].Name+" "+op+" ?")
		}
		access += fmt.Sprintf(" via %s (%s)", p.ix.Name, strings.Join(parts, " AND "))
	}
	return access
}

// explainLines renders the plan node tree for EXPLAIN and daisql
// -explain: the source and its access path, join strategies, filter,
// grouping or projection width, DISTINCT, order strategy and limit
// handling.
func (p *selectPlan) explainLines() []string {
	var lines []string
	switch {
	case p.firstArm != nil:
		lines = []string{fmt.Sprintf("select: union of %d arms", len(p.sel.Unions)+1)}
	case p.src != nil:
		lines = []string{fmt.Sprintf("select on %q", p.t.Name), "  access: " + p.describe()}
		if p.vector {
			lines = append(lines, p.src.kernelLines()...)
		}
	case p.from != nil:
		lines = []string{"select on " + p.from.label}
	default:
		lines = []string{"select: no FROM (one empty row)"}
	}
	for _, j := range p.joins {
		strategy := "nested loop"
		if j.equi != nil {
			strategy = "hash join (nested-loop fallback)"
		}
		kind := "inner"
		switch j.clause.Kind {
		case JoinLeft:
			kind = "left"
		case JoinRight:
			kind = "right"
		case JoinCross:
			kind = "cross"
		}
		lines = append(lines, fmt.Sprintf("  join: %s %s %s", kind, strategy, j.src.label))
	}
	if !p.vector { // else the source's lines say it
		lines = append(lines, p.filterLine(p.where != nil)...)
	}
	for _, err := range []error{p.whereErr, p.projErr} {
		if err != nil {
			lines = append(lines, "  fails when run: "+err.Error())
		}
	}
	switch {
	case p.firstArm != nil || p.projErr != nil:
	case p.group != nil:
		if p.group.chunked {
			lines = append(lines, "  vector aggregate: typed fold over column chunks (row feeder if abandoned)")
			for _, it := range p.group.items {
				if _, isCol := it.arg.(*boundColExpr); it.arg != nil && !isCol {
					s := exprText(it.arg, p.t)
					if _, binary := it.arg.(*BinaryExpr); binary {
						s = s[1 : len(s)-1] // the outermost pair of parentheses says nothing
					}
					lines = append(lines, fmt.Sprintf("  aggregate arg: expression kernel (%s(%s))", it.kind, s))
				}
			}
		}
		lines = append(lines, fmt.Sprintf("  group: %d key(s), aggregates per group row", len(p.sel.GroupBy)))
		if p.sel.Having != nil {
			lines = append(lines, "  having: per group")
		}
	case p.vector && p.gather != nil:
		lines = append(lines, fmt.Sprintf("  vector project: gather %d columns", len(p.gather)))
	default:
		lines = append(lines, fmt.Sprintf("  project: %d columns", len(p.projCols)))
	}
	if p.sel.Distinct {
		lines = append(lines, "  distinct: first of equal rows")
	}
	if n := len(p.sel.OrderBy); n > 0 {
		switch {
		case p.orderSatisfied:
			lines = append(lines, "  order: satisfied by index (no sort)")
		default:
			lines = append(lines, fmt.Sprintf("  order: sort on %d key(s)", n))
			if p.vector && !p.src.residual && p.gather != nil && p.orderCols != nil && p.sel.Limit != nil && !p.sel.Distinct {
				lines = append(lines, fmt.Sprintf("  order: bounded top-K when OFFSET+LIMIT <= %d", chunkRows))
			}
		}
	}
	if p.sel.Offset != nil {
		lines = append(lines, "  offset: yes")
	}
	if p.sel.Limit != nil {
		lines = append(lines, "  limit: yes")
	}
	return lines
}

// kernelLines is how a full scan lists its rows through the kernels:
// with every conjunct of its WHERE a key, the kernels are the filter;
// with a residual, they list the keys' candidates and the WHERE runs on
// each.
func (s *tableSource) kernelLines() []string {
	lines := []string{fmt.Sprintf("  vector: columnar scan (chunks of %d rows)", chunkRows)}
	switch {
	case len(s.keys) == 0:
	case !s.residual:
		lines = append(lines, "  vector filter: compiled kernels with zone-map skipping (row fallback on bind failure)")
	default:
		lines = append(lines, "  vector filter: compiled kernels on the keys "+exprsText(s.keys, s.t, " AND ")+" with zone-map skipping",
			"  filter: predicate per row on the kernels' candidates")
	}
	return lines
}

// zoneMapLine reports, at EXPLAIN time, how many of the table's current
// chunks the zone maps of the source's keys would skip. Keys with
// parameters cannot bind without values and report per-execution
// evaluation instead. Caller holds d.mu for reading.
func (d *Database) zoneMapLine(s *tableSource) string {
	wk := s.bindKeys(nil)
	switch {
	case wk.perRow && len(wk.keys) < len(s.keys):
		return "  vector zone maps: evaluated per execution"
	case !d.vectorEnabled() || !d.ensureChunks(s.t):
		return "  vector zone maps: column chunks unavailable (row fallback)"
	}
	skipped, n := 0, 0
	for _, ch := range s.t.pages {
		if ch != nil {
			n++
			if wk.vec.possible(ch)&maskT == 0 {
				skipped++
			}
		}
	}
	return fmt.Sprintf("  vector zone maps: %d/%d chunks skippable", skipped, n)
}

// explainSelect renders one block's plan and, indented under a label
// each, the blocks nested directly in it. open holds the blocks being
// rendered further up, so a view that reads itself ends the listing
// instead of the stack.
func (d *Database) explainSelect(st *SelectStmt, bps *blockPlans, open map[*SelectStmt]bool) []string {
	bp := bps.m[st]
	lines := slices.Clone(bp.plan.explain)
	if p := bp.plan; p.vector && len(p.src.keys) > 0 {
		lines = append(lines, d.zoneMapLine(p.src))
	}
	open[st] = true
	for _, c := range bp.children {
		lines = append(lines, "  "+c.label+":")
		if open[c.sel] {
			lines = append(lines, "    (reads itself)")
			continue
		}
		for _, l := range d.explainSelect(c.sel, bps, open) {
			lines = append(lines, "    "+l)
		}
	}
	delete(open, st)
	return lines
}

// explainStatement describes any statement for EXPLAIN. SELECTs compile
// fresh plans for every block; everything else names the path it takes.
// Caller must hold d.mu for reading.
func (d *Database) explainStatement(st Statement) []string {
	switch n := st.(type) {
	case *SelectStmt:
		return d.explainSelect(n, d.planStatement(n), map[*SelectStmt]bool{})
	case *InsertStmt:
		return []string{fmt.Sprintf("insert into %q (interpreted)", n.Table)}
	case *UpdateStmt:
		return append(d.explainDML(fmt.Sprintf("update %q", n.Table), n.Table, n.Where),
			fmt.Sprintf("  set: %d column(s), interpreted per target row", len(n.Set)))
	case *DeleteStmt:
		return d.explainDML(fmt.Sprintf("delete from %q", n.Table), n.Table, n.Where)
	}
	return []string{fmt.Sprintf("%s (interpreted)", StatementKind(st))}
}

// explainDML describes how an UPDATE or DELETE lists its target rows: in
// the source lines of a SELECT with its WHERE, which lists them the same
// way (candidates). Caller holds d.mu for reading.
func (d *Database) explainDML(head, table string, where Expr) []string {
	src := d.planSource(&TableRef{Table: table}, where)
	if src == nil {
		_, err := d.table(table)
		return []string{head, "  fails when run: " + err.Error()}
	}
	lines := []string{head, "  access: " + src.describe()}
	if src.access == accessFullScan && len(src.keys) > 0 {
		return append(append(lines, src.kernelLines()...), d.zoneMapLine(src))
	}
	return append(lines, src.filterLine(where != nil)...)
}

// filterLine is what the row path's filter does with the rows an access
// path lists: nothing without a WHERE (where false) or when the bounds
// are the WHERE, else it decides each row.
func (p *accessPath) filterLine(where bool) []string {
	switch {
	case p.boundsAreWhere:
		return []string{"  filter: satisfied by access path (re-applied if a bound does not bind)"}
	case where:
		return []string{"  filter: predicate per row"}
	}
	return nil
}

// StatementKind names a statement's kind in lower case: "update",
// "create table", ... — for EXPLAIN output and faults that name it.
func StatementKind(st Statement) string {
	switch st.(type) {
	case *InsertStmt:
		return "insert"
	case *UpdateStmt:
		return "update"
	case *DeleteStmt:
		return "delete"
	case *ExplainStmt:
		return "explain"
	case *CreateTableStmt:
		return "create table"
	case *DropTableStmt:
		return "drop table"
	case *CreateViewStmt:
		return "create view"
	case *DropViewStmt:
		return "drop view"
	case *CreateIndexStmt:
		return "create index"
	case *DropIndexStmt:
		return "drop index"
	case *BeginStmt:
		return "begin"
	case *CommitStmt:
		return "commit"
	case *RollbackStmt:
		return "rollback"
	}
	return fmt.Sprintf("%T", st)
}
