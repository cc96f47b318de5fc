package sqlengine

import (
	"fmt"
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

// joinNode is one compiled join step: the right table resolved, its
// bindings appended, the ON expression rewritten to ordinals, and the
// hash-join decision taken at plan time.
type joinNode struct {
	t      *Table
	rcols  []boundColumn
	cols   []boundColumn // combined bindings including this join
	clause JoinClause    // clause with the rewritten ON expression
	equi   *equiConjunct // the hash join's key; nil: nested loop only
}

// accessPath is the physical access bound for one base table. SELECT
// plans and UPDATE/DELETE target plans (dml.go) share it, so both pick
// and describe their rows in one vocabulary.
type accessPath struct {
	t      *Table
	access accessKind
	ix     *OrderedIndex
	keyCol int  // ordinal of the access column in the base row
	eq     Expr // equality probe value (point access)
	lo, hi *planBound
	desc   bool // iteration direction when a plan's ORDER BY is satisfied

	// exact restricts the path to probes that select precisely the rows
	// Compare-equality would: no DOUBLE key column (NaN compares equal to
	// everything, which no key order reproduces) and no DOUBLE probe value
	// (an integer key compares through float64 and loses precision above
	// 2^53). SELECT keeps the documented index
	// caveat; DML changes data and must not.
	exact bool

	// boundsAreWhere is set when the WHERE clause is nothing but the range
	// conjuncts pushed down as lo and hi, on a key column an exact path
	// could use. If the bounds then bind, and to no DOUBLE value, the index
	// applies the whole predicate — one that cannot fail on any row — and
	// the residual filter is skipped (see baseIDs).
	boundsAreWhere bool
}

// tableSource is how one SELECT block whose FROM is one base table with
// no joins, or one UPDATE/DELETE, finds its rows: the table and its
// bindings, the access path chooseIndex picks from the WHERE's compiled
// conjuncts, and the WHERE as kernels when it lies in their error-free
// class. The row plan, the aggregate plan, DML target selection and the
// interpreter all read the table through it.
type tableSource struct {
	accessPath
	cols []boundColumn // the table's bindings under its qualifier
	// where is the WHERE rewritten to ordinals, for the row filter; nil
	// without a WHERE or when a name in it does not resolve against the
	// table alone (a correlated subquery).
	where Expr
	// pred is where as kernels; nil without a WHERE or when it lies outside
	// their class.
	pred vecPred
}

// planSource plans the source of one base-table reference, or returns
// nil when tr names no base table (no FROM, a derived table, a view, an
// unknown name). exact restricts the access path to exact probes (see
// accessPath.exact). The access path reads the WHERE one conjunct at a
// time, so a conjunct that does not resolve against the table (a
// correlated one) leaves the others their index.
func (d *Database) planSource(tr *TableRef, where Expr, exact bool) *tableSource {
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
	s := &tableSource{accessPath: accessPath{t: t, keyCol: -1, exact: exact}, cols: columnsOf(t, tr.qualifier())}
	if where == nil {
		return s
	}
	var conjuncts []Expr
	collectConjuncts(where, &conjuncts)
	compiled := make([]vecPred, len(conjuncts))
	for i, c := range conjuncts {
		if w, ok := rewriteExpr(c, s.cols); ok {
			compiled[i], _ = compileVecPred(w, t)
		}
	}
	s.chooseIndex(compiled)
	if w, ok := rewriteExpr(where, s.cols); ok {
		s.where = w
		s.pred, _ = compileVecPred(w, t)
	}
	return s
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

// explainLines renders how a consumer of the source finds its rows: the
// access line for the path it takes and, when the rows come from the
// kernels, the vector lines, ending in what runs when they do not bind.
func (s *tableSource) explainLines(access string, vector bool, onBindFailure string) []string {
	lines := []string{"  access: " + access}
	if vector {
		lines = append(lines, fmt.Sprintf("  vector: columnar scan (chunks of %d rows)", chunkRows))
		if s.pred != nil {
			lines = append(lines, "  vector filter: compiled kernels with zone-map skipping ("+onBindFailure+" on bind failure)")
		}
	}
	return lines
}

// selectPlan is a compiled physical plan for one SELECT: every column
// reference resolved to a row ordinal, the access path and join
// strategies chosen, and the projection/order machinery pre-bound. A
// plan is immutable after construction and is only runnable while the
// database's schema epoch matches the one it was built against.
type selectPlan struct {
	sel   *SelectStmt
	epoch uint64

	// accessPath is src's, widened to an ordered full scan when that
	// replaces the sort.
	accessPath
	// src is the block's source; with joins, the base table's alone, whose
	// access is a full scan.
	src *tableSource

	joins []joinNode
	cols  []boundColumn // final combined bindings

	where     Expr // rewritten filter, nil when absent
	projCols  []ResultColumn
	projExprs []Expr
	// gather lists the base-row ordinals when the plan has no joins and
	// every projection is a plain column reference (nil otherwise): such
	// a projection cannot fail, so producers copy cells by ordinal
	// instead of calling eval. identity marks the gather that is the
	// table's own column list in order: the output row then is the stored
	// row image, which streaming hands out uncopied.
	gather   []int
	identity bool

	order          []planOrderKey
	orderSatisfied bool // access path already yields ORDER BY order
	// orderCols lists the base column behind each ORDER BY key when the
	// plan has no joins and every key is one (nil otherwise): what a
	// bounded top-K can order by without evaluating anything.
	orderCols []int

	// vector marks a join-free full scan whose WHERE the kernels take whole
	// (src.pred; none without a WHERE) and that gains by them: its rows may
	// come from the column chunks (see bindScan).
	vector bool

	explain []string
}

// streamable reports whether the plan can produce rows incrementally:
// no joins (the probe side would need full materialisation anyway) and
// either no ORDER BY or one the access path already satisfies.
func (p *selectPlan) streamable() bool {
	return len(p.joins) == 0 && (len(p.sel.OrderBy) == 0 || p.orderSatisfied)
}

// planSelect compiles a SELECT into a physical plan from the block's
// source (nil with joins), or returns nil with a reason when the
// statement is outside the plannable class (the interpreter then runs it,
// including producing any errors). The caller must hold d.mu for reading.
func (d *Database) planSelect(sel *SelectStmt, src *tableSource) (*selectPlan, string) {
	switch {
	case len(sel.Unions) > 0:
		return nil, "UNION"
	case sel.Distinct:
		return nil, "DISTINCT"
	case len(sel.GroupBy) > 0 || sel.Having != nil || selectHasAggregate(sel):
		return nil, "grouping/aggregates"
	case sel.From == nil:
		return nil, "no FROM clause"
	case sel.From.Subquery != nil:
		return nil, "derived table"
	}
	if sel.Where != nil && containsAggregate(sel.Where) {
		return nil, "aggregate in WHERE"
	}
	if _, isView := d.views[strings.ToLower(sel.From.Table)]; isView {
		return nil, "view"
	}
	if len(sel.Joins) > 0 {
		src = d.planSource(sel.From, nil, false) // the WHERE filters joined rows
	}
	if src == nil {
		return nil, "unknown table"
	}
	p := &selectPlan{sel: sel, epoch: d.epoch, accessPath: src.accessPath, src: src}
	cols := src.cols

	// Joins: base tables only, ON rewritten against the combined
	// bindings, hash strategy detected with the interpreter's own
	// conjunct finder.
	for _, j := range sel.Joins {
		if j.Table == nil || j.Table.Subquery != nil {
			return nil, "derived join table"
		}
		if _, isView := d.views[strings.ToLower(j.Table.Table)]; isView {
			return nil, "view in join"
		}
		jt, err := d.table(j.Table.Table)
		if err != nil {
			return nil, "unknown join table"
		}
		rcols := columnsOf(jt, j.Table.qualifier())
		combined := append(append([]boundColumn{}, cols...), rcols...)
		node := joinNode{t: jt, rcols: rcols, cols: combined, clause: j}
		if j.On != nil {
			if k, ok := findEquiConjunct(j.On, &evalEnv{cols: combined}, len(cols)); ok {
				node.equi = &k
			}
			on, ok := rewriteExpr(j.On, combined)
			if !ok {
				return nil, "unresolvable ON expression"
			}
			node.clause.On = on
		}
		p.joins = append(p.joins, node)
		cols = combined
	}
	p.cols = cols

	// Projection: expand stars and rewrite every output expression.
	env := &evalEnv{cols: cols}
	projCols, projExprs, err := expandSelectItems(sel, env)
	if err != nil {
		return nil, "unplannable select list"
	}
	p.projCols = projCols
	p.projExprs = make([]Expr, len(projExprs))
	for i, e := range projExprs {
		re, ok := rewriteExpr(e, cols)
		if !ok {
			return nil, "unresolvable select expression"
		}
		p.projExprs[i] = re
	}

	// WHERE: the source's, or with joins over the joined row.
	p.where = src.where
	if len(p.joins) > 0 && sel.Where != nil {
		p.where, _ = rewriteExpr(sel.Where, cols)
	}
	if sel.Where != nil && p.where == nil {
		return nil, "unresolvable WHERE expression"
	}

	// ORDER BY keys, classified with the interpreter's precedence:
	// ordinals first, then select-list aliases (later duplicates win),
	// then plain column resolution.
	outNames := make(map[string]int, len(projCols))
	for i, c := range projCols {
		outNames[strings.ToLower(c.Name)] = i
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
		// Complex keys that could observe the select-list alias scope
		// (or a correlated alias via a subquery) keep interpreter
		// semantics by refusing to plan.
		if exprHasSubquery(oi.Expr) {
			return nil, "subquery in ORDER BY"
		}
		if refsAnyUnqualified(oi.Expr, outNames) {
			return nil, "ORDER BY references select-list alias"
		}
		re, ok := rewriteExpr(oi.Expr, cols)
		if !ok {
			return nil, "unresolvable ORDER BY expression"
		}
		p.order = append(p.order, planOrderKey{kind: orderKeyExpr, expr: re, desc: oi.Desc})
	}

	// Access path: the source's, for join-free statements (with joins the
	// interpreter scans too, so parity is free). Without a predicate-based
	// access, a single-key ORDER BY over an ordered index can still replace
	// the sort with an index-ordered full scan.
	if len(p.joins) == 0 {
		t := p.t
		p.gather = gatherList(p.projExprs, t)
		p.identity = len(p.gather) == len(t.Columns)
		for i, c := range p.gather {
			p.identity = p.identity && c == i
		}
		p.orderCols = p.orderColumns()
		single := len(p.orderCols) == 1
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
		// Columnar annotation: a full scan whose WHERE the kernels take whole
		// scans chunk at a time. Index accesses stay on their row IDs —
		// already narrowed and, for ordered scans, not in chunk order.
		p.vector = p.access == accessFullScan && (src.pred != nil || sel.Where == nil && p.gather != nil)
	}
	p.explain = p.explainLines()
	return p, ""
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
// row as the interpreter does.
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

// chooseIndex binds the best index access the WHERE's compiled conjuncts
// admit (nil: one the kernels do not take): a point probe first, then a
// range scan. A comparison
// of a plain column with a constant offers an equality or a bound, a
// BETWEEN of one two bounds; nothing else offers a candidate. Ties
// between indexes on the same column break by name so plans are
// deterministic.
func (p *accessPath) chooseIndex(conjuncts []vecPred) {
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
		case *vpCmp: // the constant is on the right: compileVecPred flipped it there
			if n.src.expr != nil {
				continue
			}
			switch n.op {
			case "=":
				eqs = append(eqs, eqCand{col: n.src.col, val: n.operand})
			case "<", "<=":
				addBound(n.src.col, planBound{expr: n.operand, incl: n.op == "<="}, false)
			case ">", ">=":
				addBound(n.src.col, planBound{expr: n.operand, incl: n.op == ">="}, true)
			}
		case *vpBetween:
			expected++
			if n.negate || n.src.expr != nil {
				continue
			}
			addBound(n.src.col, planBound{expr: n.lo, incl: true}, true)
			addBound(n.src.col, planBound{expr: n.hi, incl: true}, false)
		}
	}

	usable := func(col int) bool { return !p.exact || t.Columns[col].Type != TypeDouble }
	// Point probe.
	for _, eq := range eqs {
		if ix := indexOn(t, eq.col); ix != nil && usable(eq.col) {
			p.access, p.ix, p.keyCol, p.eq = accessOrderedPoint, ix, eq.col, eq.val
			return
		}
	}
	// Range scan.
	for _, col := range rangeOrder {
		if ix := indexOn(t, col); ix != nil && usable(col) {
			rc := ranges[col]
			p.access, p.ix, p.keyCol, p.lo, p.hi = accessOrderedRange, ix, col, rc.lo, rc.hi
			kept := 0
			for _, b := range []*planBound{rc.lo, rc.hi} {
				if b != nil {
					kept++
				}
			}
			p.boundsAreWhere = offered == expected && kept == offered && t.Columns[col].Type != TypeDouble
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
// resolvable column reference becomes a row-ordinal boundColExpr.
// Subquery interiors are left untouched — they resolve at run time
// through the environment chain, exactly as interpreted execution does.
// The original tree is never mutated (plans share ASTs with the cache
// and the interpreter), so every rewritten node is a copy. ok=false
// means a reference did not resolve cleanly and the statement must stay
// on the interpreter.
func rewriteExpr(e Expr, cols []boundColumn) (Expr, bool) {
	env := &evalEnv{cols: cols}
	switch n := e.(type) {
	case nil:
		return nil, true
	case *LiteralExpr, *ParamExpr, *SubqueryExpr, *ExistsExpr:
		return e, true
	case *ColumnExpr:
		i, err := env.resolve(n.Table, n.Column)
		if err != nil {
			return nil, false
		}
		return &boundColExpr{idx: i}, true
	case *boundColExpr:
		return e, true
	case *BinaryExpr:
		l, ok := rewriteExpr(n.Left, cols)
		if !ok {
			return nil, false
		}
		r, ok := rewriteExpr(n.Right, cols)
		if !ok {
			return nil, false
		}
		return &BinaryExpr{Op: n.Op, Left: l, Right: r}, true
	case *UnaryExpr:
		op, ok := rewriteExpr(n.Operand, cols)
		if !ok {
			return nil, false
		}
		return &UnaryExpr{Op: n.Op, Operand: op}, true
	case *IsNullExpr:
		op, ok := rewriteExpr(n.Operand, cols)
		if !ok {
			return nil, false
		}
		return &IsNullExpr{Operand: op, Negate: n.Negate}, true
	case *InExpr:
		op, ok := rewriteExpr(n.Operand, cols)
		if !ok {
			return nil, false
		}
		list := make([]Expr, len(n.List))
		for i, it := range n.List {
			re, ok := rewriteExpr(it, cols)
			if !ok {
				return nil, false
			}
			list[i] = re
		}
		return &InExpr{Operand: op, List: list, Subquery: n.Subquery, Negate: n.Negate}, true
	case *BetweenExpr:
		op, ok := rewriteExpr(n.Operand, cols)
		if !ok {
			return nil, false
		}
		lo, ok := rewriteExpr(n.Lo, cols)
		if !ok {
			return nil, false
		}
		hi, ok := rewriteExpr(n.Hi, cols)
		if !ok {
			return nil, false
		}
		return &BetweenExpr{Operand: op, Lo: lo, Hi: hi, Negate: n.Negate}, true
	case *FuncExpr:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			re, ok := rewriteExpr(a, cols)
			if !ok {
				return nil, false
			}
			args[i] = re
		}
		return &FuncExpr{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}, true
	case *CaseExpr:
		op, ok := rewriteExpr(n.Operand, cols)
		if !ok {
			return nil, false
		}
		els, ok := rewriteExpr(n.Else, cols)
		if !ok {
			return nil, false
		}
		whens := make([]CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			wc, ok := rewriteExpr(w.When, cols)
			if !ok {
				return nil, false
			}
			wt, ok := rewriteExpr(w.Then, cols)
			if !ok {
				return nil, false
			}
			whens[i] = CaseWhen{When: wc, Then: wt}
		}
		return &CaseExpr{Operand: op, Whens: whens, Else: els}, true
	case *CastExpr:
		op, ok := rewriteExpr(n.Operand, cols)
		if !ok {
			return nil, false
		}
		return &CastExpr{Operand: op, Target: n.Target}, true
	}
	return nil, false
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
// given set — the shape that would resolve to a select-list alias in
// interpreted ORDER BY.
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
// -explain: access path, pushed-down bounds, join strategy, filter,
// projection width, order strategy and limit handling.
func (p *selectPlan) explainLines() []string {
	lines := append([]string{fmt.Sprintf("select on %q", p.t.Name)}, p.src.explainLines(p.describe(), p.vector, "row fallback")...)
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
		lines = append(lines, fmt.Sprintf("  join: %s %s %q", kind, strategy, j.t.Name))
	}
	switch {
	case p.vector: // the source's lines say it
	case p.boundsAreWhere:
		lines = append(lines, "  filter: satisfied by access path (re-applied if a bound does not bind exactly)")
	case p.where != nil:
		lines = append(lines, "  filter: predicate per row")
	}
	if p.vector && p.gather != nil {
		lines = append(lines, fmt.Sprintf("  vector project: gather %d columns", len(p.gather)))
	} else {
		lines = append(lines, fmt.Sprintf("  project: %d columns", len(p.projCols)))
	}
	if len(p.order) > 0 {
		if p.orderSatisfied {
			lines = append(lines, "  order: satisfied by index (no sort)")
		} else {
			lines = append(lines, fmt.Sprintf("  order: sort on %d key(s)", len(p.order)))
			if p.vector && p.gather != nil && p.orderCols != nil && p.sel.Limit != nil {
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

// zoneMapLine reports, at EXPLAIN time, how many of the table's current
// chunks the source's bound predicate's zone maps would skip. Predicates
// with parameters cannot bind without values and report per-execution
// evaluation instead. Caller holds d.mu for reading.
func (d *Database) zoneMapLine(s *tableSource) string {
	bp, chunks, bound := d.bindKernels(s, nil, true)
	switch {
	case !bound:
		return "  vector zone maps: evaluated per execution"
	case !chunks:
		return "  vector zone maps: column chunks unavailable (row fallback)"
	}
	skipped, n := 0, 0
	for _, ch := range s.t.pages {
		if ch != nil {
			n++
			if chunkSkippable(bp, ch) {
				skipped++
			}
		}
	}
	return fmt.Sprintf("  vector zone maps: %d/%d chunks skippable", skipped, n)
}

// explainSelect renders one block's plan — or why it is interpreted —
// and, indented under a label each, the blocks nested directly in it.
// open holds the blocks being rendered further up, so a view that reads
// itself ends the listing instead of the stack.
func (d *Database) explainSelect(st *SelectStmt, bps *blockPlans, open map[*SelectStmt]bool) []string {
	bp := bps.m[st]
	var lines []string
	switch {
	case bp.plan != nil:
		lines = append(lines, bp.plan.explain...)
		if p := bp.plan; p.vector && p.src.pred != nil {
			lines = append(lines, d.zoneMapLine(p.src))
		}
	case bp.agg != nil:
		lines = append(lines, bp.agg.explain...)
	default:
		lines = append(lines, "select: interpreted ("+bp.reason+")")
		if bp.src != nil {
			lines = append(lines, bp.src.explainLines(bp.src.describe(), false, "")...)
		}
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
// fresh plans for every block (or report why one cannot); everything
// else names the interpreted path it takes. Caller must hold d.mu for
// reading.
func (d *Database) explainStatement(st Statement) []string {
	switch n := st.(type) {
	case *SelectStmt:
		return d.explainSelect(n, d.planBlocks(n), map[*SelectStmt]bool{})
	case *InsertStmt:
		return []string{fmt.Sprintf("insert into %q (interpreted)", n.Table)}
	case *UpdateStmt:
		return append(d.explainDML(fmt.Sprintf("update %q", n.Table), n),
			fmt.Sprintf("  set: %d column(s), interpreted per target row", len(n.Set)))
	case *DeleteStmt:
		return d.explainDML(fmt.Sprintf("delete from %q", n.Table), n)
	}
	return []string{fmt.Sprintf("%s (interpreted)", statementKind(st))}
}

// explainDML describes how an UPDATE or DELETE selects its target rows,
// in the SELECT plans' vocabulary. Caller holds d.mu for reading.
func (d *Database) explainDML(head string, st Statement) []string {
	p, reason := d.planDML(st)
	if p == nil {
		return []string{head, "  access: full scan (interpreted: " + reason + ")"}
	}
	scan := p.access == accessFullScan
	lines := append([]string{head}, p.explainLines(p.describe(), scan, "walk")...)
	if scan {
		lines = append(lines, "  vector: kernels only while the chunk cache is live, else interpreted walk")
		if p.t.chunksLive() {
			lines = append(lines, d.zoneMapLine(&p.tableSource))
		}
	}
	return append(lines, "  filter: interpreted WHERE re-check on candidates")
}

// statementKind names a statement for explain output.
func statementKind(st Statement) string {
	switch st.(type) {
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
