package sqlengine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
)

// The grouping stage. A grouped block's filtered rows fold into groups,
// numbered in order of first appearance, with one accumulator per
// aggregate call; each group's row — its first input row, then its
// aggregates — runs through the block's ordinary stages, HAVING being
// their filter. The chunk feeder folds column chunks through typed
// kernels, the row feeder evaluates each row's keys and arguments.

type aggItemKind int

const (
	aggCountStar aggItemKind = iota // COUNT(*)
	aggCount                        // COUNT(x): non-null count
	aggMin
	aggMax
	aggSum
	aggAvg
)

// String is the aggregate's SQL name.
func (k aggItemKind) String() string {
	return [...]string{"COUNT", "COUNT", "MIN", "MAX", "SUM", "AVG"}[k]
}

var aggKinds = map[string]aggItemKind{"COUNT": aggCount, "MIN": aggMin, "MAX": aggMax, "SUM": aggSum, "AVG": aggAvg}

// aggItem is one aggregate call of a grouped block.
type aggItem struct {
	call *FuncExpr // as written; the same call written again reads the same slot
	kind aggItemKind
	arg  Expr  // the bound argument; nil for COUNT(*)
	err  error // raised by every group's read instead: SUM(*), a wrong argument count
}

// groupPlan is a grouped block's grouping stage.
type groupPlan struct {
	width   int    // the input row's width: a group row's first cells
	keys    []Expr // bound GROUP BY expressions
	items   []aggItem
	having  Expr   // over the group row; nil without HAVING
	chunked bool   // the chunk feeder applies (see chunkable)
	keyCols []int  // ... and the keys are these base columns
	sig     string // ... and a page's partial holds this fold; "" when an argument computes
}

// aggRef reads an aggregate's slot of a group row: its value at cell, or
// the error its fold recorded (evalEnv.slotErrs), raised only here.
type aggRef struct{ slot, cell int }

// eagerLogic is AND or OR in a grouped expression: both operands are
// evaluated, so an error in either surfaces whatever the other's value.
type eagerLogic struct{ BinaryExpr }

func (*aggRef) expr()     {}
func (*eagerLogic) expr() {}

// outputExpr compiles an expression of a block's output stages —
// projection, HAVING, ORDER BY — bound to the block's rows, or left as
// written (bind=false) for an ORDER BY key that may read an alias. A
// grouped block's rows are its group rows: aggregate calls are extracted
// into slots, one per distinct call, along the nodes that combine values
// — binary and unary operators and CAST — and every other subtree is a
// leaf read against the group's first row. An aggregate inside a leaf stays there, and
// raises "aggregate X not allowed here" when a group evaluates it.
func (p *selectPlan) outputExpr(e Expr, bind bool) Expr {
	if g := p.group; g != nil {
		switch n := e.(type) {
		case *FuncExpr:
			if aggregateNames[n.Name] {
				for s, it := range g.items {
					if reflect.DeepEqual(it.call, n) {
						return &aggRef{slot: s, cell: g.width + s}
					}
				}
				it := aggItem{call: n}
				switch {
				case n.Star && n.Name != "COUNT":
					it.err = fmt.Errorf("%s(*) is not valid", n.Name)
				case n.Star:
				case len(n.Args) != 1:
					it.err = fmt.Errorf("%s expects exactly one argument", n.Name)
				default:
					it.kind, it.arg = aggKinds[n.Name], p.bind(n.Args[0])
				}
				g.items = append(g.items, it)
				return &aggRef{slot: len(g.items) - 1, cell: g.width + len(g.items) - 1}
			}
		case *BinaryExpr:
			b := BinaryExpr{Op: n.Op, Left: p.outputExpr(n.Left, bind), Right: p.outputExpr(n.Right, bind)}
			if n.Op == "AND" || n.Op == "OR" {
				return &eagerLogic{b}
			}
			return &b
		case *UnaryExpr:
			return &UnaryExpr{Op: n.Op, Operand: p.outputExpr(n.Operand, bind)}
		case *CastExpr:
			return &CastExpr{Operand: p.outputExpr(n.Operand, bind), Target: n.Target}
		}
	}
	if bind {
		return p.bind(e)
	}
	return e
}

// chunkable reports whether the chunk feeder can fold the block: every
// key is a base column, and every aggregate is COUNT(*) or, without
// DISTINCT, one over a base column or column arithmetic — SUM and AVG
// over a numeric one. An aggregate that fails folds as COUNT(*). It also
// names the fold's signature (groupPlan.sig).
func (p *selectPlan) chunkable() bool {
	g, t := p.group, p.t
	var sig []byte
	for _, k := range g.keys {
		col, ok := vecColumn(k, t)
		if !ok {
			return false
		}
		g.keyCols = append(g.keyCols, col)
		sig = append(strconv.AppendInt(sig, int64(col), 10), ',')
	}
	computes := false
	for i := range g.items {
		it := &g.items[i]
		sig = append(sig, '|', '0'+byte(it.kind))
		if it.arg == nil {
			continue
		}
		col, isCol := vecColumn(it.arg, t)
		ok := isCol
		if !isCol {
			hasCol, _, shape := vecExprShape(it.arg, t)
			ok, computes = hasCol && shape, true
		}
		if !ok || it.call.Distinct || (it.kind == aggSum || it.kind == aggAvg) && isCol && !t.Columns[col].Type.isNumeric() {
			return false
		}
		sig = strconv.AppendInt(sig, int64(col), 10)
	}
	if !computes {
		g.sig = string(sig)
	}
	return true
}

// aggAcc holds one aggregate's accumulators, one slot per group ordinal.
type aggAcc struct {
	count []int64    // COUNT(*): rows; any other: the non-null values folded
	sumX  []exactSum // SUM, AVG
	vals  []Value    // MIN/MAX: the best so far

	// The row feeder's errors per group, grown when one first fails: the
	// argument's first evaluation error, and the first fold error (SUM
	// over a VARCHAR, MIN over values Compare cannot order), after which
	// the group folds nothing more.
	evalErr, foldErr []error
	seen             map[string]bool // DISTINCT: the (group ordinal, value key) pairs folded
	key              []byte
}

// grow gives one more group a slot in what the aggregate folds into. An
// exact sum's slot left from a reset keeps its digits for reuse.
func (a *aggAcc) grow(kind aggItemKind) {
	a.count = append(a.count, 0)
	switch kind {
	case aggSum, aggAvg:
		if n := len(a.sumX); n < cap(a.sumX) {
			a.sumX = a.sumX[:n+1]
			a.sumX[n].reset()
		} else {
			a.sumX = append(a.sumX, exactSum{})
		}
	case aggMin, aggMax:
		a.vals = append(a.vals, Null)
	}
}

// reset drops every group's slot, keeping the allocations.
func (a *aggAcc) reset() {
	a.count, a.sumX, a.vals = a.count[:0], a.sumX[:0], a.vals[:0]
}

// fold is the chunk feeder's pass of one aggregate over a page: row
// rows[j] of v into local group gids[j] of the page's fresh groups
// (pageGroups), in row order, as the row feeder adds them. MIN/MAX
// compare in Compare's order (cmpKeys) and replace only on a strict win,
// so ties keep the first-seen value.
func (a *aggAcc) fold(kind aggItemKind, v *colVec, rows []uint16, gids []int32) {
	switch kind {
	case aggCountStar:
		for _, g := range gids {
			a.count[g]++
		}
	case aggCount:
		for j, r := range rows {
			if !v.nulls.get(int(r)) {
				a.count[gids[j]]++
			}
		}
	case aggSum, aggAvg:
		if v.typ == TypeDouble {
			a.foldFloats(v, rows, gids)
		} else {
			for j, r := range rows {
				if !v.nulls.get(int(r)) {
					g := gids[j]
					a.count[g]++
					a.sumX[g].addInt(v.ints[r])
				}
			}
		}
	case aggMin, aggMax:
		isMax := kind == aggMax
		for j, r := range rows {
			i := int(r)
			if v.nulls.get(i) {
				continue
			}
			g, val := gids[j], v.value(i)
			if a.count[g] == 0 {
				a.vals[g] = val
			} else if c := cmpKeys(val, a.vals[g]); isMax && c > 0 || !isMax && c < 0 {
				a.vals[g] = val
			}
			a.count[g]++
		}
	}
}

// foldFloats adds a DOUBLE page's values into the groups' exact sums: as
// integers at the page's fixed scale when it has one, which the fresh
// sums take, else one value at a time.
func (a *aggAcc) foldFloats(v *colVec, rows []uint16, gids []int32) {
	k, fixed := v.sumScale()
	if !fixed {
		for j, r := range rows {
			if !v.nulls.get(int(r)) {
				g := gids[j]
				a.count[g]++
				a.sumX[g].addFloat(v.flts[r])
			}
		}
		return
	}
	unit := math.Ldexp(1, k)
	for j, r := range rows {
		if !v.nulls.get(int(r)) {
			s := &a.sumX[gids[j]]
			a.count[gids[j]]++
			s.fix += int64(v.flts[r] * unit)
			s.scale, s.dbl = int32(k), true
		}
	}
}

// merge folds a page's groups, b, into these: local group j into group
// gmap[j]. It is fold's arithmetic over a page at a time, so the answer
// is the one a row-at-a-time fold gives: counts add, exact sums merge,
// and a MIN/MAX replaces only on a strict win. b is only read.
func (a *aggAcc) merge(kind aggItemKind, b *aggAcc, gmap []int32) {
	switch kind {
	case aggSum, aggAvg:
		for j, g := range gmap {
			a.count[g] += b.count[j]
			a.sumX[g].merge(&b.sumX[j])
		}
	case aggMin, aggMax:
		isMax := kind == aggMax
		for j, g := range gmap {
			if b.count[j] == 0 {
				continue
			}
			if a.count[g] == 0 {
				a.vals[g] = b.vals[j]
			} else if c := cmpKeys(b.vals[j], a.vals[g]); isMax && c > 0 || !isMax && c < 0 {
				a.vals[g] = b.vals[j]
			}
			a.count[g] += b.count[j]
		}
	default:
		for j, g := range gmap {
			a.count[g] += b.count[j]
		}
	}
}

// clone is a compact copy of the accumulators a page's partial keeps.
func (a *aggAcc) clone() aggAcc {
	c := aggAcc{count: slices.Clone(a.count), vals: slices.Clone(a.vals)}
	if a.sumX != nil {
		c.sumX = make([]exactSum, len(a.sumX))
		for i := range a.sumX {
			c.sumX[i] = a.sumX[i].clone()
		}
	}
	return c
}

// add is the row feeder's fold of one aggregate for one input row,
// env.row, of group g: the argument evaluated, a NULL and a DISTINCT
// aggregate's repeat skipped, the value folded as fold would.
func (a *aggAcc) add(it *aggItem, g int32, env *evalEnv) {
	if it.arg == nil { // COUNT(*), or an aggregate that fails
		a.count[g]++
		return
	}
	if int(g) < len(a.evalErr) && a.evalErr[g] != nil {
		return
	}
	v, err := eval(it.arg, env)
	switch {
	case err != nil:
		setErr(&a.evalErr, g, err)
		return
	case v.IsNull() || int(g) < len(a.foldErr) && a.foldErr[g] != nil:
		return
	case it.call.Distinct:
		a.key = appendGroupKey(append(strconv.AppendInt(a.key[:0], int64(g), 10), '\x01'), v)
		if a.seen[string(a.key)] {
			return
		}
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		a.seen[string(a.key)] = true
	}
	switch it.kind {
	case aggSum, aggAvg:
		if !v.Type.isNumeric() {
			setErr(&a.foldErr, g, fmt.Errorf("%s requires numeric values, got %s", it.kind, v.Type))
			return
		}
		if v.Type == TypeDouble {
			a.sumX[g].addFloat(v.F)
		} else {
			a.sumX[g].addInt(v.I)
		}
	case aggMin, aggMax:
		if a.count[g] > 0 {
			c, err := Compare(v, a.vals[g])
			if err != nil {
				setErr(&a.foldErr, g, err)
				return
			}
			if it.kind == aggMax && c <= 0 || it.kind == aggMin && c >= 0 {
				break
			}
		}
		a.vals[g] = v
	}
	a.count[g]++
}

func setErr(errs *[]error, g int32, err error) {
	for len(*errs) <= int(g) {
		*errs = append(*errs, nil)
	}
	(*errs)[g] = err
}

// result is the aggregate's value for group g, or the error reading it
// raises.
func (a *aggAcc) result(it *aggItem, g int) (Value, error) {
	switch {
	case it.err != nil:
		return Null, it.err
	case g < len(a.evalErr) && a.evalErr[g] != nil:
		return Null, a.evalErr[g]
	case g < len(a.foldErr) && a.foldErr[g] != nil:
		return Null, a.foldErr[g]
	case it.kind == aggCountStar || it.kind == aggCount:
		return NewBigint(a.count[g]), nil
	case a.count[g] == 0:
		return Null, nil
	case it.kind == aggAvg:
		return NewDouble(a.sumX[g].round() / float64(a.count[g])), nil
	case it.kind != aggSum:
		return a.vals[g], nil
	case a.sumX[g].dbl:
		return NewDouble(a.sumX[g].round()), nil
	}
	if v, ok := a.sumX[g].int(); ok {
		return NewBigint(v), nil
	}
	return Null, fmt.Errorf("SUM out of BIGINT range")
}

// aggGroups is one execution's groups: each group's first input row and,
// per aggregate, its accumulators.
type aggGroups struct {
	g     *groupPlan
	env   *evalEnv
	accs  []aggAcc
	first [][]Value // per group; nil for the implicit group until it meets a row
	keys  map[string]int32
	key   []byte // the row at hand's key: its values' appendGroupKey bytes

	// One INTEGER/BIGINT key column: the ordinal per non-NULL key, in
	// ints, or — when the pages' zone maps bound the keys to a span of
	// denseKeys or less — plus one per key − lo in dense.
	ints  map[int64]int32
	dense []int32
	lo    int64

	// The chunk feeder's: a page's rows fold into the page's own groups,
	// part — gids holding each selected row's local ordinal — which then
	// merge into these, gmap holding each local group's ordinal here. For
	// one integer key, a local group is found per key − min of a narrow
	// page (local, -1 until met) or per key (lints); for others, per key
	// bytes (lkeys).
	part  pagePartial
	gids  []int32
	gmap  []int32
	local *[chunkRows]int32
	lints map[int64]int32
	lkeys map[string]int32
}

func newAggGroups(g *groupPlan, env *evalEnv) *aggGroups {
	gs := &aggGroups{g: g, env: env, accs: make([]aggAcc, len(g.items)), keys: map[string]int32{}}
	if len(g.keys) == 0 {
		gs.create(nil) // one implicit group, even over zero rows
	}
	return gs
}

func (gs *aggGroups) create(first []Value) int32 {
	gs.first = append(gs.first, first)
	for k := range gs.accs {
		gs.accs[k].grow(gs.g.items[k].kind)
	}
	return int32(len(gs.first) - 1)
}

// keyed is the ordinal of the group keyed gs.key, created with first
// when it is new.
func (gs *aggGroups) keyed(first []Value) int32 {
	g, ok := gs.keys[string(gs.key)]
	if !ok {
		g = gs.create(first)
		gs.keys[string(gs.key)] = g
	}
	return g
}

// feed is the row feeder: every filtered input row joins the group its
// key values encode to, and every aggregate folds its argument evaluated
// against the row. A key that fails to evaluate fails the statement now;
// an argument's error is recorded on its group's slot (see aggAcc).
func (gs *aggGroups) feed(rows [][]Value) error {
	env := gs.env
	for _, r := range rows {
		if err := env.checkCtx(); err != nil {
			return err
		}
		env.row = r
		var g int32
		if len(gs.g.keys) == 0 && gs.first[0] == nil {
			gs.first[0] = r
		} else if len(gs.g.keys) > 0 {
			gs.key = gs.key[:0]
			for _, ke := range gs.g.keys {
				v, err := eval(ke, env)
				if err != nil {
					return err
				}
				gs.key = append(appendGroupKey(gs.key, v), '\x01')
			}
			g = gs.keyed(r)
		}
		for k := range gs.accs {
			gs.accs[k].add(&gs.g.items[k], g, env)
		}
	}
	return nil
}

// pagePartials is the number of grouping signatures a page keeps a
// partial for; a new one displaces the oldest.
const pagePartials = 4

type partialSet [pagePartials]*pagePartial

// pagePartial is one page's grouped fold under one signature: the page's
// groups in order of first appearance, each with its first row's
// position and, per aggregate, the accumulators fold leaves. Merged into
// an execution's groups in page order, partials give what folding the
// pages' rows gives: groups are created in order of first appearance
// with the same first rows, and the merge is fold's own arithmetic. Once
// published a partial is only read.
type pagePartial struct {
	sig   string
	first []uint16
	accs  []aggAcc
}

// partial is the page's partial under sig, or nil.
func (ch *colChunk) partial(sig string) *pagePartial {
	if set := ch.partials.Load(); set != nil {
		for _, p := range set {
			if p != nil && p.sig == sig {
				return p
			}
		}
	}
	return nil
}

// keepPartial publishes p as the page's newest partial. When another
// reader published first, p is dropped: the page keeps theirs.
func (ch *colChunk) keepPartial(p *pagePartial) {
	old := ch.partials.Load()
	set := &partialSet{p}
	if old != nil {
		copy(set[1:], old[:])
	}
	ch.partials.CompareAndSwap(old, set)
}

// foldChunks is the chunk feeder: the table's chunks through the bound
// predicate bp, each page's selected rows folded into the page's groups
// — one group-ordinal pass and then one fold per aggregate — and those
// merged into the execution's. A page whose every row is selected, under
// a block whose aggregates read base columns (groupPlan.sig), merges its
// stored partial instead, or stores the one it folds. done=false reports
// it abandoned, with no error — an argument that does not bind, a zero
// divisor on a selected row — and the row feeder must start over on
// fresh groups.
func (gs *aggGroups) foldChunks(d *Database, t *Table, bp boundVec) (done bool, err error) {
	items, sig := gs.g.items, gs.g.sig
	if cols := gs.g.keyCols; len(cols) == 1 && (t.Columns[cols[0]].Type == TypeInteger || t.Columns[cols[0]].Type == TypeBigint) {
		gs.ints, gs.lints, gs.local = map[int64]int32{}, map[int64]int32{}, new([chunkRows]int32)
		gs.denseTable(t, cols[0])
	} else if len(cols) > 0 {
		gs.lkeys = map[string]int32{}
	}
	args, vecs := make([]boundExpr, len(items)), make([]*colVec, len(items))
	for k, it := range items {
		if it.arg != nil {
			if args[k], done = bindVecExpr(it.arg, t, gs.env.params); !done {
				return false, nil
			}
		}
	}
	gs.part.accs, gs.gids, done = make([]aggAcc, len(items)), make([]int32, chunkRows), true
	err = d.eachChunk(gs.env.ctx, bp, t.pages, nil, func(ch *colChunk, rows []uint16) (bool, error) {
		whole := sig != "" && len(rows) == ch.n
		if whole {
			if p := ch.partial(sig); p != nil {
				d.vecPartials.Add(1)
				gs.merge(ch, p)
				return true, nil
			}
		}
		for k := range items {
			if args[k] != nil {
				if vecs[k], done = args[k].eval(ch, rows); !done {
					return false, nil // a zero divisor on a selected row
				}
				if _, isCol := args[k].(*beCol); !isCol && vecs[k].typ == TypeDouble {
					vecs[k].noteRows(rows)
				}
			}
		}
		gids := gs.pageGroups(ch, rows)
		for k, it := range items {
			gs.part.accs[k].fold(it.kind, vecs[k], rows, gids)
		}
		if whole {
			ch.keepPartial(gs.part.clone(sig))
		}
		gs.merge(ch, &gs.part)
		return true, nil
	})
	return done, err
}

// pageGroups is the group-ordinal pass over one page: it empties gs.part,
// creates the page's groups there in row order, and returns the local
// ordinal of each selected row's group.
func (gs *aggGroups) pageGroups(ch *colChunk, rows []uint16) []int32 {
	p, gids := &gs.part, gs.gids[:len(rows)]
	p.first = p.first[:0]
	for k := range p.accs {
		p.accs[k].reset()
	}
	switch {
	case len(gs.g.keys) == 0: // every row is group 0: gids is never written
		if len(rows) > 0 {
			gs.localGroup(rows[0])
		}
	case gs.ints != nil:
		v := &ch.vecs[gs.g.keyCols[0]]
		lo, span := v.min.I, v.max.I-v.min.I
		narrow := v.nonNull > 0 && span >= 0 && span < chunkRows // else no key, overflow, or wider than a page
		if narrow {
			local := gs.local[:span+1]
			for s := range local {
				local[s] = -1
			}
		} else {
			clear(gs.lints)
		}
		null := int32(-1)
		for j, r := range rows {
			i := int(r)
			var s *int32
			switch {
			case v.nulls.get(i):
				s = &null
			case narrow:
				s = &gs.local[v.ints[i]-lo]
			default:
				g, ok := gs.lints[v.ints[i]]
				if !ok {
					g = gs.localGroup(r)
					gs.lints[v.ints[i]] = g
				}
				gids[j] = g
				continue
			}
			if *s < 0 {
				*s = gs.localGroup(r)
			}
			gids[j] = *s
		}
	default:
		clear(gs.lkeys)
		for j, r := range rows {
			gs.pageKey(ch, int(r))
			g, ok := gs.lkeys[string(gs.key)]
			if !ok {
				g = gs.localGroup(r)
				gs.lkeys[string(gs.key)] = g
			}
			gids[j] = g
		}
	}
	return gids
}

// localGroup creates a page group whose first row is at position r.
func (gs *aggGroups) localGroup(r uint16) int32 {
	p := &gs.part
	p.first = append(p.first, r)
	for k := range p.accs {
		p.accs[k].grow(gs.g.items[k].kind)
	}
	return int32(len(p.first) - 1)
}

// pageKey sets gs.key to the key of the row at position i of the page.
func (gs *aggGroups) pageKey(ch *colChunk, i int) {
	gs.key = gs.key[:0]
	for _, gc := range gs.g.keyCols {
		gs.key = append(ch.vecs[gc].appendGroupKey(gs.key, i), '\x01')
	}
}

// merge folds page ch's groups, p, into the execution's, creating those
// first met here in p's order.
func (gs *aggGroups) merge(ch *colChunk, p *pagePartial) {
	gmap := gs.gmap[:0]
	for _, r := range p.first {
		i := int(r)
		switch {
		case len(gs.g.keys) == 0:
			if gs.first[0] == nil {
				gs.first[0] = ch.rowAt(i)
			}
			gmap = append(gmap, 0)
		case gs.ints != nil:
			v := &ch.vecs[gs.g.keyCols[0]]
			if gs.dense == nil || v.nulls.get(i) {
				gmap = append(gmap, gs.intGroup(ch, i, v))
				break
			}
			s := &gs.dense[v.ints[i]-gs.lo]
			if *s == 0 {
				*s = gs.create(ch.rowAt(i)) + 1
			}
			gmap = append(gmap, *s-1)
		default:
			gs.pageKey(ch, i)
			gmap = append(gmap, gs.keyed(ch.rowAt(i)))
		}
	}
	for k, it := range gs.g.items {
		gs.accs[k].merge(it.kind, &p.accs[k], gmap)
	}
	gs.gmap = gmap
}

// clone is the partial to keep for the page: a compact copy of p under
// sig.
func (p *pagePartial) clone(sig string) *pagePartial {
	c := &pagePartial{sig: sig, first: slices.Clone(p.first), accs: make([]aggAcc, len(p.accs))}
	for k := range p.accs {
		c.accs[k] = p.accs[k].clone()
	}
	return c
}

// denseKeys is the most keys a dense table of integer group ordinals
// spans.
const denseKeys = 1 << 16

// denseTable sets up the dense table when the zone maps of column col
// bound its keys to a span of denseKeys or less.
func (gs *aggGroups) denseTable(t *Table, col int) {
	lo, hi, seen := int64(0), int64(0), false
	for _, ch := range t.pages {
		if ch == nil || ch.vecs[col].nonNull == 0 {
			continue
		}
		v := &ch.vecs[col]
		if !seen {
			lo, hi, seen = v.min.I, v.max.I, true
		}
		lo, hi = min(lo, v.min.I), max(hi, v.max.I)
	}
	if seen && uint64(hi)-uint64(lo) < denseKeys {
		gs.dense, gs.lo = make([]int32, hi-lo+1), lo
	}
}

// intGroup is the ordinal of row i's group under one integer key, when
// the key is NULL or there is no dense table.
func (gs *aggGroups) intGroup(ch *colChunk, i int, v *colVec) int32 {
	if v.nulls.get(i) {
		gs.key = appendGroupKey(gs.key[:0], Null)
		return gs.keyed(ch.rowAt(i))
	}
	g, ok := gs.ints[v.ints[i]]
	if !ok {
		g = gs.create(ch.rowAt(i))
		gs.ints[v.ints[i]] = g
	}
	return g
}

// emit runs the group rows through the block's output stages, sc —
// HAVING, projection, order keys — one group at a time in order of first
// appearance, so a group's errors surface before any later group's. The
// implicit group over no rows has an all-NULL first row.
func (gs *aggGroups) emit(sc *rowScan, k *streamSink) error {
	g, env := gs.g, sc.env
	env.slotErrs = make([]error, len(g.items))
	defer func() { env.slotErrs = nil }()
	sc.slab, k.batch = newRowSlab(len(sc.exprs), len(gs.first)), make([][]Value, 0, len(gs.first))
	// Nothing keeps a group row past its segment, so one serves them all.
	row, one := make([]Value, g.width+len(g.items)), make([][]Value, 1)
	for i, first := range gs.first {
		clear(row[:g.width])
		copy(row, first)
		for s := range g.items {
			row[g.width+s], env.slotErrs[s] = gs.accs[s].result(&g.items[s], i)
		}
		one[0] = row
		if err := sc.segment(k, one); err != nil {
			return err
		}
	}
	return nil
}
