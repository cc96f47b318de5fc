package sqlengine

import "fmt"

// Vectorised aggregation: GROUP BY / aggregate SELECTs over a single
// base table compile into an aggPlan that folds column chunks into
// typed accumulators — no per-row evalEnv, no per-row group-row
// slices. The compilable class is chosen so results are byte-identical
// to execGrouped; anything outside it (HAVING, DISTINCT, aggregate
// arguments beyond column arithmetic, non-ordinal ORDER BY, ...) runs
// as the block plan's grouping stage, execGrouped over its filtered rows.

type aggItemKind int

const (
	aggCountStar aggItemKind = iota // COUNT(*)
	aggCount                        // COUNT(col): non-null count
	aggMin
	aggMax
	aggSum
	aggAvg
	aggGroupCol // plain column: the group's first row value
)

// String is the aggregate's SQL name, for EXPLAIN.
func (k aggItemKind) String() string {
	return [...]string{"COUNT", "COUNT", "MIN", "MAX", "SUM", "AVG", ""}[k]
}

type aggItem struct {
	kind aggItemKind
	col  int      // base-column ordinal; -1 for COUNT(*) and expression arguments
	expr *vecExpr // expression argument (SUM(a+b)); nil for a plain column
}

// aggPlan is a compiled aggregate query: items classified, GROUP BY
// resolved to base columns, and ORDER BY restricted to output ordinals,
// over a source whose WHERE the kernels take whole. Valid only while
// the schema epoch matches.
type aggPlan struct {
	sel   *SelectStmt
	epoch uint64

	src      *tableSource
	projCols []ResultColumn
	items    []aggItem
	groupBy  []int

	orderIdx []int // output ordinals for ORDER BY keys
	explain  []string
}

// planAggregate compiles a grouped/aggregate SELECT block over one base
// table from its source, or returns nil when any part is outside the
// vectorisable class: the block's plan then groups its filtered rows with
// execGrouped, which also raises any error (a plan-time bail is always
// safe because that stage is the reference implementation). Caller holds
// d.mu for reading.
func (d *Database) planAggregate(sel *SelectStmt, src *tableSource) *aggPlan {
	// A WHERE outside the kernels' class includes one with an aggregate in it.
	if sel.Distinct || sel.Having != nil || sel.Where != nil && src.pred == nil {
		return nil
	}
	t, cols := src.t, src.cols
	projCols, projExprs, err := expandSelectItems(sel, &evalEnv{cols: cols})
	if err != nil {
		return nil
	}

	ap := &aggPlan{sel: sel, epoch: d.epoch, src: src, projCols: projCols}

	// GROUP BY: plain base columns only.
	for _, ge := range sel.GroupBy {
		re, ok := rewriteExpr(ge, cols)
		if !ok {
			return nil
		}
		bc, ok := re.(*boundColExpr)
		if !ok || bc.idx >= len(t.Columns) {
			return nil
		}
		ap.groupBy = append(ap.groupBy, bc.idx)
	}

	// Select items: direct aggregates over a plain column or column
	// arithmetic, COUNT(*), or a plain column (grouped only — with no
	// GROUP BY execGrouped has no first row to read and the query is
	// malformed anyway).
	for _, e := range projExprs {
		re, ok := rewriteExpr(e, cols)
		if !ok {
			return nil
		}
		switch n := re.(type) {
		case *boundColExpr:
			if len(ap.groupBy) == 0 || n.idx >= len(t.Columns) {
				return nil
			}
			ap.items = append(ap.items, aggItem{kind: aggGroupCol, col: n.idx})
		case *FuncExpr:
			if !aggregateNames[n.Name] || n.Distinct {
				return nil
			}
			if n.Star {
				if n.Name != "COUNT" {
					return nil // execGrouped raises the error
				}
				ap.items = append(ap.items, aggItem{kind: aggCountStar, col: -1})
				continue
			}
			if len(n.Args) != 1 {
				return nil
			}
			it := aggItem{col: -1}
			if col, ok := vecColumn(n.Args[0], t); ok {
				it.col = col
			} else if it.expr, ok = compileVecExpr(n.Args[0], t); !ok {
				return nil
			}
			switch n.Name {
			case "COUNT":
				it.kind = aggCount
			case "MIN":
				it.kind = aggMin
			case "MAX":
				it.kind = aggMax
			case "SUM", "AVG":
				if it.expr == nil && !t.Columns[it.col].Type.isNumeric() {
					return nil // execGrouped raises the error per group
				}
				if n.Name == "SUM" {
					it.kind = aggSum
				} else {
					it.kind = aggAvg
				}
			default:
				return nil
			}
			ap.items = append(ap.items, it)
		default:
			return nil
		}
	}

	// ORDER BY: output ordinals only; names would resolve through the
	// grouped alias scope, which execGrouped reproduces.
	for _, oi := range sel.OrderBy {
		ord, ok := ordinalRef(oi.Expr, len(ap.items))
		if !ok {
			return nil
		}
		ap.orderIdx = append(ap.orderIdx, ord)
	}

	ap.explain = ap.explainLines()
	return ap
}

func (ap *aggPlan) explainLines() []string {
	// Every chunk, through the kernels, whatever index the source found.
	lines := append([]string{fmt.Sprintf("select on %q (vectorised aggregate)", ap.src.t.Name)},
		ap.src.explainLines(accessFullScan.String(), true, "row fallback")...)
	lines = append(lines, fmt.Sprintf("  aggregate: %d item(s), group by %d column(s)", len(ap.items), len(ap.groupBy)))
	for _, it := range ap.items {
		if it.expr != nil {
			lines = append(lines, fmt.Sprintf("  aggregate arg: expression kernel (%s(%s))", it.kind, it.expr.text(ap.src.t)))
		}
	}
	if len(ap.orderIdx) > 0 {
		lines = append(lines, fmt.Sprintf("  order: sort on %d key(s)", len(ap.orderIdx)))
	}
	if ap.sel.Offset != nil {
		lines = append(lines, "  offset: yes")
	}
	if ap.sel.Limit != nil {
		lines = append(lines, "  limit: yes")
	}
	return lines
}

// aggAcc holds one item's accumulators, one slot per group ordinal; only
// the slices the item's kind and argument type fold into are grown.
type aggAcc struct {
	count []int64   // COUNT(*): rows; every other aggregate: non-null rows
	sumI  []int64   // SUM of an integer argument
	sumF  []float64 // SUM of a DOUBLE argument; AVG
	vals  []Value   // MIN/MAX: the best so far; a plain column: the group's first-row value
}

// growTo extends s with zeroes to length n.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// grow gives groups up to n a slot in what the item folds into; a plain
// column's slots are filled as its groups are created.
func (a *aggAcc) grow(kind aggItemKind, typ Type, n int) {
	if kind == aggGroupCol {
		return
	}
	a.count = growTo(a.count, n)
	switch {
	case kind == aggSum && typ != TypeDouble:
		a.sumI = growTo(a.sumI, n)
	case kind == aggSum || kind == aggAvg:
		a.sumF = growTo(a.sumF, n)
	case kind == aggMin || kind == aggMax:
		a.vals = growTo(a.vals, n)
	}
}

// fold is one item's pass over a chunk: the selected rows of v, rows[j]
// into the accumulators of group gids[j], in row order, so every group
// adds its values in the order execGrouped does. MIN/MAX compare in the
// total order (cmpKeys, so a NaN is the greatest value) and replace only
// on a strict win, exactly like evalAggregate, so ties keep the
// first-seen value.
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
		switch {
		case v.typ == TypeDouble:
			foldSum(a.count, a.sumF, v.flts, v.nulls, rows, gids)
		case kind == aggSum:
			foldSum(a.count, a.sumI, v.ints, v.nulls, rows, gids)
		default: // AVG of integers adds them as doubles, like evalAggregate
			for j, r := range rows {
				if !v.nulls.get(int(r)) {
					g := gids[j]
					a.count[g]++
					a.sumF[g] += float64(v.ints[r])
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

func foldSum[T int64 | float64](count []int64, sum, xs []T, nulls bitset, rows []uint16, gids []int32) {
	for j, r := range rows {
		if nulls.get(int(r)) {
			continue
		}
		g := gids[j]
		count[g]++
		sum[g] += xs[r]
	}
}

// result is the item's value for group g.
func (a *aggAcc) result(kind aggItemKind, typ Type, g int) Value {
	switch kind {
	case aggCountStar, aggCount:
		return NewBigint(a.count[g])
	case aggGroupCol:
		return a.vals[g]
	}
	if a.count[g] == 0 {
		return Null
	}
	switch kind {
	case aggSum:
		if typ == TypeDouble {
			return NewDouble(a.sumF[g])
		}
		return NewBigint(a.sumI[g])
	case aggAvg:
		return NewDouble(a.sumF[g] / float64(a.count[g]))
	}
	return a.vals[g]
}

// aggGroups numbers one execution's groups in order of first appearance.
type aggGroups struct {
	ap   *aggPlan
	accs []aggAcc
	n    int32
	gids [chunkRows]int32 // the chunk at hand: per selected row, its group's ordinal

	ints  map[int64]int32   // one INTEGER/BIGINT key
	null  int32             // ... its NULL group, -1 until met
	local *[chunkRows]int32 // ... a narrow chunk's keys: key − min → ordinal, -1 until met in this chunk
	keys  map[string]int32  // any other key: execGrouped's group-key bytes
	key   []byte
}

func newAggGroups(ap *aggPlan) *aggGroups {
	gs := &aggGroups{ap: ap, accs: make([]aggAcc, len(ap.items)), null: -1}
	if len(ap.groupBy) == 0 {
		gs.n = 1 // one implicit group, even over zero rows
		return gs
	}
	if gt := ap.src.t.Columns[ap.groupBy[0]].Type; len(ap.groupBy) == 1 && (gt == TypeInteger || gt == TypeBigint) {
		gs.ints, gs.local = map[int64]int32{}, new([chunkRows]int32)
	} else {
		gs.keys = map[string]int32{}
	}
	return gs
}

func (gs *aggGroups) create(ch *colChunk, i int) int32 {
	for k, it := range gs.ap.items {
		if it.kind == aggGroupCol {
			gs.accs[k].vals = append(gs.accs[k].vals, ch.vecs[it.col].value(i))
		}
	}
	gs.n++
	return gs.n - 1
}

// ordinals is the group-ordinal pass over one chunk: it creates the groups
// of keys first met here, in row order, and returns the ordinal of each
// selected row's group.
func (gs *aggGroups) ordinals(ch *colChunk, rows []uint16) []int32 {
	gids := gs.gids[:len(rows)]
	switch {
	case len(gs.ap.groupBy) == 0:
		// Every row is group 0: gids is never written.
	case gs.ints != nil:
		v := &ch.vecs[gs.ap.groupBy[0]]
		lo, span := v.min.I, v.max.I-v.min.I
		if v.statN == 0 || span < 0 || span >= chunkRows { // no key, overflow, or wider than a chunk
			for j, r := range rows {
				gids[j] = gs.intGroup(ch, int(r), v)
			}
			break
		}
		// Every key lies in [min, max]: each is looked up once per chunk.
		local := gs.local[:span+1]
		for s := range local {
			local[s] = -1
		}
		for j, r := range rows {
			i := int(r)
			if v.nulls.get(i) {
				gids[j] = gs.intGroup(ch, i, v)
				continue
			}
			s := &local[v.ints[i]-lo]
			if *s < 0 {
				*s = gs.intGroup(ch, i, v)
			}
			gids[j] = *s
		}
	default:
		for j, r := range rows {
			i := int(r)
			gs.key = gs.key[:0]
			for _, gc := range gs.ap.groupBy {
				gs.key = ch.vecs[gc].appendGroupKey(gs.key, i)
				gs.key = append(gs.key, '\x01')
			}
			g, ok := gs.keys[string(gs.key)]
			if !ok {
				g = gs.create(ch, i)
				gs.keys[string(gs.key)] = g
			}
			gids[j] = g
		}
	}
	return gids
}

// intGroup is the ordinal of row i's group under one integer key.
func (gs *aggGroups) intGroup(ch *colChunk, i int, v *colVec) int32 {
	if v.nulls.get(i) {
		if gs.null < 0 {
			gs.null = gs.create(ch, i)
		}
		return gs.null
	}
	g, ok := gs.ints[v.ints[i]]
	if !ok {
		g = gs.create(ch, i)
		gs.ints[v.ints[i]] = g
	}
	return g
}

// execAggPlan runs a compiled aggregate; in carries the execution's
// parameters and context. handled=false means the plan was abandoned —
// an operand that does not bind, an unbuildable chunk cache, a zero
// divisor on a selected row — and the block's plan must run. Caller holds
// d.mu for reading and has verified ap.epoch == d.epoch.
//
// Each chunk takes one group-ordinal pass, then one fold per item.
func (d *Database) execAggPlan(ap *aggPlan, in *evalEnv) (set *ResultSet, handled bool, err error) {
	t, params := ap.src.t, in.params
	// Per item: the bound expression argument (nil for a plain column), the
	// static type of what it aggregates, and the vector it reads in the
	// chunk at hand.
	type itemInput struct {
		arg boundExpr
		typ Type
		vec *colVec
	}
	inputs := make([]itemInput, len(ap.items))
	for k, it := range ap.items {
		switch {
		case it.expr != nil:
			arg, ok := bindVecExpr(it.expr.e, t, params)
			if !ok {
				return nil, false, nil
			}
			inputs[k] = itemInput{arg: arg, typ: arg.typ()}
		case it.col >= 0:
			inputs[k].typ = t.Columns[it.col].Type
		}
	}
	bp, chunks, _ := d.bindKernels(ap.src, params, true)
	if !chunks {
		return nil, false, nil
	}

	gs := newAggGroups(ap)
	abandoned := false
	err = d.eachChunk(in.ctx, bp, t.pages, nil, func(ch *colChunk, rows []uint16) (bool, error) {
		for k, it := range ap.items {
			switch {
			case inputs[k].arg != nil:
				v, ok := inputs[k].arg.eval(ch, rows)
				if !ok {
					abandoned = true // a zero divisor on a selected row
					return false, nil
				}
				inputs[k].vec = v
			case it.col >= 0:
				inputs[k].vec = &ch.vecs[it.col]
			}
		}
		gids := gs.ordinals(ch, rows)
		for k, it := range ap.items {
			gs.accs[k].grow(it.kind, inputs[k].typ, int(gs.n))
			gs.accs[k].fold(it.kind, inputs[k].vec, rows, gids)
		}
		return true, nil
	})
	if err != nil || abandoned {
		return nil, !abandoned, err
	}

	out := &ResultSet{Columns: ap.projCols}
	var orderKeys [][]Value
	for k, it := range ap.items {
		gs.accs[k].grow(it.kind, inputs[k].typ, int(gs.n)) // the implicit group when no chunk was read
	}
	for g := 0; g < int(gs.n); g++ {
		vals := make([]Value, len(ap.items))
		for k, it := range ap.items {
			vals[k] = gs.accs[k].result(it.kind, inputs[k].typ, g)
		}
		out.Rows = append(out.Rows, vals)
		if len(ap.orderIdx) > 0 {
			keys := make([]Value, len(ap.orderIdx))
			for ki, ord := range ap.orderIdx {
				keys[ki] = vals[ord]
			}
			orderKeys = append(orderKeys, keys)
		}
	}

	if len(ap.orderIdx) > 0 {
		if err := sortRows(out, orderKeys, ap.sel.OrderBy); err != nil {
			return nil, true, err
		}
	}
	if err := applyOffsetLimit(out, ap.sel, in); err != nil {
		return nil, true, err
	}
	return out, true, nil
}
