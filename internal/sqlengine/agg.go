package sqlengine

import "fmt"

// Vectorised aggregation: GROUP BY / aggregate SELECTs over a single
// base table compile into an aggPlan that folds column chunks into
// typed accumulators — no per-row evalEnv, no per-row group-row
// slices. The compilable class is chosen so results are byte-identical
// to execGrouped; anything outside it (HAVING, DISTINCT, aggregate
// arguments beyond column arithmetic, non-ordinal ORDER BY, ...) stays
// on the interpreter.

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

// planAggregate compiles a grouped/aggregate SELECT block — one planSelect
// refused for its grouping — from its source, or returns nil when any
// part is outside the vectorisable class: the interpreter then runs the
// statement, including producing any errors (a plan-time bail is always
// safe because the fallback IS the reference implementation). Caller
// holds d.mu for reading.
func (d *Database) planAggregate(sel *SelectStmt, src *tableSource) *aggPlan {
	// A WHERE outside the kernels' class includes one with an aggregate in it.
	if sel.Having != nil || sel.Where != nil && src.pred == nil {
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
	// GROUP BY the interpreter has no first row to read and the query is
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
					return nil // interpreter errors; let it
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
					return nil // interpreter errors per group; let it
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
	// grouped alias scope, which only the interpreter reproduces.
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

// aggAcc accumulates one aggregate item over one group. MIN/MAX keep
// the stored Value and replace only on a strict Compare win, exactly
// like evalAggregate — so NaN never displaces a value and is never
// displaced, and ties keep the first-seen value.
type aggAcc struct {
	count int64
	sumI  int64
	sumF  float64
	has   bool
	best  Value
}

type aggGroup struct {
	n     int64 // total rows, for COUNT(*)
	first []Value
	accs  []aggAcc
}

// execAggPlan runs a compiled aggregate; in carries the execution's
// parameters and context. handled=false means the plan was abandoned —
// an operand that does not bind, an unbuildable chunk cache, a zero
// divisor on a selected row — and the interpreter must run. Caller holds
// d.mu for reading and has verified ap.epoch == d.epoch.
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
	bp, tc, _ := d.bindKernels(ap.src, params, true)
	if tc == nil {
		return nil, false, nil
	}

	var groups []*aggGroup
	newGroup := func(ch *colChunk, i int) *aggGroup {
		g := &aggGroup{accs: make([]aggAcc, len(ap.items))}
		if len(ap.groupBy) > 0 {
			g.first = make([]Value, len(ap.items))
			for k, it := range ap.items {
				if it.kind == aggGroupCol {
					g.first[k] = ch.vecs[it.col].value(i)
				}
			}
		}
		groups = append(groups, g)
		return g
	}

	// Group lookup: a dense int64 map when grouping by one integer
	// column (the NULL group keyed separately), otherwise the
	// interpreter's own composite group-key bytes.
	intKeyed := false
	var intGroups map[int64]*aggGroup
	var nullGroup *aggGroup
	var strGroups map[string]*aggGroup
	if len(ap.groupBy) == 1 {
		gt := t.Columns[ap.groupBy[0]].Type
		if gt == TypeInteger || gt == TypeBigint {
			intKeyed = true
			intGroups = map[int64]*aggGroup{}
		}
	}
	if !intKeyed {
		strGroups = map[string]*aggGroup{}
	}
	var keyBuf []byte

	abandoned := false
	err = d.eachChunk(in.ctx, bp, tc, func(ch *colChunk, rows []uint16) (bool, error) {
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
		for _, r := range rows {
			i := int(r)
			var g *aggGroup
			switch {
			case len(ap.groupBy) == 0:
				if len(groups) == 0 {
					g = newGroup(ch, i)
				} else {
					g = groups[0]
				}
			case intKeyed:
				v := &ch.vecs[ap.groupBy[0]]
				if v.nulls.get(i) {
					if nullGroup == nil {
						nullGroup = newGroup(ch, i)
					}
					g = nullGroup
				} else {
					k := v.ints[i]
					g = intGroups[k]
					if g == nil {
						g = newGroup(ch, i)
						intGroups[k] = g
					}
				}
			default:
				keyBuf = keyBuf[:0]
				for _, gc := range ap.groupBy {
					keyBuf = ch.vecs[gc].appendGroupKey(keyBuf, i)
					keyBuf = append(keyBuf, '\x01')
				}
				g = strGroups[string(keyBuf)]
				if g == nil {
					g = newGroup(ch, i)
					strGroups[string(keyBuf)] = g
				}
			}
			g.n++
			for k := range ap.items {
				it := &ap.items[k]
				if it.kind == aggCountStar || it.kind == aggGroupCol {
					continue
				}
				v := inputs[k].vec
				if v.nulls.get(i) {
					continue
				}
				acc := &g.accs[k]
				switch it.kind {
				case aggCount:
					acc.count++
				case aggSum, aggAvg:
					acc.count++
					switch v.typ {
					case TypeDouble:
						acc.sumF += v.flts[i]
					default:
						acc.sumI += v.ints[i]
						acc.sumF += float64(v.ints[i])
					}
				case aggMin, aggMax:
					val := v.value(i)
					if !acc.has {
						acc.has, acc.best = true, val
						continue
					}
					c, _ := Compare(val, acc.best) // same column type: no error
					if (it.kind == aggMin && c < 0) || (it.kind == aggMax && c > 0) {
						acc.best = val
					}
				}
			}
		}
		return true, nil
	})
	if err != nil || abandoned {
		return nil, !abandoned, err
	}

	// No GROUP BY: one implicit group even over zero rows.
	if len(ap.groupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &aggGroup{accs: make([]aggAcc, len(ap.items))})
	}

	out := &ResultSet{Columns: ap.projCols}
	var orderKeys [][]Value
	for _, g := range groups {
		vals := make([]Value, len(ap.items))
		for k, it := range ap.items {
			acc := &g.accs[k]
			switch it.kind {
			case aggCountStar:
				vals[k] = NewBigint(g.n)
			case aggCount:
				vals[k] = NewBigint(acc.count)
			case aggGroupCol:
				vals[k] = g.first[k]
			case aggMin, aggMax:
				if !acc.has {
					vals[k] = Null
				} else {
					vals[k] = acc.best
				}
			case aggSum:
				switch {
				case acc.count == 0:
					vals[k] = Null
				case inputs[k].typ == TypeDouble:
					vals[k] = NewDouble(acc.sumF)
				default:
					vals[k] = NewBigint(acc.sumI)
				}
			case aggAvg:
				if acc.count == 0 {
					vals[k] = Null
				} else {
					vals[k] = NewDouble(acc.sumF / float64(acc.count))
				}
			}
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
