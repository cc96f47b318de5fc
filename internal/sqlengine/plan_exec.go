package sqlengine

import (
	"fmt"
	"slices"
)

// filterChunkRows is the batch size for compiled-plan filter
// evaluation: the predicate runs over a chunk of rows into a selection
// vector, then survivors are appended in a second tight pass.
const filterChunkRows = 256

// evalAccessValue evaluates a point/bound expression with parameters
// only — access expressions are literals or parameters, never row
// references. ok=false (error or NULL) widens the access path.
func evalAccessValue(e Expr, params []Value) (Value, bool) {
	v, err := eval(e, &evalEnv{params: params})
	if err != nil || v.IsNull() {
		return Null, false
	}
	return v, true
}

// comparableWith reports whether Compare is defined between a bound
// value's type and the key column's type (Compare's own rule: any
// numeric mix, otherwise identical types). Incomparable bounds widen to
// a full scan so the row-level filter reproduces the interpreter's
// comparison error.
func comparableWith(v Value, colType Type) bool {
	if v.Type.isNumeric() && colType.isNumeric() {
		return true
	}
	return v.Type == colType
}

// inexact reports a probe value an exact path must not take to an
// index: see accessPath.exact.
func (p *accessPath) inexact(v Value) bool { return p.exact && v.Type == TypeDouble }

// indexIDs resolves a predicate-bound index access (point or range) to
// its candidate row IDs. ok=false is a runtime binding failure — a NULL
// key, an uncoercible or incomparable bound, or (for exact paths) a
// DOUBLE probe — and the caller widens to the whole table. IDs come
// back ascending, or for a range scan with keyOrder set in index key
// order (descending when desc). The result never aliases index storage.
func (p *accessPath) indexIDs(params []Value, keyOrder, desc bool) (ids []int64, ok bool) {
	colType := p.t.Columns[p.keyCol].Type
	switch p.access {
	case accessHashPoint:
		v, ok := evalAccessValue(p.eq, params)
		if !ok || p.inexact(v) {
			return nil, false
		}
		// Coerce to the column type so the hash group key matches the
		// stored representation, as the interpreter's probe does.
		cv, err := v.Coerce(colType)
		if err != nil {
			return nil, false
		}
		ids = append(ids, p.hashIx.lookup(cv)...)
		slices.Sort(ids)
	case accessOrderedPoint:
		v, ok := evalAccessValue(p.eq, params)
		if !ok || !comparableWith(v, colType) || p.inexact(v) {
			return nil, false
		}
		ids = append(ids, p.ordIx.lookup(v)...) // already id-ascending
	case accessOrderedRange:
		lo, hi, ok := p.rangeBounds(params)
		if !ok {
			return nil, false
		}
		ids = p.ordIx.appendRange(ids, lo, hi, keyOrder && desc)
		if !keyOrder {
			slices.Sort(ids)
		}
	default:
		return nil, false
	}
	return ids, true
}

// baseIDs resolves the base table's row IDs through the plan's access
// path. Any runtime binding failure (NULL key, uncoercible or
// incomparable bound) widens to a scan of the whole table: the caller
// re-applies the full WHERE predicate, so a superset access path is
// exactly as correct as the narrowed one. When the plan's ORDER BY is
// index-satisfied the widened scan still iterates the ordered index so
// row order is preserved; otherwise row IDs are ascending, matching the
// interpreter's scan order.
//
// filtered reports that the IDs are exactly the rows WHERE accepts, so
// the caller skips the predicate: the clause is nothing but the range
// bounds (boundsAreWhere), they bound, and none to a DOUBLE — which an
// integer key would be compared with through float64, unlike the index.
func (p *selectPlan) baseIDs(params []Value) (ids []int64, filtered bool) {
	narrowed := false
	if p.access == accessOrderedScan {
		ids, narrowed = p.ordIx.appendOrdered(ids, p.desc), true
	} else if p.access != accessFullScan {
		ids, narrowed = p.indexIDs(params, p.orderSatisfied, p.desc)
	}
	if !narrowed {
		if p.orderSatisfied && p.ordIx != nil {
			return p.ordIx.appendOrdered(ids, p.desc), false
		}
		return p.t.scan(), false
	}
	if !p.boundsAreWhere {
		return ids, false
	}
	for _, b := range []*planBound{p.lo, p.hi} {
		if b != nil {
			if v, _ := evalAccessValue(b.expr, params); v.Type == TypeDouble {
				return ids, false
			}
		}
	}
	return ids, true
}

// baseRows is baseIDs resolved to the stored row images.
func (p *selectPlan) baseRows(params []Value) (rows [][]Value, filtered bool) {
	ids, filtered := p.baseIDs(params)
	rows = make([][]Value, 0, len(ids))
	for _, id := range ids {
		if r, ok := p.t.rows[id]; ok {
			rows = append(rows, r)
		}
	}
	return rows, filtered
}

// rangeBounds evaluates the plan's pushed-down bounds. ok=false means a
// bound evaluated to NULL or to a value Compare cannot order against
// the key column — the access widens and the filter settles it.
func (p *accessPath) rangeBounds(params []Value) (lo, hi *ordBound, ok bool) {
	colType := p.t.Columns[p.keyCol].Type
	bound := func(b *planBound) (*ordBound, bool) {
		v, ok := evalAccessValue(b.expr, params)
		if !ok || !comparableWith(v, colType) || p.inexact(v) {
			return nil, false
		}
		return &ordBound{val: v, incl: b.incl}, true
	}
	if p.lo != nil {
		if lo, ok = bound(p.lo); !ok {
			return nil, nil, false
		}
	}
	if p.hi != nil {
		if hi, ok = bound(p.hi); !ok {
			return nil, nil, false
		}
	}
	return lo, hi, true
}

// execPlan runs a compiled plan: access path, joins, batched filter,
// slab projection, index-aware ordering, then OFFSET/LIMIT — with the
// interpreter's exact operation order and error surface. env is the
// block's fresh environment (see runSelect) and becomes its row
// environment; its outer scope and plans are what the plan's subquery
// expressions evaluate through. The caller holds d.mu for reading and
// has verified p.epoch == d.epoch.
func (d *Database) execPlan(p *selectPlan, env *evalEnv) (*ResultSet, error) {
	env.cols = p.cols
	params := env.params
	// Columnar fast path: when the plan compiled a vector annotation and
	// vector execution is enabled, run the chunked kernels. An abandoned
	// run (handled=false) drops through to the row operators below.
	if p.vec != nil && d.vectorEnabled() {
		set, handled, err := d.execPlanVector(p, env)
		if err != nil {
			return nil, err
		}
		if handled {
			return set, nil
		}
		d.vecFallbacks.Add(1)
	}
	rows, whereDone := p.baseRows(params)

	// Joins: the strategy was decided at plan time; hashJoinOff is still
	// consulted per execution so the equivalence toggle works on cached
	// plans too, and the hash path keeps its runtime bail to the nested
	// loop.
	leftWidth := len(p.t.Columns)
	for i := range p.joins {
		j := &p.joins[i]
		right := make([][]Value, 0, len(j.t.order))
		for _, id := range j.t.scan() {
			right = append(right, j.t.rows[id])
		}
		joinEnv := env.nested(env.outer)
		joinEnv.cols = j.cols
		var joined [][]Value
		hashed := false
		if !d.hashJoinOff && j.hasEqui {
			out, ok, err := hashJoinRows(rows, right, joinEnv, leftWidth, j.rcols, j.clause, j.equi)
			if err != nil {
				return nil, err
			}
			if ok {
				joined, hashed = out, true
			}
		}
		if !hashed {
			var err error
			joined, err = nestedLoopJoin(rows, right, joinEnv, leftWidth, j.rcols, j.clause)
			if err != nil {
				return nil, err
			}
		}
		rows = joined
		leftWidth = len(j.cols)
	}

	// Batched filter: evaluate the compiled predicate over a chunk into
	// a selection vector, then gather survivors.
	if p.where != nil && !whereDone {
		filtered := rows[:0:0]
		var sel [filterChunkRows]bool
		for start := 0; start < len(rows); start += filterChunkRows {
			end := start + filterChunkRows
			if end > len(rows) {
				end = len(rows)
			}
			chunk := rows[start:end]
			for i, r := range chunk {
				if err := env.checkCtx(); err != nil {
					return nil, err
				}
				env.row = r
				v, err := eval(p.where, env)
				if err != nil {
					return nil, err
				}
				ok, err := truthy(v)
				if err != nil {
					return nil, err
				}
				sel[i] = ok
			}
			for i, r := range chunk {
				if sel[i] {
					filtered = append(filtered, r)
				}
			}
		}
		rows = filtered
	}

	// Projection: ordinal-bound expressions over slab rows; no per-row
	// alias maps — ORDER BY keys were classified at plan time.
	out := &ResultSet{Columns: p.projCols}
	if len(rows) > 0 { // an empty result keeps nil Rows
		out.Rows = make([][]Value, 0, len(rows))
	}
	needKeys := len(p.order) > 0 && !p.orderSatisfied
	var orderKeys [][]Value
	slab := newRowSlab(len(p.projExprs), len(rows))
	for _, r := range rows {
		if err := env.checkCtx(); err != nil {
			return nil, err
		}
		env.row = r
		vals := slab.next()
		for i, e := range p.projExprs {
			v, err := eval(e, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out.Rows = append(out.Rows, vals)
		if needKeys {
			keys := make([]Value, len(p.order))
			for i, k := range p.order {
				if k.kind == orderKeyProjected {
					keys[i] = vals[k.idx]
					continue
				}
				v, err := eval(k.expr, env)
				if err != nil {
					return nil, err
				}
				keys[i] = v
			}
			orderKeys = append(orderKeys, keys)
		}
	}

	if needKeys {
		if err := sortRows(out, orderKeys, p.sel.OrderBy); err != nil {
			return nil, err
		}
	}

	if err := applyOffsetLimit(out, p.sel, env); err != nil {
		return nil, err
	}
	return out, nil
}

// applyOffsetLimit trims a materialised result per OFFSET/LIMIT,
// evaluated after projection and ordering exactly as the interpreter
// does — no early termination, so evaluation errors surface for the
// same inputs. Shared by the row and vector executors.
func applyOffsetLimit(out *ResultSet, sel *SelectStmt, env *evalEnv) error {
	if sel.Offset != nil {
		n, err := evalCount(sel.Offset, env)
		if err != nil {
			return fmt.Errorf("OFFSET: %w", err)
		}
		if n >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[n:]
		}
	}
	if sel.Limit != nil {
		n, err := evalCount(sel.Limit, env)
		if err != nil {
			return fmt.Errorf("LIMIT: %w", err)
		}
		if n < len(out.Rows) {
			out.Rows = out.Rows[:n]
		}
	}
	return nil
}
