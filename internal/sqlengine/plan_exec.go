package sqlengine

import (
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sort"
)

// comparableWith reports whether Compare is defined between a bound
// value's type and the key column's type (Compare's own rule: any
// numeric mix, otherwise identical types). Incomparable bounds widen to
// a full scan so the row-level filter raises the comparison error a walk
// of the table would.
func comparableWith(v Value, colType Type) bool {
	if v.Type.isNumeric() && colType.isNumeric() {
		return true
	}
	return v.Type == colType
}

// probeValue evaluates a point key or a range bound for one execution.
// ok=false — it fails to evaluate, is NULL, or is a value Compare cannot
// order against the key column — widens the access, and the filter
// settles it. Any other value probes the index in the order its keys are
// kept in, Compare's, so the probe selects exactly the rows the
// comparison accepts.
func (p *accessPath) probeValue(e Expr, params []Value) (Value, bool) {
	v, ok := evalConst(e, params)
	if !ok || v.IsNull() || !comparableWith(v, p.t.Columns[p.keyCol].Type) {
		return Null, false
	}
	return v, true
}

// candidates lists one execution's candidate row IDs under the candidate
// rule (bindKeys), for a SELECT's row loop (bindScan) and for an UPDATE
// or DELETE (whereIDs) alike. When the kernels may run (kernels: a full
// scan whose keys wk holds bound, the vector switch on) and a key binds,
// they list the candidates through the chunks, ascending, the zone maps
// skipping chunks as ever: split is nil, and decided reports that the
// keys are the whole WHERE. Else the access path lists them, counted as a
// fallback if the kernels might have, and split is the keys to test on
// each before the WHERE (decide). An index probe or range lists its rows
// ascending, or in key order when ordered (a plan's ORDER BY the index
// satisfies), never aliasing the index; decided then reports bounds that
// are the WHERE (boundsAreWhere). A probe key or bound that does not bind
// (probeValue) widens to every row — in the index's order when ordered —,
// as correct a listing as the narrowed one. The caller holds d.mu.
func (d *Database) candidates(env *evalEnv, s *tableSource, ap *accessPath, kernels bool, wk whereKeys, ordered bool) (ids []int64, split []Expr, decided bool, err error) {
	if kernels {
		if wk.vec != nil && d.ensureChunks(ap.t) {
			err = d.eachChunk(env.ctx, wk.vec, ap.t.pages, nil, func(ch *colChunk, rows []uint16) (bool, error) {
				for _, r := range rows {
					ids = append(ids, ch.ids[r])
				}
				return true, nil
			})
			return ids, nil, !wk.perRow, err
		}
		d.vecFallbacks.Add(1)
	}
	narrowed := false
	switch ap.access {
	case accessOrderedScan:
		ids, narrowed = ap.ix.appendOrdered(nil, ap.desc), true
	case accessOrderedPoint:
		if v, ok := ap.probeValue(ap.eq, env.params); ok {
			ids, narrowed = append(ids, ap.ix.lookup(v)...), true // already ID-ascending
		}
	case accessOrderedRange:
		if lo, hi, ok := ap.rangeBounds(env.params); ok {
			if ids, narrowed = ap.ix.appendRange(nil, lo, hi, ordered && ap.desc), true; !ordered {
				slices.Sort(ids)
			}
		}
	}
	switch {
	case narrowed:
		decided = ap.boundsAreWhere
	case ordered && ap.ix != nil:
		ids = ap.ix.appendOrdered(nil, ap.desc)
	default:
		ids = ap.t.liveIDs()
	}
	// One key and no residual: the key is the WHERE, and splits nothing off.
	if !decided && !kernels && (s.residual || len(s.keys) > 1) {
		wk = s.bindKeys(env.params)
	}
	return ids, wk.keys, decided, nil
}

// rangeBounds evaluates the plan's pushed-down bounds; ok=false when
// one does not bind (see probeValue).
func (p *accessPath) rangeBounds(params []Value) (lo, hi *ordBound, ok bool) {
	bound := func(b *planBound) (*ordBound, bool) {
		v, ok := p.probeValue(b.expr, params)
		if !ok {
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

// rowScan is what a plan does with each segment of its input rows: the
// filter, unless the kernels or the access path already applied it, then
// the projection and, when the plan sorts, the ORDER BY keys — or, for a
// grouped block's input, the row feeder (group). A grouped block's group
// rows take a rowScan of their own, whose filter is HAVING. A bounded
// top-K (top) takes the kernels' rows instead (topRows.scan).
type rowScan struct {
	env   *evalEnv
	where Expr   // nil: every input row survives
	split []Expr // the keys tested before the WHERE on each row (candidates)
	exprs []Expr
	// gather and identity are the plan's (see selectPlan): projections
	// that copy cells by ordinal, or pass the input row — the table's
	// stored image — through uncopied.
	gather   []int
	identity bool
	slab     *rowSlab
	order    []planOrderKey // nil when the plan does not sort
	aliases  []string       // the plan's outNames when a key may read an alias, else nil
	keys     [][]Value      // order's values, one row of keys per output row
	top      *topRows
	group    *aggGroups
}

// rowScan returns the per-segment work of one execution: a grouped
// block's work on its group rows. A materialised result owns its rows, so
// only a stream hands out the stored images an identity projection
// selects.
func (p *selectPlan) rowScan(env *evalEnv, streaming bool) *rowScan {
	sc := &rowScan{env: env, where: p.where, exprs: p.projExprs, gather: p.gather, identity: streaming && p.identity}
	if p.group != nil {
		sc.where = p.group.having
	}
	if len(p.order) > 0 && !p.orderSatisfied {
		sc.order = p.order
		if p.aliasOrder {
			sc.aliases = p.outNames
		}
	}
	return sc
}

// segment runs input rows into the sink — a filter pass over all of
// them, then a projection pass — and closes the segment. A row therefore
// fails its projection only once every row of the segment has passed the
// filter: the statement's order when the segment is the whole input, and
// the same order under the kernels, which cannot fail. rows is filtered
// in place.
func (sc *rowScan) segment(k *streamSink, rows [][]Value) error {
	env := sc.env
	if sc.where != nil {
		kept := rows[:0]
		for _, r := range rows {
			if err := env.checkCtx(); err != nil {
				return err
			}
			ok, err := decide(env, sc.split, sc.where, r)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if sc.group != nil {
		if err := sc.group.feed(rows); err != nil {
			return err
		}
		return k.endSegment()
	}
	k.upper = len(rows)
	for _, r := range rows {
		if k.full() {
			break
		}
		if err := env.checkCtx(); err != nil {
			return err
		}
		env.row = r
		out := r
		if !sc.identity {
			if sc.slab == nil {
				sc.slab = newRowSlab(len(sc.exprs), len(rows))
			}
			out = sc.slab.next()
			if sc.gather != nil {
				for i, c := range sc.gather {
					out[i] = r[c]
				}
			} else {
				for i, e := range sc.exprs {
					v, err := eval(e, env)
					if err != nil {
						return err
					}
					out[i] = v
				}
			}
		}
		if sc.order != nil {
			if err := sc.orderKeys(out); err != nil {
				return err
			}
		}
		if err := k.emit(out); err != nil {
			return err
		}
	}
	return k.endSegment()
}

// orderKeys computes the ORDER BY keys of one projected row, env.row
// being its input row — with the row's aliases in scope (later
// duplicates win) when a key may read one.
func (sc *rowScan) orderKeys(out []Value) error {
	env := sc.env
	if sc.aliases != nil {
		env.aliases = make(map[string]Value, len(out))
		for c, name := range sc.aliases {
			env.aliases[name] = out[c]
		}
		defer func() { env.aliases = nil }()
	}
	keys := make([]Value, len(sc.order))
	for i, o := range sc.order {
		if o.kind == orderKeyProjected {
			keys[i] = out[o.idx]
			continue
		}
		v, err := eval(o.expr, env)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	sc.keys = append(sc.keys, keys)
	return nil
}

// bindScan binds a join-free plan's scan for one execution and returns
// its body, which feeds k. When the plan's keys are its whole WHERE (or
// it has none) and the table's chunks build, the rows come from the
// chunk kernels: the chunk feeder folds them, its row feeder starting
// over if it abandons, and a materialised scan that sorts takes a
// bounded top-K where the plan admits one, which reads only the pages
// that can enter its heap. Else the rows are the WHERE's candidates
// (candidates), filtered and projected as one segment when k
// materialises, so every row is filtered before any is projected or fed,
// and streamBatchRows at a time when it streams. The caller holds d.mu
// for reading until the body has run.
func (d *Database) bindScan(p *selectPlan, sc *rowScan, k *streamSink) func() error {
	env := sc.env
	kernels := p.vector && d.vectorEnabled()
	var wk whereKeys
	if kernels {
		wk = p.src.bindKeys(env.params)
	}
	if bp := wk.vec; kernels && !wk.perRow && d.ensureChunks(p.t) {
		sc.where = nil // the kernels are the filter
		if sc.order != nil {
			if sc.top = p.topRows(env); sc.top != nil {
				return func() error { return sc.top.scan(d, env.ctx, bp, p.t.pages) }
			}
		}
		return func() error {
			if g := p.group; g != nil && g.chunked {
				if done, err := sc.group.foldChunks(d, p.t, bp); done || err != nil {
					return err
				}
				d.vecFallbacks.Add(1)
				sc.group = newAggGroups(g, env)
			}
			seg := make([][]Value, 0, chunkRows)
			return d.eachChunk(env.ctx, bp, p.t.pages, nil, func(ch *colChunk, rows []uint16) (bool, error) {
				err := sc.segment(k, ch.appendRowsAt(seg[:0], rows))
				return !k.full(), err
			})
		}
	}
	return func() error {
		ids, split, decided, err := d.candidates(env, p.src, &p.accessPath, kernels, wk, p.orderSatisfied)
		if err != nil {
			return err
		}
		if decided {
			sc.where = nil
		}
		sc.split = split
		size := len(ids)
		if k.rs != nil {
			size = streamBatchRows
		}
		seg := make([][]Value, 0, min(len(ids), size))
		for len(ids) > 0 && !k.full() {
			n := min(len(ids), size)
			if err := sc.segment(k, p.t.rowsOf(seg[:0], ids[:n])); err != nil {
				return err
			}
			ids = ids[n:]
		}
		return nil
	}
}

// execPlan runs a block's plan: its sources and joins (or, for a scan of
// one table, bindScan) into a sink with no channel and no LIMIT, or into
// the groups whose rows then run through the same stages (emit) — then
// DISTINCT, the sort unless the access path or a bounded top-K ordered
// the rows, and OFFSET/LIMIT, in the statement's operation order and with
// its error surface. A UNION
// runs its arms through execUnion. env is the block's fresh environment
// (see runSelect) and becomes its row environment; its outer scope and
// plans are what the plan's subquery expressions and unbound names
// evaluate through. The caller holds d.mu for reading and has verified
// p.epoch == d.epoch.
func (d *Database) execPlan(p *selectPlan, env *evalEnv) (*ResultSet, error) {
	if p.firstArm != nil {
		return d.execUnion(p.sel, p.firstArm, env)
	}
	env.cols = p.cols
	k := &streamSink{ctx: env.ctx, limit: -1}
	sc := p.rowScan(env, false)
	in := sc
	if p.group != nil {
		in = &rowScan{env: env, where: p.where, group: newAggGroups(p.group, env)}
	}
	var err error
	if p.scansTable() && p.whereErr == nil {
		err = d.bindScan(p, in, k)()
	} else {
		var rows [][]Value
		if rows, err = d.joinedRows(p, env); err == nil {
			if err = p.whereErr; err == nil {
				err = in.segment(k, rows)
			}
		}
	}
	if err == nil && in.group != nil {
		err = in.group.emit(sc, k)
	}
	switch {
	case err != nil:
		return nil, err
	case p.projErr != nil:
		return nil, p.projErr
	}
	out, keys := &ResultSet{Columns: p.projCols, Rows: k.batch}, sc.keys
	if sc.top != nil {
		out.Rows = sc.top.rows(p.gather)
		return out, nil
	}
	if p.sel.Distinct {
		out.Rows, keys = distinctRows(out.Rows, keys)
	}
	if len(p.sel.OrderBy) > 0 && !p.orderSatisfied {
		if err := sortRows(out, keys, p.sel.OrderBy); err != nil {
			return nil, err
		}
	}
	if err := applyOffsetLimit(out, p.sel, env); err != nil {
		return nil, err
	}
	return out, nil
}

// joinedRows reads a plan's FROM — one empty row without one — and runs
// its joins over it, each right source read in its turn and joined
// through execJoin with the key found at plan time.
func (d *Database) joinedRows(p *selectPlan, env *evalEnv) ([][]Value, error) {
	if p.from == nil {
		return [][]Value{nil}, nil
	}
	rows, err := d.sourceRows(p.from, env)
	if err != nil {
		return nil, err
	}
	leftWidth := len(p.from.cols)
	for i := range p.joins {
		j := &p.joins[i]
		right, err := d.sourceRows(j.src, env)
		if err != nil {
			return nil, err
		}
		joinEnv := env.nested(env.outer)
		joinEnv.cols = j.cols
		if rows, err = execJoin(rows, right, joinEnv, leftWidth, j.src.cols, j.clause, j.equi); err != nil {
			return nil, err
		}
		leftWidth = len(j.cols)
	}
	return rows, nil
}

// sourceRows reads one table reference for one execution: every live row
// of a base table, or the rows of a nested block, run with the block's
// outer scope as its own (a derived table sees what the block sees).
func (d *Database) sourceRows(s *blockSource, env *evalEnv) ([][]Value, error) {
	switch {
	case s.err != nil:
		return nil, s.err
	case s.sub != nil:
		set, err := d.runSelect(s.sub, env.nested(env.outer))
		if err != nil {
			return nil, err
		}
		return set.Rows, nil
	}
	return s.t.liveRows(), nil
}

// offsetLimit evaluates a block's OFFSET and LIMIT, row-independent
// expressions; limit is -1 without a LIMIT.
func offsetLimit(sel *SelectStmt, env *evalEnv) (offset, limit int, err error) {
	limit = -1
	if sel.Offset != nil {
		if offset, err = evalCount(sel.Offset, env); err != nil {
			return 0, 0, fmt.Errorf("OFFSET: %w", err)
		}
	}
	if sel.Limit != nil {
		if limit, err = evalCount(sel.Limit, env); err != nil {
			return 0, 0, fmt.Errorf("LIMIT: %w", err)
		}
	}
	return offset, limit, nil
}

// applyOffsetLimit trims a materialised result per OFFSET/LIMIT,
// evaluated after projection and ordering — no early termination, so
// evaluation errors surface for the same inputs as without a LIMIT. Every
// block that materialises ends with it.
func applyOffsetLimit(out *ResultSet, sel *SelectStmt, env *evalEnv) error {
	offset, limit, err := offsetLimit(sel, env)
	if err != nil {
		return err
	}
	if offset >= len(out.Rows) {
		out.Rows = nil
	} else {
		out.Rows = out.Rows[offset:]
	}
	if limit >= 0 && limit < len(out.Rows) {
		out.Rows = out.Rows[:limit]
	}
	return nil
}

// topRows is the bounded ORDER BY ... LIMIT: instead of projecting,
// keying and stable-sorting every selected row, it keeps in a heap the
// OFFSET+LIMIT row images that sort first, keyed by their own cells, and
// projects only the winners. A row is (image, row ID), keys compare in
// Compare's order (a NaN after +Inf), and ties go to the lower ID — the
// earlier row in scan order — so the outcome is sortRows' (a stable sort)
// exactly, in whatever order scan visits the pages.
type topRows struct {
	cols          []int  // key columns, one per ORDER BY item
	desc          []bool // per key
	offset, limit int
	heap          []topRow // max-heap: heap[0] sorts last of the rows kept
}

type topRow struct {
	row []Value // a stored row image, never written
	id  int64
}

// topRows returns the bounded sorter when the plan admits one, else nil
// and execPlan sorts as ever: the block is not DISTINCT, the projection
// is a gather (so no row outside the winners could have failed to
// project), every key is a base column, and OFFSET and LIMIT evaluate —
// an error there must surface after the scan, where applyOffsetLimit
// raises it — to no more than chunkRows rows together.
func (p *selectPlan) topRows(env *evalEnv) *topRows {
	if p.sel.Distinct || p.gather == nil || p.orderCols == nil || p.sel.Limit == nil {
		return nil
	}
	offset, limit, err := offsetLimit(p.sel, env)
	if err != nil || offset > chunkRows || limit > chunkRows-offset {
		return nil
	}
	t := &topRows{cols: p.orderCols, offset: offset, limit: limit}
	for _, k := range p.order {
		t.desc = append(t.desc, k.desc)
	}
	return t
}

// scan fills the heap from pages through the kernels bp. It seeds the
// heap from the pages whose zone maps promise the best first key, best
// first, until it holds OFFSET+LIMIT rows, then reads the other pages in
// row-ID order, skipping each whose bound sorts strictly after the first
// key of the heap's last row: none of its rows could enter the heap.
func (t *topRows) scan(d *Database, ctx context.Context, bp boundVec, pages []*colChunk) error {
	offer := func(ch *colChunk, rows []uint16) (bool, error) {
		t.offer(ch, rows)
		return true, nil
	}
	seeds := &seedPages{t: t, bounds: make([]Value, len(pages))}
	for k, ch := range pages {
		if ch != nil {
			seeds.bounds[k] = t.bound(ch)
			seeds.at = append(seeds.at, k)
		}
	}
	heap.Init(seeds)
	rest := slices.Clone(pages)
	for len(t.heap) < t.offset+t.limit && seeds.Len() > 0 {
		k := heap.Pop(seeds).(int)
		if err := d.eachChunk(ctx, bp, rest[k:k+1], nil, offer); err != nil {
			return err
		}
		rest[k] = nil
	}
	// The heap is full now, or every page was a seed and rest is empty.
	return d.eachChunk(ctx, bp, rest, func(k int) bool {
		return len(t.heap) > 0 && t.firstBefore(&t.heap[0].row[t.cols[0]], &seeds.bounds[k])
	}, offer)
}

// seedPages is a top-K's pages as a heap on their bounds: the page whose
// bound sorts first on top.
type seedPages struct {
	t      *topRows
	at     []int   // page numbers
	bounds []Value // by page number
}

func (q *seedPages) Len() int { return len(q.at) }
func (q *seedPages) Less(i, j int) bool {
	return q.t.firstBefore(&q.bounds[q.at[i]], &q.bounds[q.at[j]])
}
func (q *seedPages) Swap(i, j int) { q.at[i], q.at[j] = q.at[j], q.at[i] }
func (q *seedPages) Push(any)      { panic("seedPages: push") }
func (q *seedPages) Pop() any {
	k := q.at[len(q.at)-1]
	q.at = q.at[:len(q.at)-1]
	return k
}

// bound is the first key that sorts first of any row of a page, from its
// zone map: under DESC the max, NULL when every key is; under ASC NULL
// when a key is (NULL sorts first), else the min.
func (t *topRows) bound(ch *colChunk) Value {
	v := &ch.vecs[t.cols[0]]
	switch {
	case t.desc[0]:
		return v.max
	case v.nonNull < ch.n:
		return Null
	}
	return v.min
}

// firstBefore reports that first key a sorts strictly before b.
func (t *topRows) firstBefore(a, b *Value) bool {
	cmp := compareInColumn(a, b)
	return cmp != 0 && (cmp < 0) != t.desc[0]
}

// before reports that a sorts strictly before b; equal keys leave it to
// the row IDs.
func (t *topRows) before(a, b *topRow) bool {
	for i, c := range t.cols {
		if cmp := compareInColumn(&a.row[c], &b.row[c]); cmp != 0 {
			return (cmp < 0) != t.desc[i]
		}
	}
	return a.id < b.id
}

// offer takes the rows at the given positions of a page.
func (t *topRows) offer(ch *colChunk, rows []uint16) {
	k := t.offset + t.limit
	for _, r := range rows {
		id := ch.ids[r]
		row := topRow{row: ch.rows[id%chunkRows], id: id}
		switch {
		case len(t.heap) < k:
			t.heap = append(t.heap, row)
			t.up(len(t.heap) - 1)
		case k > 0 && t.before(&row, &t.heap[0]):
			t.heap[0] = row
			t.down(0)
		}
	}
}

// after is the heap order: row i sorts after row j.
func (t *topRows) after(i, j int) bool { return t.before(&t.heap[j], &t.heap[i]) }

func (t *topRows) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.after(i, parent) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *topRows) down(i int) {
	for {
		last := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.heap); c++ {
			if t.after(c, last) {
				last = c
			}
		}
		if last == i {
			return
		}
		t.heap[i], t.heap[last] = t.heap[last], t.heap[i]
		i = last
	}
}

// rows sorts the kept rows, drops the OFFSET and gathers the rest.
func (t *topRows) rows(gather []int) [][]Value {
	sort.Slice(t.heap, func(i, j int) bool { return t.after(j, i) })
	kept := t.heap[min(t.offset, len(t.heap)):]
	var out [][]Value
	slab := newRowSlab(len(gather), len(kept))
	for _, r := range kept {
		vals := slab.next()
		for k, c := range gather {
			vals[k] = r.row[c]
		}
		out = append(out, vals)
	}
	return out
}
