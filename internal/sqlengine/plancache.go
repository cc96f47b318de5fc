package sqlengine

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Prepared pairs a parsed statement with the physical plans compiled for
// it: one per SELECT block in it — a SELECT's own and every derived
// table, view body, UNION arm and subquery under it, an INSERT's query,
// the subqueries of an UPDATE or DELETE — and an UPDATE's or DELETE's
// table source. Prepared values are immutable and safe to share across
// sessions; the plans carry the schema epoch they were built against and
// are only dispatched while that epoch is current.
type Prepared struct {
	SQL     string
	stmt    Statement
	nparams int
	blocks  *blockPlans // the statement's plans; nil for other statements and a literal INSERT
}

// topPlan returns the statement's own plan, if it is a SELECT.
func (p *Prepared) topPlan() *selectPlan {
	if sel, ok := p.stmt.(*SelectStmt); ok && p.blocks != nil {
		return p.blocks.m[sel].plan
	}
	return nil
}

// blockPlan is what planning made of one SELECT block: its plan, and
// the blocks nested in it. A block whose names do not resolve locally (a
// correlated subquery) is planned like any other, once, and runs on that
// plan for every outer row.
type blockPlan struct {
	plan     *selectPlan
	children []childBlock
}

// childBlock is a block nested directly in another, with the label
// EXPLAIN prints it under.
type childBlock struct {
	label string
	sel   *SelectStmt
}

// blockPlans holds the plans of every SELECT block of one statement,
// keyed by the block's AST node (a view body's is the catalog's own, a
// UNION's first arm the stripped copy its head's plan holds), and an
// UPDATE's or DELETE's table source, all built under one read latch at one
// schema epoch.
type blockPlans struct {
	epoch uint64
	m     map[*SelectStmt]*blockPlan
	src   *tableSource // an UPDATE's or DELETE's; nil when its table does not exist
}

// block returns the plan record to run st by, or nil when there is none
// to use: no plans, or the schema moved since planning.
func (bps *blockPlans) block(st *SelectStmt, d *Database) *blockPlan {
	if bps == nil || bps.epoch != d.epoch {
		return nil
	}
	return bps.m[st]
}

// planStatement plans every SELECT block of a statement (see eachBlock)
// and an UPDATE's or DELETE's table source. The caller must hold d.mu for
// reading.
func (d *Database) planStatement(st Statement) *blockPlans {
	bps := &blockPlans{epoch: d.epoch, m: make(map[*SelectStmt]*blockPlan)}
	d.eachBlock(st, func(sel *SelectStmt) { d.planBlock(sel, bps) })
	switch n := st.(type) {
	case *UpdateStmt:
		bps.src = d.planSource(&TableRef{Table: n.Table}, n.Where)
	case *DeleteStmt:
		bps.src = d.planSource(&TableRef{Table: n.Table}, n.Where)
	}
	return bps
}

// eachBlock calls f for every SELECT block at the top of a statement: a
// SELECT itself, an INSERT's query, the subqueries of its VALUES and of
// its target table's column defaults, the subqueries of an UPDATE's SET
// list and WHERE and of a DELETE's WHERE. The caller must hold d.mu for
// reading.
func (d *Database) eachBlock(st Statement, f func(*SelectStmt)) {
	sub := func(e Expr) { forEachSubquery(e, f) }
	switch n := st.(type) {
	case *SelectStmt:
		f(n)
	case *InsertStmt:
		if n.Query != nil {
			f(n.Query)
		}
		for _, row := range n.Rows {
			for _, e := range row {
				sub(e)
			}
		}
		if t, err := d.table(n.Table); err == nil {
			for _, c := range t.Columns {
				sub(c.Default)
			}
		}
	case *UpdateStmt:
		for _, s := range n.Set {
			sub(s.Value)
		}
		sub(n.Where)
	case *DeleteStmt:
		sub(n.Where)
	}
}

// literalInsert reports whether an INSERT nests no SELECT block of its
// own: no query, and no subquery in its VALUES.
func literalInsert(ins *InsertStmt) bool {
	return ins.Query == nil && !slices.ContainsFunc(ins.Rows, func(row []Expr) bool {
		return slices.ContainsFunc(row, exprHasSubquery)
	})
}

// defaultsNestBlock reports whether a column default of the named table
// nests a SELECT block. The caller must hold d.mu.
func (d *Database) defaultsNestBlock(table string) bool {
	t, err := d.table(table)
	return err == nil && slices.ContainsFunc(t.Columns, func(c Column) bool { return exprHasSubquery(c.Default) })
}

// planBlock plans the blocks nested in st, then st from them: a derived
// table's or a view's plan gives the columns st binds.
func (d *Database) planBlock(st *SelectStmt, bps *blockPlans) {
	if _, seen := bps.m[st]; seen {
		return // a view read twice, or reading itself
	}
	bp := &blockPlan{}
	bps.m[st] = bp
	child := func(label string, sub *SelectStmt) {
		bp.children = append(bp.children, childBlock{label: label, sel: sub})
		d.planBlock(sub, bps)
	}
	sub := func(s *SelectStmt) { child("subquery", s) }
	if len(st.Unions) > 0 {
		// The arms are the blocks; what the statement's FROM and expressions
		// nest belongs to the first arm.
		first := unionFirstArm(st)
		child("union arm 1", first)
		for i, u := range st.Unions {
			child(fmt.Sprintf("union arm %d", i+2), u.Sel)
		}
		// Its LIMIT and OFFSET are the union's own (its ORDER BY names
		// output columns). Its columns are its first arm's.
		forEachSubquery(st.Limit, sub)
		forEachSubquery(st.Offset, sub)
		bp.plan = &selectPlan{sel: st, epoch: d.epoch, firstArm: first, projCols: bps.m[first].plan.projCols}
		bp.plan.explain = bp.plan.explainLines()
		return
	}
	eachPart(st, func(tr *TableRef) {
		if tr.Subquery != nil {
			child("derived table "+tr.Alias, tr.Subquery)
		} else if v, ok := d.views[strings.ToLower(tr.Table)]; ok {
			child("view "+v.Name, v.Select)
		}
	}, func(e Expr) { forEachSubquery(e, sub) }, nil) // no arms: a UNION returned above
	bp.plan = d.planSelect(st, bps)
}

// Statement returns the parsed statement.
func (p *Prepared) Statement() Statement { return p.stmt }

// NumParams returns the number of positional parameters the statement
// requires.
func (p *Prepared) NumParams() int { return p.nparams }

// checkParams faults an execution given more or fewer parameters than the
// statement has placeholders (42000 where a result carries it). EXPLAIN
// runs nothing, so it takes any.
func (p *Prepared) checkParams(params []Value) error {
	if _, isExplain := p.stmt.(*ExplainStmt); !isExplain && p.nparams != len(params) {
		return fmt.Errorf("statement requires %d parameters, got %d", p.nparams, len(params))
	}
	return nil
}

// PlanCacheStats is a point-in-time snapshot of prepared-plan cache
// counters.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// planCache is a bounded LRU of Prepared statements keyed by normalised
// (whitespace-trimmed) query text. Entries record the schema epoch at
// build time; a lookup under a different epoch is a miss and the stale
// entry is replaced, so DDL invalidates every cached plan at once
// without a sweep.
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used

	hits      uint64
	misses    uint64
	evictions uint64
}

type planCacheEntry struct {
	key   string
	prep  *Prepared
	epoch uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// lookup returns the cached Prepared for key when it was built at the
// given epoch. A stale entry (epoch moved) is returned separately so
// the caller can re-plan without re-parsing; either way a non-hit
// counts as a miss.
func (c *planCache) lookup(key string, epoch uint64) (hit, stale *Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, nil
	}
	e := el.Value.(*planCacheEntry)
	if e.epoch != epoch {
		c.misses++
		return nil, e.prep
	}
	c.hits++
	c.lru.MoveToFront(el)
	return e.prep, nil
}

// put stores (or replaces) the Prepared for key, evicting the least
// recently used entry when at capacity.
func (c *planCache) put(key string, prep *Prepared, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*planCacheEntry)
		e.prep, e.epoch = prep, epoch
		c.lru.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		delete(c.entries, back.Value.(*planCacheEntry).key)
		c.lru.Remove(back)
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&planCacheEntry{key: key, prep: prep, epoch: epoch})
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.entries),
		Capacity:  c.capacity,
	}
}

// defaultPlanCacheSize bounds the per-engine prepared-plan cache.
const defaultPlanCacheSize = 256

// WithPlanCacheSize sets the prepared-plan cache capacity; 0 disables
// caching (every Prepare parses and plans from scratch).
func WithPlanCacheSize(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		if n == 0 {
			e.plans = nil
			return
		}
		e.plans = newPlanCache(n)
	}
}

// PlanCacheStats returns the engine's prepared-plan cache counters; the
// zero value when caching is disabled.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	if e.plans == nil {
		return PlanCacheStats{}
	}
	return e.plans.stats()
}

// Prepare parses one statement and compiles the plans of its SELECT
// blocks and, for an UPDATE or DELETE, its table source, consulting the
// engine's plan cache. A cached entry built
// under an older schema epoch is re-planned (the parse is reused) and
// replaced. EXPLAIN statements are never cached — they are diagnostic
// and each execution should observe the current catalog.
func (e *Engine) Prepare(sql string) (*Prepared, error) {
	key := strings.TrimSpace(sql)
	epoch := e.db.SchemaEpoch()

	var stmt Statement
	var nparams int
	if e.plans != nil {
		hit, stale := e.plans.lookup(key, epoch)
		if hit != nil {
			return hit, nil
		}
		if stale != nil {
			// Schema moved under the cached entry: reuse the parse, redo
			// the plan.
			stmt, nparams = stale.stmt, stale.nparams
		}
	}
	if stmt == nil {
		var err error
		stmt, nparams, err = Parse(sql)
		if err != nil {
			return nil, err
		}
	}
	prep := &Prepared{SQL: sql, stmt: stmt, nparams: nparams}
	if _, isExplain := stmt.(*ExplainStmt); isExplain {
		return prep, nil
	}
	switch st := stmt.(type) {
	case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
		if ins, ok := st.(*InsertStmt); ok && literalInsert(ins) {
			break // nothing to plan but what its table's defaults nest: see Session.blocks
		}
		e.db.mu.RLock()
		epoch = e.db.epoch // re-read under the same latch the plans bind under
		prep.blocks = e.db.planStatement(st)
		e.db.mu.RUnlock()
	}
	if e.plans != nil {
		e.plans.put(key, prep, epoch)
	}
	return prep, nil
}
