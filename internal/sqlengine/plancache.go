package sqlengine

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
)

// Prepared pairs a parsed statement with the physical plans compiled for
// it: for a SELECT one per block — the statement itself and every
// derived table, view body, UNION arm and subquery under it — and for an
// UPDATE or DELETE a target plan (nil when the statement is outside the
// plannable class — the interpreter runs it). Prepared values are
// immutable and safe to share across sessions; the plans carry the
// schema epoch they were built against and are only dispatched while
// that epoch is current.
type Prepared struct {
	SQL     string
	stmt    Statement
	nparams int
	blocks  *blockPlans // a SELECT's plans, its own included; nil otherwise
	dml     *dmlPlan    // UPDATE/DELETE target plan; nil means the statement walks
	reason  string      // why the statement's own plan (or dml) is nil, for diagnostics
}

// topPlan returns the statement's own compiled plan, if it is a SELECT
// that has one.
func (p *Prepared) topPlan() *selectPlan {
	if sel, ok := p.stmt.(*SelectStmt); ok && p.blocks != nil {
		return p.blocks.m[sel].plan
	}
	return nil
}

// blockPlan is what planning made of one SELECT block: a row/vector plan,
// else a vectorised aggregate plan, else neither and the reason — which
// is how a block whose names do not resolve locally (a correlated
// subquery) is recorded as not plannable once, instead of being looked
// at again for every outer row. src is the block's table source when
// its FROM is one base table with no joins; the plans are built from it,
// and the interpreter reads the table through its access path.
type blockPlan struct {
	plan   *selectPlan
	agg    *aggPlan
	reason string
	src    *tableSource
	// firstArm is set for a UNION statement: its first arm as a block of
	// its own (see unionFirstArm), planned under that key.
	firstArm *SelectStmt
	children []childBlock
}

// childBlock is a block nested directly in another, with the label
// EXPLAIN prints it under.
type childBlock struct {
	label string
	sel   *SelectStmt
}

// blockPlans holds the plans of every block of one prepared SELECT,
// keyed by the block's AST node (a view body's is the catalog's own),
// all built under one read latch at one schema epoch.
type blockPlans struct {
	epoch uint64
	m     map[*SelectStmt]*blockPlan
}

// block returns the plan record to run st by, or nil when there is
// none to use: statement not prepared, planner switched off, schema
// moved since planning.
func (bps *blockPlans) block(st *SelectStmt, d *Database) *blockPlan {
	if bps == nil || d.plannerOff || bps.epoch != d.epoch {
		return nil
	}
	return bps.m[st]
}

// firstArm returns the planned first arm of a UNION statement, nil when
// block would return nil.
func (bps *blockPlans) firstArm(st *SelectStmt, d *Database) *SelectStmt {
	if bp := bps.block(st, d); bp != nil {
		return bp.firstArm
	}
	return nil
}

// planBlocks plans a SELECT statement and every block under it. The
// caller must hold d.mu for reading.
func (d *Database) planBlocks(st *SelectStmt) *blockPlans {
	bps := &blockPlans{epoch: d.epoch, m: make(map[*SelectStmt]*blockPlan)}
	d.planBlock(st, bps)
	return bps
}

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
	if len(st.Unions) > 0 {
		// The arms are the blocks; what the statement's FROM and expressions
		// nest belongs to the first arm.
		bp.reason, bp.firstArm = "UNION", unionFirstArm(st)
		child("union arm 1", bp.firstArm)
		for i, u := range st.Unions {
			child(fmt.Sprintf("union arm %d", i+2), u.Sel)
		}
		return
	}
	if len(st.Joins) == 0 {
		bp.src = d.planSource(st.From, st.Where, false)
	}
	bp.plan, bp.reason = d.planSelect(st, bp.src)
	if bp.plan == nil && bp.reason == "grouping/aggregates" && bp.src != nil {
		bp.agg = d.planAggregate(st, bp.src)
	}
	sub := func(s *SelectStmt) { child("subquery", s) }
	eachPart(st, func(tr *TableRef) {
		if tr.Subquery != nil {
			child("derived table "+tr.Alias, tr.Subquery)
		} else if v, ok := d.views[strings.ToLower(tr.Table)]; ok {
			child("view "+v.Name, v.Select)
		}
	}, func(e Expr) { forEachSubquery(e, sub) }, nil) // no arms: a UNION returned above
}

// Statement returns the parsed statement.
func (p *Prepared) Statement() Statement { return p.stmt }

// NumParams returns the number of positional parameters the statement
// requires.
func (p *Prepared) NumParams() int { return p.nparams }

// Planned reports whether a compiled physical plan is attached.
func (p *Prepared) Planned() bool { return p.topPlan() != nil || p.dml != nil }

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

// Prepare parses one statement and compiles a physical plan when it is
// plannable, consulting the engine's plan cache. A cached entry built
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
	case *SelectStmt:
		e.db.mu.RLock()
		epoch = e.db.epoch // re-read under the same latch the plan binds under
		prep.blocks = e.db.planBlocks(st)
		prep.reason = prep.blocks.m[st].reason
		e.db.mu.RUnlock()
	case *UpdateStmt, *DeleteStmt:
		e.db.mu.RLock()
		epoch = e.db.epoch
		prep.dml, prep.reason = e.db.planDML(st)
		e.db.mu.RUnlock()
	}
	if e.plans != nil {
		e.plans.put(key, prep, epoch)
	}
	return prep, nil
}
