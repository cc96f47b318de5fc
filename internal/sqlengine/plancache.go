package sqlengine

import (
	"container/list"
	"strings"
	"sync"
)

// Prepared pairs a parsed statement with the physical plan compiled for
// it: a select or aggregate plan for a SELECT, a target plan for an
// UPDATE or DELETE (all nil when the statement is outside the plannable
// class — the interpreter runs it). Prepared values are immutable and
// safe to share across sessions; the plan carries the schema epoch it
// was built against and is only dispatched while that epoch is current.
type Prepared struct {
	SQL     string
	stmt    Statement
	nparams int
	plan    *selectPlan
	agg     *aggPlan // vectorised aggregate plan; set only when plan is nil
	dml     *dmlPlan // UPDATE/DELETE target plan; nil means the statement walks
	reason  string   // why plan (or dml) is nil, for diagnostics
}

// Statement returns the parsed statement.
func (p *Prepared) Statement() Statement { return p.stmt }

// NumParams returns the number of positional parameters the statement
// requires.
func (p *Prepared) NumParams() int { return p.nparams }

// Planned reports whether a compiled physical plan is attached.
func (p *Prepared) Planned() bool { return p.plan != nil || p.dml != nil }

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
		prep.plan, prep.reason = e.db.planSelect(st)
		if prep.plan == nil && prep.reason == "grouping/aggregates" {
			prep.agg, _ = e.db.planAggregate(st)
		}
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
