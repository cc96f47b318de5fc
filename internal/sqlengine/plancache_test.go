package sqlengine

import (
	"strings"
	"testing"
)

// TestPlanCacheHitsAndMisses walks the counters through the ordinary
// lifecycle: cold miss, warm hits, distinct statements as distinct
// entries, and whitespace-trimmed keying.
func TestPlanCacheHitsAndMisses(t *testing.T) {
	e := planEngine(t, 20)
	base := e.PlanCacheStats()
	if base.Capacity != defaultPlanCacheSize {
		t.Fatalf("default capacity = %d", base.Capacity)
	}

	const q = `SELECT id FROM rng WHERE k > 3`
	if _, err := e.NewSession().Execute(q); err != nil {
		t.Fatal(err)
	}
	s1 := e.PlanCacheStats()
	if s1.Misses != base.Misses+1 || s1.Hits != base.Hits {
		t.Fatalf("cold execute: %+v (base %+v)", s1, base)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.NewSession().Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	s2 := e.PlanCacheStats()
	if s2.Hits != s1.Hits+3 || s2.Misses != s1.Misses {
		t.Fatalf("warm executes: %+v", s2)
	}

	// The cache key is the trimmed text, so leading/trailing whitespace
	// hits the same entry; interior differences do not.
	if _, err := e.NewSession().Execute("   " + q + "\n"); err != nil {
		t.Fatal(err)
	}
	s3 := e.PlanCacheStats()
	if s3.Hits != s2.Hits+1 {
		t.Fatalf("trimmed key should hit: %+v", s3)
	}
	if _, err := e.NewSession().Execute(`SELECT id  FROM rng WHERE k > 3`); err != nil {
		t.Fatal(err)
	}
	s4 := e.PlanCacheStats()
	if s4.Misses != s3.Misses+1 || s4.Size != s3.Size+1 {
		t.Fatalf("interior whitespace is a new entry: %+v", s4)
	}
}

// TestPlanCacheDDLInvalidation: DDL bumps the schema epoch, so every
// cached plan goes stale at once. The stale entry's parse is reused but
// the plan must be rebuilt against the new catalog — observable both in
// the miss counter and in the access path flipping once an index exists.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	e := planEngine(t, 40)
	const q = `SELECT id FROM rng WHERE k_noix > 3 ORDER BY k_noix`

	lines, err := e.NewSession().Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "access: full scan") {
		t.Fatalf("expected full scan before index:\n%s", strings.Join(lines, "\n"))
	}
	want := queryStrings(t, e, q)
	pre := e.PlanCacheStats()

	e.MustExec(`CREATE ORDERED INDEX rng_k_noix ON rng (k_noix)`)

	// First post-DDL execution is a miss (stale epoch) and re-plans.
	got := queryStrings(t, e, q)
	post := e.PlanCacheStats()
	if post.Misses <= pre.Misses {
		t.Fatalf("DDL did not invalidate: %+v -> %+v", pre, post)
	}
	lines, err = e.NewSession().Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "via rng_k_noix") {
		t.Fatalf("replanned statement ignores new index:\n%s", strings.Join(lines, "\n"))
	}
	if len(got) != len(want) {
		t.Fatalf("row count changed across DDL: %d vs %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d diverged across DDL: %v vs %v", i, got[i], want[i])
			}
		}
	}

	// The replacement entry is current again: next run is a hit.
	queryStrings(t, e, q)
	final := e.PlanCacheStats()
	if final.Hits <= post.Hits {
		t.Fatalf("replaced entry not hit: %+v -> %+v", post, final)
	}
}

// TestPlanCacheLRUEviction pins the bound: capacity 2 holds two
// statements, the third evicts the least recently used, and the evicted
// statement misses on return.
func TestPlanCacheLRUEviction(t *testing.T) {
	e := New("lru", WithPlanCacheSize(2))
	e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	e.MustExec(`INSERT INTO t VALUES (1)`)

	qs := []string{
		`SELECT id FROM t`,
		`SELECT id FROM t WHERE id = 1`,
		`SELECT id FROM t ORDER BY id`,
	}
	for _, q := range qs {
		if _, err := e.NewSession().Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.PlanCacheStats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("size/capacity = %d/%d", st.Size, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}

	// qs[0] was least recently used and must have been evicted; qs[2] is
	// resident. Touch qs[2] (hit), then qs[0] (miss).
	if _, err := e.NewSession().Execute(qs[2]); err != nil {
		t.Fatal(err)
	}
	hitBase := e.PlanCacheStats()
	if hitBase.Hits != st.Hits+1 {
		t.Fatalf("resident entry missed: %+v", hitBase)
	}
	if _, err := e.NewSession().Execute(qs[0]); err != nil {
		t.Fatal(err)
	}
	after := e.PlanCacheStats()
	if after.Misses != hitBase.Misses+1 {
		t.Fatalf("evicted entry hit: %+v", after)
	}
}

// TestPlanCacheDisabled: size 0 turns the cache off entirely — stats
// stay zero and repeated execution still works (planning from scratch
// each time).
func TestPlanCacheDisabled(t *testing.T) {
	e := New("nocache", WithPlanCacheSize(0))
	e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(8))`)
	e.MustExec(`INSERT INTO t VALUES (1, 'a')`)
	for i := 0; i < 3; i++ {
		rows := queryStrings(t, e, `SELECT v FROM t WHERE id = 1`)
		if len(rows) != 1 || rows[0][0] != "a" {
			t.Fatalf("rows = %v", rows)
		}
	}
	if st := e.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Fatalf("disabled cache has stats: %+v", st)
	}
}

// TestPreparedReuse exercises the Prepare surface directly: the same
// Prepared pointer comes back warm, and every SELECT has a plan,
// aggregates included.
func TestPreparedReuse(t *testing.T) {
	e := planEngine(t, 10)
	p1, err := e.Prepare(`SELECT id FROM rng WHERE k > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p1.topPlan() == nil {
		t.Fatal("range select not planned")
	}
	if p1.NumParams() != 1 {
		t.Fatalf("nparams = %d", p1.NumParams())
	}
	p2, err := e.Prepare(`SELECT id FROM rng WHERE k > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("warm Prepare did not return the cached Prepared")
	}
	agg, err := e.Prepare(`SELECT COUNT(*) FROM rng`)
	if err != nil {
		t.Fatal(err)
	}
	if agg.topPlan() == nil {
		t.Fatal("aggregate not planned: every SELECT has a plan")
	}
}
