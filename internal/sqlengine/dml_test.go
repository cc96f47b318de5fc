package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// withWalk runs f with DML target planning off, so UPDATE/DELETE take
// the full walk: the reference the planned path must match.
func withWalk(e *Engine, f func()) {
	e.SetPlannerDisabled(true)
	defer e.SetPlannerDisabled(false)
	f()
}

// factsEngine is a miniature of the benchmark's facts table: the primary
// key's index on id only, ids clustered so zone maps on id are tight.
func factsEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New("facts")
	e.MustExec(`CREATE TABLE facts (id INTEGER PRIMARY KEY, grp INTEGER, payload VARCHAR(32), num DOUBLE)`)
	s := e.NewSession()
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(`INSERT INTO facts VALUES (?, ?, ?, ?)`,
			NewInt(int64(i)), NewInt(int64(i%16)), NewString(fmt.Sprintf("k%d-%06d", i%7, i)), NewDouble(float64(i)/2)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestOneRowDMLTouchesOneChunk pins the per-chunk maintenance contract:
// a one-row UPDATE or DELETE on a table with a live cache leaves every
// other chunk object untouched and costs the next scan one rebuild.
func TestOneRowDMLTouchesOneChunk(t *testing.T) {
	e := factsEngine(t, 5*chunkRows+100)
	const scan = `SELECT grp, COUNT(*), SUM(num) FROM facts GROUP BY grp`
	execAllPaths(t, e, scan)
	before := liveChunks(e, "facts")
	if len(before) != 6 {
		t.Fatalf("chunks = %d, want 6", len(before))
	}
	for _, dml := range []struct {
		sql    string
		params []Value
		chunk  int
	}{
		{`UPDATE facts SET payload = ? WHERE id = ?`, []Value{NewString("upd"), NewInt(2*chunkRows + 5)}, 2},
		{`DELETE FROM facts WHERE id = ?`, []Value{NewInt(4*chunkRows + 9)}, 4},
		{`DELETE FROM facts WHERE id >= ? AND id <= ?`, []Value{NewInt(chunkRows + 1), NewInt(chunkRows + 4)}, 1},
		{`UPDATE facts SET num = num + 1 WHERE payload = ?`, []Value{NewString("k3-000010")}, 0},
	} {
		rebuilt := e.VectorStats().ChunksRebuilt
		res, err := e.Exec(dml.sql, dml.params...)
		if err != nil || res.UpdateCount < 1 {
			t.Fatalf("%s: count=%v err=%v", dml.sql, res, err)
		}
		after := liveChunks(e, "facts")
		if len(after) != len(before) {
			t.Fatalf("%s: %d chunks, want %d", dml.sql, len(after), len(before))
		}
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("%s: chunk %d was replaced", dml.sql, i)
			}
			if after[i].stale != (i == dml.chunk) {
				t.Fatalf("%s: chunk %d stale=%v", dml.sql, i, after[i].stale)
			}
		}
		if got := e.VectorStats().ChunksRebuilt - rebuilt; got != 0 {
			// The last statement has no index to probe: it found its row
			// through the kernels, which needed current chunks first — but
			// every chunk was current, so even that rebuilt nothing.
			t.Fatalf("%s: the write itself rebuilt %d chunks", dml.sql, got)
		}
		execAllPaths(t, e, scan)
		if got := e.VectorStats().ChunksRebuilt - rebuilt; got != 1 {
			t.Fatalf("%s: next scan rebuilt %d chunks, want 1", dml.sql, got)
		}
	}
}

// TestDMLTargetAccess checks how each statement shape lists its rows:
// through its table source, in the source lines a SELECT with its WHERE
// prints — an index probe, or the kernels on a full scan whose WHERE has
// keys, whose zone maps skip chunks as a SELECT's do.
func TestDMLTargetAccess(t *testing.T) {
	e := factsEngine(t, 4*chunkRows)
	e.MustExec(`CREATE ORDERED INDEX facts_grp ON facts (grp)`)
	explain := func(sql string) string {
		t.Helper()
		lines, err := e.NewSession().Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return strings.Join(lines, "\n")
	}
	execAllPaths(t, e, `SELECT COUNT(*) FROM facts WHERE num >= 0`)
	const kernels = "  vector: columnar scan (chunks of 1024 rows)\n  vector filter: compiled kernels with zone-map skipping (row fallback on bind failure)"
	for sql, want := range map[string]string{
		`UPDATE facts SET payload = 'x' WHERE id = 7`:          "update \"facts\"\n  access: ordered point lookup via pk_facts_id (facts.id = ?)\n  filter: predicate per row\n  set: 1 column(s), interpreted per target row",
		`DELETE FROM facts WHERE grp = 3`:                      "delete from \"facts\"\n  access: ordered point lookup via facts_grp (facts.grp = ?)\n  filter: predicate per row",
		`DELETE FROM facts WHERE grp > 3 AND grp <= 5`:         "delete from \"facts\"\n  access: ordered range scan via facts_grp (grp > ? AND grp <= ?)\n  filter: satisfied by access path (re-applied if a bound does not bind)",
		`DELETE FROM facts WHERE id >= 10 AND id <= 13`:        "delete from \"facts\"\n  access: ordered range scan via pk_facts_id (id >= ? AND id <= ?)\n  filter: satisfied by access path (re-applied if a bound does not bind)",
		`DELETE FROM facts WHERE num >= 5 AND num <= 6.5`:      "delete from \"facts\"\n  access: full scan\n" + kernels + "\n  vector zone maps: 3/4 chunks skippable",
		`DELETE FROM facts WHERE num + id > 9 AND id % 2 = 0`:  "delete from \"facts\"\n  access: full scan\n" + kernels + "\n  vector zone maps: 0/4 chunks skippable",
		`UPDATE facts SET num = 0 WHERE num < ? AND 1/grp > 0`: "update \"facts\"\n  access: full scan\n  vector: columnar scan (chunks of 1024 rows)\n  vector filter: compiled kernels on the keys (num < ?) with zone-map skipping\n  filter: predicate per row on the kernels' candidates\n  vector zone maps: evaluated per execution\n  set: 1 column(s), interpreted per target row",
		`UPDATE facts SET num = 0 WHERE 1/grp > 0`:             "update \"facts\"\n  access: full scan\n  filter: predicate per row\n  set: 1 column(s), interpreted per target row",
		`DELETE FROM facts WHERE id IN (SELECT 1)`:             "delete from \"facts\"\n  access: full scan\n  filter: predicate per row",
		`DELETE FROM facts`:                                    "delete from \"facts\"\n  access: full scan",
		`DELETE FROM facts WHERE nosuch = 1`:                   "delete from \"facts\"\n  access: full scan\n  filter: predicate per row",
		`DELETE FROM nosuch WHERE id = 1`:                      "delete from \"nosuch\"\n  fails when run: table \"nosuch\" does not exist",
	} {
		if got := explain(sql); got != want {
			t.Fatalf("EXPLAIN %s:\n%s\nwant:\n%s", sql, got, want)
		}
	}
	// A SELECT with the same WHERE prints the same source lines.
	if got := explain(`SELECT * FROM facts WHERE grp = 3`); !strings.Contains(got, "access: ordered point lookup via facts_grp (facts.grp = ?)\n  filter: predicate per row") {
		t.Fatalf("SELECT:\n%s", got)
	}

	// A range DELETE on the unindexed num finds its rows through the
	// kernels, the zone maps skipping every chunk but the first.
	before := e.VectorStats()
	if res := e.MustExec(`DELETE FROM facts WHERE num >= ? AND num <= ?`, NewDouble(5), NewDouble(6.5)); res.UpdateCount != 4 {
		t.Fatalf("deleted %d rows", res.UpdateCount)
	}
	if after := e.VectorStats(); after.Batches != before.Batches+1 || after.ChunksSkipped != before.ChunksSkipped+3 || after.Fallbacks != before.Fallbacks {
		t.Fatalf("range DELETE on num: vector counters %+v -> %+v", before, after)
	}
	// A by-key UPDATE probes the index and touches neither the kernels
	// nor the chunks.
	before = e.VectorStats()
	if res := e.MustExec(`UPDATE facts SET payload = 'x' WHERE id = ?`, NewInt(3000)); res.UpdateCount != 1 {
		t.Fatalf("updated %d rows", res.UpdateCount)
	}
	if after := e.VectorStats(); after != before {
		t.Fatalf("by-key UPDATE moved vector counters: %+v -> %+v", before, after)
	}
	// A by-key UPDATE lists the probe's row, not the table: a statement
	// allocates less than half of one listing of the table's row IDs.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 20; i++ {
		e.MustExec(`UPDATE facts SET payload = 'y' WHERE id = ?`, NewInt(int64(i)))
	}
	runtime.ReadMemStats(&m1)
	if per, listing := (m1.TotalAlloc-m0.TotalAlloc)/20, uint64(8*4*chunkRows); per > listing/2 {
		t.Fatalf("a by-key UPDATE allocated %d bytes; one listing of the table is %d", per, listing)
	}
}

// TestWhereCandidateRule pins the candidate rule for a WHERE over one
// table: the conjuncts that cannot fail pick the rows, and the WHERE
// decides only those, whatever index lists them. A probe on id = 1 skips
// row 2, where 10 / (a - 5) divides by zero; one on a = 7 skips row 1,
// whose NULL a has s = 3 compare a VARCHAR with an INTEGER. A planned
// SELECT, the oracle, UPDATE and DELETE, planned or walked, answer each
// case alike; each split them before the rule.
func TestWhereCandidateRule(t *testing.T) {
	e := New("rule")
	e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b DOUBLE, s VARCHAR(8))`)
	e.MustExec(`CREATE INDEX ia ON t (a)`)
	e.MustExec(`INSERT INTO t VALUES (1, NULL, 1.5, 'x'), (2, 5, 2.5, 'y')`)
	for _, where := range []string{`10 / (a - 5) > 0 AND id = 1`, `a = 7 AND s = 3`} {
		t.Run(where, func(t *testing.T) {
			if got := execAllPaths(t, e, `SELECT id FROM t WHERE `+where); len(got.Rows) != 0 {
				t.Fatalf("%d rows", len(got.Rows))
			}
			for _, dml := range []string{`DELETE FROM t WHERE `, `UPDATE t SET b = 0 WHERE `} {
				for _, walk := range []bool{false, true} {
					s := e.NewSession()
					mustExecSession(t, s, `BEGIN`)
					e.SetPlannerDisabled(walk)
					res, err := s.Execute(dml + where)
					e.SetPlannerDisabled(false)
					mustExecSession(t, s, `ROLLBACK`)
					if err != nil || res.UpdateCount != 0 {
						t.Fatalf("%s%s (walk=%v): count=%v err=%v", dml, where, walk, res.UpdateCount, err)
					}
				}
			}
		})
	}
	// On a table of four chunks, a full scan's keys list its candidates
	// through the kernels, for a SELECT whose WHERE also runs per row and
	// for a DELETE alike: the zone maps skip every chunk for num < 0.
	f := factsEngine(t, 3*chunkRows+100)
	t.Run("kernels", func(t *testing.T) {
		for _, sql := range []string{
			`SELECT COUNT(*) FROM facts WHERE num < 0 AND UPPER(payload) = 'X'`,
			`DELETE FROM facts WHERE num < 0`,
		} {
			before := f.VectorStats().ChunksSkipped
			if _, err := f.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if skipped := f.VectorStats().ChunksSkipped - before; skipped != 4 {
				t.Fatalf("%s: the zone maps skipped %d chunks, want 4", sql, skipped)
			}
		}
		execAllPaths(t, f, `SELECT COUNT(*) FROM facts WHERE num < 0 AND UPPER(payload) = 'X'`)
		execAllPaths(t, f, `SELECT id, UPPER(payload) FROM facts WHERE num > 1500 AND id % 3 = 0 AND SUBSTR(payload, 2, 1) = '1'`)
	})
	// Every candidate is filtered before any row is projected or fed, on
	// the kernels' listing as on the row path: the WHERE's division by zero
	// at id 2 500, in chunk 2, wins over the BIGINT overflow at id 1, in
	// chunk 0, of a projection, and of a grouped block's key (which fails
	// as it is fed) and SUM argument.
	t.Run("error order", func(t *testing.T) {
		const where = ` FROM facts WHERE num >= 0 AND 10 / (id - 2500) <= 0`
		for _, sql := range []string{
			`SELECT id * 4611686018427387904 * 4` + where,
			`SELECT grp * 4611686018427387904 * 4, SUM(id * 4611686018427387904 * 4)` + where + ` GROUP BY grp * 4611686018427387904 * 4`,
		} {
			if set := execAllPaths(t, f, sql); set != nil {
				t.Fatalf("%s answered %d rows", sql, len(set.Rows))
			}
			if _, err := f.Exec(sql); err == nil || err.Error() != "division by zero" {
				t.Fatalf("%s: err %v, want the WHERE's division by zero", sql, err)
			}
		}
	})
	// The join a differential seed drew: its derived table y probes a.
	t.Run("join", func(t *testing.T) {
		const join = `SELECT x.id, y.s FROM (SELECT id, a FROM t WHERE b > CAST(? AS DOUBLE)) x JOIN (SELECT id, s FROM t WHERE a = ? AND s = ?) y ON x.id = y.id`
		if got := execAllPaths(t, e, join, NewInt(0), NewInt(7), NewInt(3)); len(got.Rows) != 0 {
			t.Fatalf("%d rows", len(got.Rows))
		}
	})
}

// TestDMLPlanCachedAndReplanned: a parametrised DML statement plans once
// and re-plans when DDL moves the schema epoch under it.
func TestDMLPlanCachedAndReplanned(t *testing.T) {
	e := New("cache")
	e.MustExec(`CREATE TABLE c (id INTEGER, v INTEGER)`)
	for i := 0; i < 10; i++ {
		e.MustExec(`INSERT INTO c VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i)))
	}
	const upd = `UPDATE c SET v = v + 1 WHERE id = ?`
	p1, err := e.Prepare(upd)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := e.Prepare(upd)
	if p1 != p2 || p1.blocks.src.access != accessFullScan {
		t.Fatalf("first plan: same=%v access=%v", p1 == p2, p1.blocks.src.access)
	}
	e.MustExec(`CREATE INDEX c_id ON c (id)`)
	p3, _ := e.Prepare(upd)
	if p3 == p1 || p3.blocks.src.access != accessOrderedPoint {
		t.Fatalf("plan not rebuilt after CREATE INDEX: %v", p3.blocks.src.access)
	}
	// A Prepared held across DDL is stale: it must walk, not probe the
	// index it was not planned against (or one since dropped).
	e.MustExec(`DROP INDEX c_id`)
	if res, err := e.NewSession().ExecutePrepared(context.Background(), p3, NewInt(4)); err != nil || res.UpdateCount != 1 {
		t.Fatalf("stale prepared UPDATE: %v %v", res, err)
	}
	if got := queryStrings(t, e, `SELECT v FROM c WHERE id = 4`); got[0][0] != "5" {
		t.Fatalf("v = %v", got)
	}
}

// TestDMLFallsBackToWalk proves that a WHERE outside the kernels'
// class, and one in it whose operands do not bind, answer what the walk
// answers — its exact errors included.
func TestDMLFallsBackToWalk(t *testing.T) {
	e := factsEngine(t, 2*chunkRows)
	execAllPaths(t, e, `SELECT COUNT(*) FROM facts WHERE num >= 0`) // live cache
	for _, tc := range []struct {
		sql     string
		params  []Value
		keys    int // the WHERE's keys; without a residual, one fails to bind these operands
		wantErr string
	}{
		{`UPDATE facts SET num = 1 WHERE 1/(grp - 3) > 0`, nil, 0, "division by zero"},
		{`DELETE FROM facts WHERE id < 20 AND id IN (SELECT id FROM facts WHERE grp = 99)`, nil, 1, ""},
		{`DELETE FROM facts WHERE id = ?`, []Value{NewString("abc")}, 1, "cannot compare"},
		{`DELETE FROM facts WHERE payload >= ? AND payload <= ?`, []Value{NewInt(1), NewInt(2)}, 2, "cannot compare"},
		{`UPDATE facts SET num = 1 WHERE grp IN (1, ?)`, []Value{NewBool(true)}, 1, "cannot compare"},
		{`UPDATE facts SET num = 1 WHERE grp % ? = 1`, []Value{NewInt(0)}, 1, "division by zero"},
		{`DELETE FROM facts WHERE num + ? > 3`, []Value{NewString("x")}, 1, "requires numeric operands"},
	} {
		prep, err := e.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if src := prep.blocks.src; len(src.keys) != tc.keys {
			t.Fatalf("%s: %d keys, want %d", tc.sql, len(src.keys), tc.keys)
		} else if !src.residual && !src.bindKeys(tc.params).perRow {
			t.Fatalf("%s: the kernels bound", tc.sql)
		}
		plannedRes, plannedErr := e.Exec(tc.sql, tc.params...)
		var walkRes *Result
		var walkErr error
		withWalk(e, func() { walkRes, walkErr = e.Exec(tc.sql, tc.params...) })
		if fmt.Sprint(plannedErr) != fmt.Sprint(walkErr) || plannedRes.CA != walkRes.CA {
			t.Fatalf("%s:\nplanned: %v %+v\nwalk:    %v %+v", tc.sql, plannedErr, plannedRes.CA, walkErr, walkRes.CA)
		}
		if tc.wantErr == "" && plannedErr != nil || tc.wantErr != "" && (plannedErr == nil || !strings.Contains(plannedErr.Error(), tc.wantErr)) {
			t.Fatalf("%s: err = %v, want %q", tc.sql, plannedErr, tc.wantErr)
		}
	}
}

// TestRollbackBulkDelete rolls back DELETE FROM t on 50 000 rows. Every
// undo entry puts its row back into its page's ID list; with a linear
// search to remove and an insertion sort per entry to restore, that
// was quadratic in element moves.
func TestRollbackBulkDelete(t *testing.T) {
	const n = 50000
	e := New("bulk")
	e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	s := e.NewSession()
	for i := 0; i < n; i++ {
		if _, err := s.Execute(`INSERT INTO t VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i%10))); err != nil {
			t.Fatal(err)
		}
	}
	const sum = `SELECT COUNT(*), SUM(id), SUM(v) FROM t`
	want := queryStrings(t, e, sum) // builds the chunk cache too
	start := time.Now()
	mustExecSession(t, s, `BEGIN`)
	if res := mustExecSession(t, s, `DELETE FROM t`); res.UpdateCount != n {
		t.Fatalf("deleted %d rows", res.UpdateCount)
	}
	mustExecSession(t, s, `ROLLBACK`)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("DELETE + ROLLBACK of %d rows took %v", n, d)
	}
	if got := queryStrings(t, e, sum); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after rollback: %v, want %v", got, want)
	}
	// Scan order is restored: unordered scans come back in id order on
	// every path, and the indexes still find every row.
	res := e.MustExec(`SELECT id FROM t`)
	for i, r := range res.Set.Rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d has id %d", i, r[0].I)
		}
	}
	execAllPaths(t, e, `SELECT id, v FROM t WHERE v = 3 AND id < 200`)
	execAllPaths(t, e, `SELECT v FROM t WHERE id = 31337`)
	checkChunks(t, e, "t", true)
}

// TestChunkRestoreGapAndOverflow covers the two corners of re-inserting
// a row under its old ID: the last ID of a page rejoins that page, not
// the full one after it, and the rows of a page the DELETE emptied and
// dropped get the page back — only it is rebuilt, the cache stays.
func TestChunkRestoreGapAndOverflow(t *testing.T) {
	e := factsEngine(t, 3*chunkRows)
	const all = `SELECT * FROM facts`
	want := dumpSet(e.MustExec(all).Set)
	s := e.NewSession()
	rollBack := func(del string, params ...Value) {
		t.Helper()
		mustExecSession(t, s, `BEGIN`)
		mustExecSession(t, s, del, params...)
		checkChunks(t, e, "facts", false)
		mustExecSession(t, s, `ROLLBACK`)
		checkChunks(t, e, "facts", false)
	}
	// The last row of chunk 0: once gone, its ID lies between chunk 0's
	// span and full chunk 1's.
	before := liveChunks(e, "facts")
	rollBack(`DELETE FROM facts WHERE id = ?`, NewInt(chunkRows-1))
	after := liveChunks(e, "facts")
	if len(after) != 3 || after[0] != before[0] || after[0].n != chunkRows || !after[0].stale || after[1].stale {
		t.Fatalf("gap restore: %d chunks, chunk0 n=%d stale=%v, chunk1 stale=%v", len(after), after[0].n, after[0].stale, after[1].stale)
	}
	execAllPaths(t, e, all)
	// All of page 1, which lies between two full ones: the DELETE drops
	// it, the rollback recreates it, and the next scan rebuilds it alone.
	const count = `SELECT COUNT(*) FROM facts WHERE num >= 0`
	vecCount(t, e, count)
	rebuilt := e.VectorStats().ChunksRebuilt
	mustExecSession(t, s, `BEGIN`)
	mustExecSession(t, s, `DELETE FROM facts WHERE id >= ? AND id < ?`, NewInt(chunkRows), NewInt(2*chunkRows))
	checkChunks(t, e, "facts", false)
	if chunks := liveChunks(e, "facts"); len(chunks) != 2 || chunks[1] != after[2] {
		t.Fatalf("emptied page 1 was not dropped: %d pages left", len(chunks))
	}
	mustExecSession(t, s, `ROLLBACK`)
	checkChunks(t, e, "facts", false)
	if built, chunks, rows := chunkState(e, "facts"); !built || chunks != 3 || rows != 3*chunkRows {
		t.Fatalf("after rollback: built=%v chunks=%d rows=%d", built, chunks, rows)
	}
	if got := vecCount(t, e, count); got != 3*chunkRows {
		t.Fatalf("count = %d after rollback", got)
	}
	if got := e.VectorStats().ChunksRebuilt - rebuilt; got != 1 {
		t.Fatalf("the scan after the rollback rebuilt %d chunks, want 1", got)
	}
	execAllPaths(t, e, all)
	if got := dumpSet(e.MustExec(all).Set); got != want {
		t.Fatal("contents changed across rolled-back deletes")
	}
	checkChunks(t, e, "facts", true)
}

// TestUpdateRollbackRestoresPreviousImage: the undo record aliases the
// row image the UPDATE replaced, so that image must never be written to
// afterwards — not by a second UPDATE of the same row, not by the
// rollback itself.
func TestUpdateRollbackRestoresPreviousImage(t *testing.T) {
	e := New("img")
	e.MustExec(`CREATE TABLE r (id INTEGER PRIMARY KEY, a INTEGER, s VARCHAR(8))`)
	e.MustExec(`INSERT INTO r VALUES (1, 10, 'one'), (2, 20, 'two'), (3, 30, 'three')`)
	const all = `SELECT id, a, s FROM r`
	want := dumpSet(e.MustExec(all).Set)
	s := e.NewSession()
	for _, sql := range []string{
		`BEGIN`,
		`UPDATE r SET a = a + 1, s = 'x' WHERE id = 2`,
		`UPDATE r SET a = a * 2 WHERE id >= 2`,
		`UPDATE r SET s = NULL`,
		`DELETE FROM r WHERE id = 2`,
	} {
		mustExecSession(t, s, sql)
	}
	if got := mustExecSession(t, s, `SELECT a FROM r WHERE id = 3`).Set.Rows[0][0]; got.I != 60 {
		t.Fatalf("a = %v before rollback", got)
	}
	mustExecSession(t, s, `ROLLBACK`)
	if got := dumpSet(e.MustExec(all).Set); got != want {
		t.Fatalf("after rollback:\n%s\nwant:\n%s", got, want)
	}
	// A failing statement undoes its own partial effects the same way.
	e.MustExec(`INSERT INTO r VALUES (4, 0, 'zero')`)
	want = dumpSet(e.MustExec(all).Set)
	if _, err := e.Exec(`UPDATE r SET a = 100 / a`); err == nil {
		t.Fatal("division by zero expected")
	}
	if got := dumpSet(e.MustExec(all).Set); got != want {
		t.Fatalf("after failed UPDATE:\n%s\nwant:\n%s", got, want)
	}
	execAllPaths(t, e, all)
}

// chunkDiff compares two chunks field by field (NaN-aware, which
// reflect.DeepEqual is not) and names the first difference.
func chunkDiff(a, b *colChunk) string {
	if a.n != b.n || !slices.Equal(a.ids, b.ids) {
		return fmt.Sprintf("ids: n=%d %v vs n=%d %v", a.n, a.ids, b.n, b.ids)
	}
	for c := range a.vecs {
		x, y := &a.vecs[c], &b.vecs[c]
		floatsEqual := slices.EqualFunc(x.flts, y.flts, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
		timesEqual := slices.EqualFunc(x.times, y.times, func(p, q time.Time) bool { return p.Equal(q) })
		switch {
		case x.typ != y.typ:
			return fmt.Sprintf("col %d: type", c)
		case !slices.Equal(x.nulls, y.nulls):
			return fmt.Sprintf("col %d: null bitmap", c)
		case !slices.Equal(x.ints, y.ints) || !floatsEqual || !slices.Equal(x.strs, y.strs) || !slices.Equal(x.words, y.words) || !slices.Equal(x.bools, y.bools) || !timesEqual:
			return fmt.Sprintf("col %d: values", c)
		case x.nonNull != y.nonNull:
			return fmt.Sprintf("col %d: nonNull %d vs %d", c, x.nonNull, y.nonNull)
		case !sameStat(x.min, y.min) || !sameStat(x.max, y.max):
			return fmt.Sprintf("col %d: zone map [%v,%v] vs [%v,%v]", c, x.min, x.max, y.min, y.max)
		}
	}
	return ""
}

// sameStat reports that two zone-map bounds are the same value: equal
// fields, or both a DOUBLE NaN, which == never finds equal.
func sameStat(p, q Value) bool {
	return p == q || p.Type == TypeDouble && q.Type == TypeDouble && math.IsNaN(p.F) && math.IsNaN(q.F)
}

// checkChunks asserts the chunk-maintenance property on a table's
// pages: page k's IDs lie in [k·chunkRows, (k+1)·chunkRows) and ascend;
// they are exactly the page's slots holding a row image, so their union
// is the table's live rows; no page is empty (an emptied one is nil);
// and once a columnar read has built the cache, every page not marked stale
// is field-identical to one built from scratch over the same rows. With
// settled set (the caller has just scanned), no page may be stale at
// all.
func checkChunks(t *testing.T, e *Engine, table string, settled bool) {
	t.Helper()
	e.db.mu.RLock()
	defer e.db.mu.RUnlock()
	tb, err := e.db.table(table)
	if err != nil {
		t.Fatal(err)
	}
	for k, ch := range tb.pages {
		if ch == nil {
			continue
		}
		if ch.n != len(ch.ids) || ch.n == 0 {
			t.Fatalf("page %d: n=%d len(ids)=%d", k, ch.n, len(ch.ids))
		}
		for i, id := range ch.ids {
			if id/chunkRows != int64(k) || i > 0 && id <= ch.ids[i-1] || ch.rows[id%chunkRows] == nil {
				t.Fatalf("page %d: id %d at %d (ids %v)", k, id, i, ch.ids)
			}
		}
		images := 0
		for _, r := range ch.rows {
			if r != nil {
				images++
			}
		}
		if images != ch.n {
			t.Fatalf("page %d: %d row images for %d ids", k, images, ch.n)
		}
		if !tb.chunksLive() {
			continue
		}
		if ch.stale {
			if settled {
				t.Fatalf("page %d still stale after a scan", k)
			}
			continue
		}
		fresh := &colChunk{rows: ch.rows, ids: ch.ids, n: ch.n}
		if !fresh.rebuild(tb.Columns) {
			t.Fatalf("page %d: row store defeats the columnar layout", k)
		}
		if diff := chunkDiff(ch, fresh); diff != "" {
			t.Fatalf("page %d is not marked stale but differs from a fresh build: %s", k, diff)
		}
	}
}

// dmlFuzz generates the differential test's schema and statements from
// one seed.
type dmlFuzz struct {
	r      *rand.Rand
	nextID int64
}

func (g *dmlFuzz) pick(opts ...string) string { return opts[g.r.Intn(len(opts))] }

func (g *dmlFuzz) pickVal(opts ...Value) Value { return opts[g.r.Intn(len(opts))] }

func (g *dmlFuzz) someID() Value { return NewInt(g.r.Int63n(g.nextID + 5)) }

func (g *dmlFuzz) intVal() Value {
	if g.r.Intn(8) == 0 {
		return Null
	}
	return NewInt(int64(g.r.Intn(40)))
}

func (g *dmlFuzz) dblVal() Value {
	switch g.r.Intn(12) {
	case 0:
		return Null
	case 1:
		return NewDouble(math.NaN())
	case 2:
		return NewDouble(math.Copysign(0, -1))
	}
	return NewDouble(float64(g.r.Intn(200))/4 - 10)
}

func (g *dmlFuzz) strVal() Value {
	switch g.r.Intn(18) {
	case 0, 1:
		return Null
	case 2: // the LIKE kernel's edges: 0, 8, 9 and 16 bytes, multi-byte, a NUL
		return NewString(g.pick("", "v-012345", "v-0123456", "v-0123456789abcd", "v-日本", "v-é1", "v-1\x00", "v-12\x00"))
	}
	return NewString(fmt.Sprintf("v-%02d", g.r.Intn(30)))
}

// schema returns the DDL for table t: the same five columns every time,
// with the constraints and indexes (none, hash, ordered, unique) drawn
// per seed so every access path gets its turn on every column type.
func (g *dmlFuzz) schema() []string {
	idCol := g.pick("id INTEGER PRIMARY KEY", "id INTEGER", "id INTEGER", "id INTEGER")
	uCol := g.pick("u BIGINT UNIQUE", "u BIGINT")
	ddl := []string{fmt.Sprintf(`CREATE TABLE t (%s, a INTEGER, b DOUBLE, s VARCHAR(16), %s)`, idCol, uCol)}
	index := func(col string, kinds ...string) {
		if kind := g.pick(kinds...); kind != "none" {
			ddl = append(ddl, fmt.Sprintf(`CREATE %s ix_%s ON t (%s)`, kind, col, col))
		}
	}
	if !strings.Contains(idCol, "PRIMARY") {
		index("id", "none", "INDEX", "UNIQUE INDEX", "ORDERED INDEX", "UNIQUE ORDERED INDEX")
	}
	index("a", "none", "INDEX", "ORDERED INDEX")
	index("b", "none", "INDEX", "ORDERED INDEX")
	index("s", "none", "INDEX", "ORDERED INDEX")
	return ddl
}

func (g *dmlFuzz) insert() (string, []Value) {
	// u stays distinct even when id repeats: with two unique constraints
	// violated at once, which one the engine names is map-order luck.
	id, u := g.nextID, g.nextID*10
	g.nextID++
	if g.r.Intn(10) == 0 {
		id = g.r.Int63n(g.nextID) // likely a duplicate: a unique violation where one is declared
	}
	return `INSERT INTO t VALUES (?, ?, ?, ?, ?)`, []Value{NewInt(id), g.intVal(), g.dblVal(), g.strVal(), NewInt(u)}
}

// insertSelect draws an INSERT ... SELECT copying up to ten rows of t to
// fresh IDs: a unique violation where the copies collide with each other
// or with a key already there.
func (g *dmlFuzz) insertSelect() (string, []Value) {
	lo := g.r.Int63n(g.nextID + 1)
	shift := g.nextID - lo
	g.nextID += 10
	return `INSERT INTO t SELECT id + ?, a, b, s, u + ? FROM t WHERE id >= ? AND id < ? ` + g.pick("", "AND a IN (SELECT a FROM t WHERE s IS NULL)"),
		[]Value{NewInt(shift), NewInt(shift * 10), NewInt(lo), NewInt(lo + 10)}
}

// where draws a predicate: by key, range, IN, LIKE, IS NULL, boolean
// combinations, float and NaN operands, computed operands — all inside
// the kernels' class — plus operands that fail to bind, predicates
// outside the class, and keys beside conjuncts that fail on rows the keys
// rule out.
func (g *dmlFuzz) where() (string, []Value) {
	lo := g.r.Int63n(g.nextID + 1)
	hi := lo + g.r.Int63n(40)
	if g.r.Intn(6) == 0 {
		hi = lo + g.r.Int63n(g.nextID+1) // wide: crosses chunk boundaries
	}
	switch g.r.Intn(32) {
	case 0, 1, 2:
		return `id = ?`, []Value{g.someID()}
	case 3:
		return `? = id`, []Value{NewDouble(float64(g.r.Int63n(g.nextID+1)) + float64(g.r.Intn(2))/2)}
	case 4, 5:
		return `id >= ? AND id <= ?`, []Value{NewInt(lo), NewInt(hi)}
	case 6:
		return `id BETWEEN ? AND ?`, []Value{NewInt(lo), NewDouble(float64(hi) + 0.5)}
	case 7:
		return `id > ?`, []Value{NewInt(g.nextID - g.r.Int63n(60))}
	case 8:
		return `a IN (?, ?, 3)`, []Value{g.intVal(), g.intVal()}
	case 9:
		return `a NOT IN (?, 7) AND id < ?`, []Value{g.intVal(), NewInt(hi)}
	case 10: // prefix, general and suffix; exact literals; prefixes of 7, 8 and 9 bytes, one with a NUL
		return `s LIKE ?`, []Value{NewString(g.pick("v-1%", "v-_3", "%9", "nomatch",
			"v-12", "v-012345", "", "v-01234%", "v-012345%", "v-0123456%", "v-1\x00%", "v-日%"))}
	case 11:
		return g.pick(`a IS NULL`, `b IS NOT NULL AND s IS NULL`, `s IS NULL OR a IS NULL`), nil
	case 12:
		return g.pick(`b > ?`, `b = ?`, `b <= ?`, `b <> ?`), []Value{g.dblVal()}
	case 13:
		return `a = ? AND s = ?`, []Value{g.intVal(), g.strVal()}
	case 14:
		return `a < ? OR s = ?`, []Value{g.intVal(), g.strVal()}
	case 15:
		return `NOT (a >= ?) AND id >= ?`, []Value{g.intVal(), NewInt(lo)}
	case 16:
		return `u = ?`, []Value{NewInt(g.r.Int63n(g.nextID+1) * 10)}
	case 17:
		return `s = ? AND id < ?`, []Value{g.strVal(), NewInt(hi)}
	case 18:
		return `a = ? AND b < ?`, []Value{g.intVal(), g.dblVal()}
	case 19: // outside the class: arithmetic that errors where a = 0
		if g.r.Intn(2) == 0 {
			return `1/a > 0`, nil
		}
		return `id < ? AND 10/a > 2`, []Value{NewInt(hi)}
	case 20: // outside the class: a subquery, behind a narrow range so it runs for few rows
		return `id >= ? AND id <= ? AND id IN (SELECT id FROM t WHERE a = ?)`, []Value{NewInt(lo), NewInt(lo + 30), g.intVal()}
	case 21: // inside the class, but the operand does not bind
		return g.pick(`id = ?`, `s = ?`, `a IN (1, ?)`, `b BETWEEN ? AND 3`), []Value{g.pickVal(NewString("abc"), NewInt(5), NewBool(true))}
	case 22:
		return `id = ? OR id = ?`, []Value{g.someID(), g.someID()}
	case 23: // computed operands: inside the class while every divisor is a constant
		return g.pick(`a + id > ?`, `id - a * 2 < ?`, `-a <= ?`, `b * 2 > ?`, `(a + 1) IS NULL AND id < ?`), []Value{NewInt(lo)}
	case 24: // ... a zero one sometimes, and operands that do not bind
		return `id % ? = 1 AND a + ? > 3`, []Value{NewInt(int64(g.r.Intn(3))), g.pickVal(NewInt(2), NewDouble(0.5), Null, NewString("x"))}
	case 25: // row-independent operands: constants of one execution, key and bounds included
		v := g.pickVal(NewInt(-lo), NewInt(lo), Null)
		if g.r.Intn(4) == 0 {
			return `id BETWEEN ABS(?) AND ? + 30`, []Value{v, NewInt(lo)}
		}
		return g.pick(`id = ? + 1`, `id > -?`, `b > CAST(? AS DOUBLE)`), []Value{v}
	case 26: // row-independent conjuncts and disjuncts
		return g.pick(`1 = 1 AND id >= ? AND id <= ?`, `? IS NULL OR id < ?`), []Value{g.pickVal(NewInt(lo), Null), NewInt(hi)}
	case 27: // a constant that fails to evaluate at 0, which only the candidates may raise
		d := NewInt(int64(g.r.Intn(3)))
		if g.r.Intn(2) == 0 {
			return `a > 1 / ?`, []Value{d}
		}
		return `id < ? AND a > 10 / ?`, []Value{NewInt(hi), d}
	case 28: // a row-independent predicate that is not boolean, met only where id < ?
		return `id < ? AND ?`, []Value{NewInt(hi), g.pickVal(NewBool(true), NewString("x"), NewInt(1))}
	case 29: // outside the class: a correlated subquery, behind a narrow range
		return `id >= ? AND id <= ? AND ` + g.pick("", "NOT ") + `EXISTS (SELECT 1 FROM t i WHERE i.id = t.a AND i.s IS NOT NULL)`, []Value{NewInt(lo), NewInt(lo + 30)}
	case 30: // a key beside a residual that fails on some row the key rules out, in either order
		key, kp := `id = ?`, []Value{g.someID()}
		if g.r.Intn(2) == 0 {
			key, kp = `a = ?`, []Value{g.intVal()}
		}
		res, rp := `10 / (a - ?) > 0`, []Value{g.intVal()}
		if g.r.Intn(2) == 0 {
			res, rp = `s = ?`, []Value{NewInt(int64(g.r.Intn(40)))} // VARCHAR against INTEGER
		}
		if g.r.Intn(2) == 0 {
			return key + ` AND ` + res, append(kp, rp...)
		}
		return res + ` AND ` + key, append(rp, kp...)
	}
	return "", nil // WHERE-less
}

func (g *dmlFuzz) set() (string, []Value) {
	switch g.r.Intn(10) {
	case 0:
		return `a = ?`, []Value{g.intVal()}
	case 1:
		return `a = a + 1`, nil
	case 2:
		return `b = ?`, []Value{g.dblVal()}
	case 3:
		return `s = ?, a = ?`, []Value{g.strVal(), g.intVal()}
	case 4:
		return `a = NULL, b = NULL`, nil
	case 5:
		return `u = ?`, []Value{NewInt(g.r.Int63n(g.nextID+1) * 10)} // a unique violation where u is UNIQUE
	case 6:
		return `a = 100 / a`, nil // fails part-way through the statement where a = 0
	case 7:
		return `id = id, s = s`, nil
	case 8:
		return `id = ?`, []Value{g.someID()} // moves the key; a violation where id is unique
	}
	return `b = b * 2, s = ?`, []Value{g.strVal()}
}

// statement draws the next statement. Transactions open and close at
// random; a WHERE-less DELETE is only issued inside one that will roll
// back, so the table stays populated.
func (g *dmlFuzz) statement(inTxn *bool) (string, []Value) {
	k := g.r.Intn(100)
	switch {
	case !*inTxn && k < 8:
		*inTxn = true
		return `BEGIN`, nil
	case *inTxn && k < 12:
		*inTxn = false
		return g.pick(`ROLLBACK`, `ROLLBACK`, `COMMIT`), nil
	case !*inTxn && k < 11:
		return g.pick(`CREATE INDEX fz_a ON t (a)`, `DROP INDEX fz_a`, `CREATE ORDERED INDEX fz_id ON t (id)`, `DROP INDEX fz_id`), nil
	case k < 30:
		return g.insert()
	case k < 33:
		return g.insertSelect()
	case k < 70:
		set, sp := g.set()
		where, wp := g.where()
		if where == "" {
			return `UPDATE t SET ` + set, sp
		}
		return `UPDATE t SET ` + set + ` WHERE ` + where, append(sp, wp...)
	}
	where, wp := g.where()
	if where == "" {
		if !*inTxn {
			return `DELETE FROM t WHERE id = ?`, []Value{g.someID()}
		}
		return `DELETE FROM t`, nil
	}
	return `DELETE FROM t WHERE ` + where, wp
}

// TestChaosDMLDifferential drives seeded random INSERT/UPDATE/DELETE/
// BEGIN...ROLLBACK sequences over random schemas through two engines:
// planned DML with incremental chunk maintenance, and vector execution
// disabled with the walk forced. After every statement both must agree
// on update count, communication area and error text, on the table's
// full contents in scan order, and the planned engine's vector-path
// scans must agree with its row-path scans while its chunk cache keeps
// the maintenance property.
func TestChaosDMLDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { dmlDifferential(t, seed, chunkRows+400, 160) })
	}
}

// FuzzDMLPaths maps a seed to a short dmlDifferential run: twenty
// generated statements over a table of 300 rows, like FuzzSelectPaths.
// The seeds below run with the tier-1 tests.
func FuzzDMLPaths(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { dmlDifferential(t, seed, 300, 20) })
}

func dmlDifferential(t *testing.T, seed int64, rows, statements int) {
	g := &dmlFuzz{r: rand.New(rand.NewSource(seed))}
	planned := New("planned")
	walked := New("walked")
	walked.SetVectorDisabled(true)
	ps, ws := planned.NewSession(), walked.NewSession()
	var trail []string
	both := func(sql string, params []Value) {
		t.Helper()
		trail = append(trail, fmt.Sprintf("%s %v", sql, params))
		pres, perr := ps.Execute(sql, params...)
		var wres *Result
		var werr error
		withWalk(walked, func() { wres, werr = ws.Execute(sql, params...) })
		if fmt.Sprint(perr) != fmt.Sprint(werr) || pres.UpdateCount != wres.UpdateCount || pres.CA != wres.CA {
			t.Fatalf("seed %d diverged on %s %v\nplanned: count=%d ca=%+v err=%v\nwalked:  count=%d ca=%+v err=%v\ntrail:\n%s",
				seed, sql, params, pres.UpdateCount, pres.CA, perr, wres.UpdateCount, wres.CA, werr, strings.Join(trail[max(0, len(trail)-12):], "\n"))
		}
	}
	for _, ddl := range g.schema() {
		both(ddl, nil)
	}
	for i := 0; i < rows; i++ {
		both(g.insert())
	}
	contents := func(e *Engine, s *Session, sql string, params ...Value) string {
		t.Helper()
		res, err := s.Execute(sql, params...)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, sql, err)
		}
		// dumpSet's shape without its per-value Fprintf: this runs nine
		// times per statement over the whole table.
		var b []byte
		for _, r := range res.Set.Rows {
			for _, v := range r {
				b = append(b, byte('0'+v.Type))
				b = append(v.AppendText(b), ',')
			}
			b = append(b, '\n')
		}
		return string(b)
	}
	check := func() {
		t.Helper()
		checkChunks(t, planned, "t", false) // before any scan settles the cache
		for _, q := range []struct {
			sql    string
			params []Value
		}{
			{`SELECT * FROM t`, nil},
			{`SELECT id, b FROM t WHERE a >= ? OR b < ?`, []Value{NewInt(int64(g.r.Intn(40))), g.dblVal()}},
			{`SELECT COUNT(*), COUNT(a), MIN(a), MAX(s) FROM t WHERE id >= ?`, []Value{NewInt(g.r.Int63n(g.nextID + 1))}},
		} {
			vec := contents(planned, ps, q.sql, q.params...)
			planned.SetVectorDisabled(true)
			row := contents(planned, ps, q.sql, q.params...)
			planned.SetVectorDisabled(false)
			var ref string
			withWalk(walked, func() { ref = contents(walked, ws, q.sql, q.params...) })
			if vec != row || vec != ref {
				t.Fatalf("seed %d: %s %v diverged (vector==row: %v, vector==walked: %v)\ntrail:\n%s",
					seed, q.sql, q.params, vec == row, vec == ref, strings.Join(trail[max(0, len(trail)-12):], "\n"))
			}
		}
		checkChunks(t, planned, "t", true)
	}
	// rule is the metamorphic check on a generated WHERE p, on each engine:
	// SELECT COUNT(*) under p and a DELETE under p, rolled back, both
	// succeed with one count or both fail with one error text — and the two
	// engines agree.
	rule := func() {
		t.Helper()
		p, pp := g.where()
		if p == "" {
			return
		}
		outcome := func(s *Session) string {
			cnt, cerr := s.Execute(`SELECT COUNT(*) FROM t WHERE `+p, pp...)
			mustExecSession(t, s, `BEGIN`)
			del, derr := s.Execute(`DELETE FROM t WHERE `+p, pp...)
			mustExecSession(t, s, `ROLLBACK`)
			if fmt.Sprint(cerr) != fmt.Sprint(derr) || cerr == nil && cnt.Set.Rows[0][0].I != int64(del.UpdateCount) {
				t.Fatalf("seed %d: WHERE %s %v: SELECT COUNT(*) %v err=%v, DELETE %d err=%v", seed, p, pp, cnt.Set, cerr, del.UpdateCount, derr)
			}
			if cerr != nil {
				return cerr.Error()
			}
			return fmt.Sprint(del.UpdateCount)
		}
		var walk string
		withWalk(walked, func() { walk = outcome(ws) })
		if plan := outcome(ps); plan != walk {
			t.Fatalf("seed %d: WHERE %s %v: planned %s, walked %s", seed, p, pp, plan, walk)
		}
	}
	check()
	inTxn := false
	for i := 0; i < statements; i++ {
		both(g.statement(&inTxn))
		if !inTxn {
			rule()
		}
		check()
	}
	if inTxn {
		both(`ROLLBACK`, nil)
		check()
	}
}
