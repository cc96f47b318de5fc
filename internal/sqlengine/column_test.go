package sqlengine

import (
	"testing"
)

// chunksLive reports whether the table has had a columnar read: a page
// carries vectors, which writes then keep current. Caller holds the
// database latch (shared suffices).
func (t *Table) chunksLive() bool {
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	for _, ch := range t.pages {
		if ch != nil && ch.vecs != nil {
			return true
		}
	}
	return false
}

// chunkState inspects the chunk cache of a table under the read latch:
// whether a columnar read has built it, and its non-empty pages and rows.
func chunkState(e *Engine, table string) (built bool, chunks int, rows int) {
	for _, ch := range liveChunks(e, table) {
		chunks++
		rows += ch.n
	}
	e.db.mu.RLock()
	defer e.db.mu.RUnlock()
	t, err := e.db.table(table)
	return err == nil && t.chunksLive(), chunks, rows
}

// liveChunks returns the table's non-empty pages, in ID order, without
// triggering a rebuild; none before a columnar read.
func liveChunks(e *Engine, table string) (chunks []*colChunk) {
	e.db.mu.RLock()
	defer e.db.mu.RUnlock()
	t, err := e.db.table(table)
	if err != nil || !t.chunksLive() {
		return nil
	}
	for _, ch := range t.pages {
		if ch != nil {
			chunks = append(chunks, ch)
		}
	}
	return chunks
}

// staleChunks counts the chunks of a live cache awaiting a rebuild.
func staleChunks(e *Engine, table string) (stale int) {
	for _, ch := range liveChunks(e, table) {
		if ch.stale {
			stale++
		}
	}
	return stale
}

func vecCount(t *testing.T, e *Engine, sql string, params ...Value) int64 {
	t.Helper()
	res, err := e.Exec(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Set.Rows[0][0].I
}

// TestChunkMaintenance walks the cache through its whole lifecycle:
// lazy build on first vectorised scan, in-place append on INSERT, one
// stale chunk per one-row UPDATE/DELETE, and rebuild with correct
// contents.
func TestChunkMaintenance(t *testing.T) {
	e := New("chunks")
	e.MustExec(`CREATE TABLE c (id INTEGER, v INTEGER)`)
	s := e.NewSession()
	n := chunkRows + 100 // force a chunk boundary
	for i := 0; i < n; i++ {
		if _, err := s.Execute(`INSERT INTO c VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if built, _, _ := chunkState(e, "c"); built {
		t.Fatal("chunks built before any scan")
	}
	if got := vecCount(t, e, `SELECT COUNT(*) FROM c WHERE v >= 0`); got != int64(n) {
		t.Fatalf("count = %d, want %d", got, n)
	}
	built, chunks, rows := chunkState(e, "c")
	if !built || chunks != 2 || rows != n {
		t.Fatalf("after scan: built=%v chunks=%d rows=%d", built, chunks, rows)
	}

	// INSERT appends in place — no invalidation, no rebuild.
	e.MustExec(`INSERT INTO c VALUES (?, ?)`, NewInt(int64(n)), NewInt(int64(n)))
	if built, _, rows = chunkState(e, "c"); !built || rows != n+1 {
		t.Fatalf("after insert: built=%v rows=%d", built, rows)
	}
	if got := vecCount(t, e, `SELECT COUNT(*) FROM c WHERE v = ?`, NewInt(int64(n))); got != 1 {
		t.Fatalf("appended row not visible to vector scan: %d", got)
	}

	// UPDATE marks the owning chunk stale; the next scan rebuilds it with
	// the new image.
	e.MustExec(`UPDATE c SET v = -1 WHERE id = 0`)
	if built, _, _ = chunkState(e, "c"); !built || staleChunks(e, "c") != 1 {
		t.Fatalf("after UPDATE: built=%v stale=%d, want a live cache with 1 stale chunk", built, staleChunks(e, "c"))
	}
	if got := vecCount(t, e, `SELECT COUNT(*) FROM c WHERE v = -1`); got != 1 {
		t.Fatalf("updated row wrong in rebuilt chunks: %d", got)
	}
	if n := staleChunks(e, "c"); n != 0 {
		t.Fatalf("%d chunks still stale after a scan", n)
	}

	// DELETE does too, and the chunk gives up the row.
	e.MustExec(`DELETE FROM c WHERE id = 0`)
	if built, _, rows = chunkState(e, "c"); !built || rows != n || staleChunks(e, "c") != 1 {
		t.Fatalf("after DELETE: built=%v rows=%d stale=%d", built, rows, staleChunks(e, "c"))
	}
	if got := vecCount(t, e, `SELECT COUNT(*) FROM c WHERE v = -1`); got != 0 {
		t.Fatalf("deleted row still visible: %d", got)
	}
}

// TestChunkMaintenanceRollback covers the undo paths, which bypass the
// ordinary DML entry points: a rolled-back DELETE splices rows back
// into scan order and must drop the cache; rolled-back INSERTs and
// UPDATEs restore through deleteRow/updateRow and must too.
func TestChunkMaintenanceRollback(t *testing.T) {
	e := New("undo")
	e.MustExec(`CREATE TABLE u (id INTEGER, v INTEGER)`)
	s := e.NewSession()
	for i := 0; i < 100; i++ {
		if _, err := s.Execute(`INSERT INTO u VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i%10))); err != nil {
			t.Fatal(err)
		}
	}
	baseline := vecCount(t, e, `SELECT COUNT(*) FROM u WHERE v >= 5`)

	for _, dml := range []string{
		`DELETE FROM u WHERE v = 7`,
		`INSERT INTO u VALUES (999, 7)`,
		`UPDATE u SET v = 99 WHERE v = 7`,
	} {
		for _, sql := range []string{`BEGIN`, dml, `ROLLBACK`} {
			if _, err := s.Execute(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		if got := vecCount(t, e, `SELECT COUNT(*) FROM u WHERE v >= 5`); got != baseline {
			t.Fatalf("after rollback of %q: count = %d, want %d", dml, got, baseline)
		}
		// Full three-way equivalence after each undo shape.
		execAllPaths(t, e, `SELECT id, v FROM u WHERE v >= 5 ORDER BY id`)
	}
}

// TestChunkRebuildAfterDDL proves vector plans go stale with the
// schema epoch and re-plan correctly against the changed catalog.
func TestChunkRebuildAfterDDL(t *testing.T) {
	e := New("ddl")
	e.MustExec(`CREATE TABLE d (id INTEGER, v INTEGER)`)
	s := e.NewSession()
	for i := 0; i < 50; i++ {
		if _, err := s.Execute(`INSERT INTO d VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT COUNT(*) FROM d WHERE v > 25`
	if got := vecCount(t, e, q); got != 24 {
		t.Fatalf("count = %d", got)
	}
	// An ordered index on v moves the same query off the vector scan
	// (range access beats it) — the cached plan must not be reused.
	e.MustExec(`CREATE ORDERED INDEX d_v ON d (v)`)
	if got := vecCount(t, e, `SELECT COUNT(*) FROM d WHERE v > 25`); got != 24 {
		t.Fatalf("count after DDL = %d", got)
	}
	execAllPaths(t, e, `SELECT id FROM d WHERE v > 25 ORDER BY id`)
}

// TestChunkHeterogeneousAppend makes sure a column whose stored values
// mix widths (INTEGER column fed BIGINT-typed values, say) degrades
// safely: push refuses the mismatch and the table permanently falls
// back to row execution rather than mis-typing a vector.
func TestChunkHeterogeneousAppend(t *testing.T) {
	e := New("hetero")
	e.MustExec(`CREATE TABLE m (v DOUBLE)`)
	s := e.NewSession()
	for i := 0; i < 10; i++ {
		if _, err := s.Execute(`INSERT INTO m VALUES (?)`, NewDouble(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Coerce guarantees homogeneous storage in practice; whatever the
	// layout, results must match the interpreter.
	execAllPaths(t, e, `SELECT v FROM m WHERE v > 4.5`)
	execAllPaths(t, e, `SELECT SUM(v), AVG(v) FROM m`)
}
