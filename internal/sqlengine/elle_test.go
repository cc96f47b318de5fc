package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// An Elle-style checker (Kingsbury & Alvaro, VLDB 2020) for the
// isolation levels: concurrent sessions run short random transactions of
// list appends and reads at one level, and the history is searched for
// the anomalies of Adya's classes that level excludes. Keys are lists:
// an append is a row (k, seq, v) of la, a read lists k's values by seq.
// Every write takes la's exclusive lock and keeps it to the end of its
// transaction, so a transaction draws its seqs only once it holds that
// lock: seq order is then the order writers commit in, and the final
// read of a key is its version order.

// elleOp is one operation of a transaction and what it observed.
type elleOp struct {
	append bool
	k, v   int64
	// A read observes k's list (read; in value order when unordered), or
	// every key's length (counts, a predicate read).
	read      []int64
	unordered bool
	counts    map[int64]int
}

type elleTxn struct {
	ops       []elleOp
	committed bool
}

// elleKeys is the number of lists a history appends to.
const elleKeys = 5

// elleRun is one level's history and what produced it.
type elleRun struct {
	e     *Engine
	level IsolationLevel

	seq, tag atomic.Int64
	vals     [elleKeys]atomic.Int64 // per key: the values appended to it
	mu       sync.Mutex
	txns     []*elleTxn
}

const elleSetup = `CREATE TABLE la (k INTEGER, seq INTEGER, v INTEGER);
CREATE TABLE lc (tag INTEGER, seq INTEGER, v INTEGER);
CREATE TABLE nums (n INTEGER PRIMARY KEY);
CREATE VIEW lv AS SELECT k, seq, v FROM la`

// elleValues bounds the values a history appends to one key: key k's are
// k*1000+1 up to k*1000+elleValues, and nums holds every one of them.
const elleValues = 150

func newElleRun(t *testing.T, level IsolationLevel) *elleRun {
	e := New("elle", WithLockTimeout(20*time.Millisecond))
	for _, sql := range strings.Split(elleSetup, ";") {
		e.MustExec(sql)
	}
	h := &elleRun{e: e, level: level}
	var nums []string
	for k := int64(0); k < elleKeys; k++ {
		for n := int64(1); n <= elleValues; n++ {
			nums = append(nums, fmt.Sprint(k*1000+n))
		}
	}
	e.MustExec(`INSERT INTO nums VALUES (` + strings.Join(nums, "), (") + `)`)
	return h
}

// session runs txns random transactions on one session.
func (h *elleRun) session(t *testing.T, r *rand.Rand, txns int) {
	s := h.e.NewSession()
	if err := s.SetIsolation(h.level); err != nil {
		t.Error(err)
		return
	}
	for i := 0; i < txns; i++ {
		txn := &elleTxn{}
		err := h.txn(s, r, txn)
		switch {
		case err == nil && r.Intn(8) > 0:
			_, err = s.Execute(`COMMIT`)
			txn.committed = err == nil
		default:
			var abort *abortError
			if err != nil && !errors.As(err, &abort) {
				t.Errorf("%s: %v", h.level, err)
			}
			if _, err := s.Execute(`ROLLBACK`); err != nil {
				t.Errorf("%s: ROLLBACK: %v", h.level, err)
			}
		}
		h.mu.Lock()
		h.txns = append(h.txns, txn)
		h.mu.Unlock()
	}
}

// abortError marks a statement the transaction aborts on: a 40001 lock
// timeout. Any other failure is a defect of the test or the engine.
type abortError struct{ error }

func (h *elleRun) exec(s *Session, sql string, params ...Value) (*Result, error) {
	res, err := s.Execute(sql, params...)
	if err != nil {
		if res != nil && res.CA.SQLState == StateSerialization {
			return nil, &abortError{err}
		}
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return res, nil
}

func (h *elleRun) txn(s *Session, r *rand.Rand, txn *elleTxn) error {
	if _, err := s.Execute(`BEGIN`); err != nil {
		return err
	}
	locked := false
	for n := 1 + r.Intn(4); n > 0; n-- {
		k := r.Int63n(elleKeys)
		op := elleOp{k: k}
		var err error
		if r.Intn(5) < 2 {
			if !locked {
				// The exclusive lock first, then the seq: see the package note.
				if _, err = h.exec(s, `DELETE FROM la WHERE k < 0`); err != nil {
					return err
				}
				locked = true
			}
			i := h.vals[k].Add(1)
			if i > elleValues {
				return fmt.Errorf("more than %d appends to key %d", elleValues, k)
			}
			op.append, op.v = true, k*1000+i
			_, err = h.exec(s, `INSERT INTO la VALUES (?, ?, ?)`, NewInt(k), NewInt(h.seq.Add(1)), NewInt(op.v))
		} else {
			err = h.read(s, r, &op)
		}
		txn.ops = append(txn.ops, op)
		if err != nil {
			txn.ops = txn.ops[:len(txn.ops)-1]
			return err
		}
	}
	return nil
}

// read runs one read in a random lock-sensitive shape.
func (h *elleRun) read(s *Session, r *rand.Rand, op *elleOp) error {
	k := NewInt(op.k)
	list := func(res *Result) {
		op.read = []int64{}
		for _, row := range res.Set.Rows {
			op.read = append(op.read, row[0].I)
		}
	}
	switch r.Intn(6) {
	case 0:
		res, err := h.exec(s, `SELECT v FROM la WHERE k = ? ORDER BY seq`, k)
		if err != nil {
			return err
		}
		list(res)
	case 1:
		res, err := h.exec(s, `SELECT v FROM lv WHERE k = ? ORDER BY seq`, k)
		if err != nil {
			return err
		}
		list(res)
	case 2:
		res, err := h.exec(s, `SELECT x.v FROM (SELECT seq, v FROM la WHERE k = ?) x ORDER BY x.seq`, k)
		if err != nil {
			return err
		}
		list(res)
	case 3: // la only in a subquery: k's values, in value order
		res, err := h.exec(s, `SELECT n FROM nums WHERE n BETWEEN ? AND ? AND n IN (SELECT v FROM la WHERE k = ?) ORDER BY n`,
			NewInt(op.k*1000+1), NewInt(op.k*1000+elleValues), k)
		if err != nil {
			return err
		}
		list(res)
		op.unordered = true
	case 4:
		tag := NewInt(h.tag.Add(1))
		if _, err := h.exec(s, `INSERT INTO lc SELECT ?, seq, v FROM la WHERE k = ?`, tag, k); err != nil {
			return err
		}
		res, err := h.exec(s, `SELECT v FROM lc WHERE tag = ? ORDER BY seq`, tag)
		if err != nil {
			return err
		}
		list(res)
	default:
		res, err := h.exec(s, `SELECT k, COUNT(*) FROM la GROUP BY k`)
		if err != nil {
			return err
		}
		op.counts = map[int64]int{}
		for _, row := range res.Set.Rows {
			op.counts[row[0].I] = int(row[1].I)
		}
	}
	return nil
}

// elleGraph is the dependency graph over committed transactions, one
// edge set per kind.
type elleGraph struct {
	ww, wr, rwItem, rw map[[2]int]bool
}

// check returns the anomalies the history holds that the level excludes:
// READ UNCOMMITTED excludes G0 (write cycles); READ COMMITTED also G1a
// (aborted reads), G1b (intermediate reads) and G1c (cycles of write and
// read dependencies), and reads that are no prefix of their key's version
// order; REPEATABLE READ also G2-item (cycles through item
// anti-dependencies); SERIALIZABLE also G2 (through predicate ones too).
func (h *elleRun) check(final map[int64][]int64) []string {
	writer := map[int64]int{}      // value → its transaction
	lastOf := map[[2]int64]int64{} // (txn, k) → the transaction's last value appended to k
	for i, txn := range h.txns {
		for _, op := range txn.ops {
			if op.append {
				writer[op.v] = i
				lastOf[[2]int64{int64(i), op.k}] = op.v
			}
		}
	}
	var found []string
	report := func(class string, format string, args ...any) {
		found = append(found, class+": "+fmt.Sprintf(format, args...))
	}
	g := elleGraph{ww: map[[2]int]bool{}, wr: map[[2]int]bool{}, rwItem: map[[2]int]bool{}, rw: map[[2]int]bool{}}
	for _, vs := range final {
		for j := 1; j < len(vs); j++ {
			if a, b := writer[vs[j-1]], writer[vs[j]]; a != b {
				g.ww[[2]int{a, b}] = true
			}
		}
	}
	weak := h.level == ReadUncommitted
	// observe records that txn i saw the first n versions of k.
	observe := func(i int, k int64, n int, item bool) {
		vs := final[k]
		if n > 0 && n <= len(vs) && writer[vs[n-1]] != i {
			g.wr[[2]int{writer[vs[n-1]], i}] = true
		}
		if n < len(vs) && writer[vs[n]] != i {
			g.rw[[2]int{i, writer[vs[n]]}] = true
			if item {
				g.rwItem[[2]int{i, writer[vs[n]]}] = true
			}
		}
	}
	for i, txn := range h.txns {
		if !txn.committed || weak {
			continue
		}
		own := map[int64]int{} // k → this transaction's appends to it so far
		for _, op := range txn.ops {
			switch {
			case op.append:
				own[op.k]++
			case op.read != nil:
				var seen []int64
				for _, v := range op.read {
					w, ok := writer[v]
					switch {
					case !ok:
						report("G1a", "txn %d read %d from key %d, which nobody appended", i, v, op.k)
					case !h.txns[w].committed && w != i:
						report("G1a", "txn %d read %d from key %d, appended by aborted txn %d", i, v, op.k, w)
					case w != i:
						seen = append(seen, v)
					}
				}
				for _, v := range seen {
					if last := lastOf[[2]int64{int64(writer[v]), op.k}]; !slices.Contains(seen, last) {
						report("G1b", "txn %d read %v of key %d: txn %d's intermediate append %d without its last, %d", i, op.read, op.k, writer[v], v, last)
						break
					}
				}
				vs := final[op.k]
				prefix := len(seen) <= len(vs)
				if prefix && op.unordered {
					sorted := slices.Clone(vs[:len(seen)])
					slices.Sort(sorted)
					prefix = slices.Equal(seen, sorted)
				} else if prefix {
					prefix = slices.Equal(seen, vs[:len(seen)])
				}
				if !prefix {
					report("G1 (incompatible order)", "txn %d read %v of key %d, no prefix of its version order %v", i, op.read, op.k, vs)
					continue
				}
				observe(i, op.k, len(seen), true)
			case op.counts != nil:
				for k := int64(0); k < elleKeys; k++ {
					n := op.counts[k] - own[k]
					if n < 0 || n > len(final[k]) {
						report("G1 (incompatible order)", "txn %d counted %d rows of key %d, whose version order holds %d", i, op.counts[k], k, len(final[k]))
						continue
					}
					observe(i, k, n, false)
				}
			}
		}
	}
	cycles := []struct {
		class string
		edges []map[[2]int]bool
		from  IsolationLevel
	}{
		{"G0", []map[[2]int]bool{g.ww}, ReadUncommitted},
		{"G1c", []map[[2]int]bool{g.ww, g.wr}, ReadCommitted},
		{"G2-item", []map[[2]int]bool{g.ww, g.wr, g.rwItem}, RepeatableRead},
		{"G2", []map[[2]int]bool{g.ww, g.wr, g.rw}, Serializable},
	}
	for _, c := range cycles {
		if h.level < c.from {
			continue
		}
		if cycle := findCycle(len(h.txns), c.edges); cycle != nil {
			report(c.class, "dependency cycle through txns %v", cycle)
		}
	}
	return found
}

// findCycle returns the transactions of one cycle in the union of the
// edge sets, or nil.
func findCycle(n int, sets []map[[2]int]bool) []int {
	adj := make([][]int, n)
	for _, set := range sets {
		for e := range set {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	for _, a := range adj {
		slices.Sort(a)
	}
	state := make([]int8, n) // 0 unvisited, 1 on the stack, 2 done
	var stack []int
	var cycle []int
	var visit func(int) bool
	visit = func(u int) bool {
		state[u] = 1
		stack = append(stack, u)
		for _, w := range adj[u] {
			if state[w] == 1 {
				cycle = append(slices.Clone(stack[slices.Index(stack, w):]), w)
				return true
			}
			if state[w] == 0 && visit(w) {
				return true
			}
		}
		stack = stack[:len(stack)-1]
		state[u] = 2
		return false
	}
	for u := 0; u < n; u++ {
		if state[u] == 0 && visit(u) {
			return cycle
		}
	}
	return nil
}

// runElle runs one seeded history at a level and returns its anomalies.
func runElle(t *testing.T, level IsolationLevel, seed int64, sessions, txns int) []string {
	h := newElleRun(t, level)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		r := rand.New(rand.NewSource(seed*100 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.session(t, r, txns)
		}()
	}
	wg.Wait()
	final := map[int64][]int64{}
	for k := int64(0); k < elleKeys; k++ {
		final[k] = []int64{}
		for _, row := range h.e.MustExec(`SELECT v FROM la WHERE k = ? ORDER BY seq`, NewInt(k)).Set.Rows {
			final[k] = append(final[k], row[0].I)
		}
	}
	return h.check(final)
}

// TestIsolationHistories runs seeded list-append histories at every
// isolation level and requires each to exclude its anomalies. The
// interleaving is the scheduler's, so a seed names the transactions, not
// the history. The first seeds of each level are the ones whose histories
// showed G1a and G2-item anomalies when an INSERT … SELECT read its
// source without shared locks, in 2 to 8 of 40 runs a level.
func TestIsolationHistories(t *testing.T) {
	found := map[IsolationLevel][]int64{ReadCommitted: {16, 26}, RepeatableRead: {2, 14}, Serializable: {2, 4}}
	for _, level := range []IsolationLevel{ReadUncommitted, ReadCommitted, RepeatableRead, Serializable} {
		t.Run(level.String(), func(t *testing.T) {
			for _, seed := range append(found[level], 1, 3, 5) {
				if anomalies := runElle(t, level, seed, 4, 50); len(anomalies) > 0 {
					t.Fatalf("seed %d: %d anomalies, first: %s", seed, len(anomalies), anomalies[0])
				}
			}
		})
	}
}
