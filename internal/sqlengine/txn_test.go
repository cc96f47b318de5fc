package sqlengine

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCommitPersists(t *testing.T) {
	e := seedEmployees(t)
	s := e.NewSession()
	mustSess(t, s, `BEGIN`)
	mustSess(t, s, `UPDATE emp SET salary = 1 WHERE id = 1`)
	mustSess(t, s, `COMMIT`)
	rows := queryStrings(t, e, `SELECT salary FROM emp WHERE id = 1`)
	if rows[0][0] != "1" {
		t.Fatalf("rows = %v", rows)
	}
	if s.InTransaction() {
		t.Fatal("txn should be closed")
	}
}

func TestRollbackUndoes(t *testing.T) {
	e := seedEmployees(t)
	s := e.NewSession()
	mustSess(t, s, `BEGIN`)
	mustSess(t, s, `UPDATE emp SET salary = 1 WHERE id = 1`)
	mustSess(t, s, `INSERT INTO emp (id, name) VALUES (100, 'temp')`)
	mustSess(t, s, `DELETE FROM emp WHERE id = 2`)
	mustSess(t, s, `ROLLBACK`)

	rows := queryStrings(t, e, `SELECT salary FROM emp WHERE id = 1`)
	if rows[0][0] != "120000" {
		t.Fatalf("update not undone: %v", rows)
	}
	if n, _ := e.Database().TableRowCount("emp"); n != 5 {
		t.Fatalf("rowcount = %d", n)
	}
	rows = queryStrings(t, e, `SELECT name FROM emp WHERE id = 2`)
	if len(rows) != 1 || rows[0][0] != "bob" {
		t.Fatalf("delete not undone: %v", rows)
	}
}

func TestRollbackPreservesRowOrder(t *testing.T) {
	e := New("t")
	e.MustExec(`CREATE TABLE seq (v INTEGER)`)
	e.MustExec(`INSERT INTO seq VALUES (1), (2), (3)`)
	s := e.NewSession()
	mustSess(t, s, `BEGIN`)
	mustSess(t, s, `DELETE FROM seq WHERE v = 2`)
	mustSess(t, s, `ROLLBACK`)
	rows := queryStrings(t, e, `SELECT v FROM seq`)
	if rows[0][0] != "1" || rows[1][0] != "2" || rows[2][0] != "3" {
		t.Fatalf("order lost after rollback: %v", rows)
	}
}

func TestTxnStateErrors(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	if _, err := s.Execute(`COMMIT`); err == nil {
		t.Fatal("commit without begin")
	}
	if _, err := s.Execute(`ROLLBACK`); err == nil {
		t.Fatal("rollback without begin")
	}
	mustSess(t, s, `BEGIN`)
	if _, err := s.Execute(`BEGIN`); err == nil {
		t.Fatal("nested begin")
	}
	if err := s.SetIsolation(Serializable); err == nil {
		t.Fatal("isolation change inside txn")
	}
	if _, err := s.Execute(`CREATE TABLE x (a INTEGER)`); err == nil {
		t.Fatal("DDL inside txn")
	}
	mustSess(t, s, `ROLLBACK`)
	if err := s.SetIsolation(Serializable); err != nil {
		t.Fatal(err)
	}
	if s.Isolation() != Serializable {
		t.Fatal("isolation not set")
	}
}

func TestAutoCommitFailureUndone(t *testing.T) {
	e := New("t")
	e.MustExec(`CREATE TABLE u (id INTEGER PRIMARY KEY)`)
	e.MustExec(`INSERT INTO u VALUES (1)`)
	// Multi-row insert where the second row violates: nothing persists.
	if _, err := e.Exec(`INSERT INTO u VALUES (2), (1)`); err == nil {
		t.Fatal("expected violation")
	}
	if n, _ := e.Database().TableRowCount("u"); n != 1 {
		t.Fatalf("rowcount = %d", n)
	}
}

func TestStatementAtomicityInsideTxn(t *testing.T) {
	e := New("t")
	e.MustExec(`CREATE TABLE u (id INTEGER PRIMARY KEY)`)
	e.MustExec(`INSERT INTO u VALUES (1)`)
	s := e.NewSession()
	mustSess(t, s, `BEGIN`)
	mustSess(t, s, `INSERT INTO u VALUES (10)`)
	// This statement fails halfway; only ITS effects are undone.
	if _, err := s.Execute(`INSERT INTO u VALUES (11), (1)`); err == nil {
		t.Fatal("expected violation")
	}
	mustSess(t, s, `COMMIT`)
	rows := queryStrings(t, e, `SELECT id FROM u ORDER BY id`)
	if len(rows) != 2 || rows[1][0] != "10" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestDirtyReadAtReadUncommitted(t *testing.T) {
	e := seedEmployees(t)
	writer := e.NewSession()
	reader := e.NewSession()
	if err := reader.SetIsolation(ReadUncommitted); err != nil {
		t.Fatal(err)
	}
	mustSess(t, writer, `BEGIN`)
	mustSess(t, writer, `UPDATE emp SET salary = 777 WHERE id = 1`)

	res, err := reader.Execute(`SELECT salary FROM emp WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Rows[0][0].String() != "777" {
		t.Fatalf("expected dirty read, got %v", res.Set.Rows[0][0])
	}
	mustSess(t, writer, `ROLLBACK`)
	res, _ = reader.Execute(`SELECT salary FROM emp WHERE id = 1`)
	if res.Set.Rows[0][0].String() != "120000" {
		t.Fatal("rollback not visible")
	}
}

func TestNoDirtyReadAtReadCommitted(t *testing.T) {
	e := New("t", WithLockTimeout(100*time.Millisecond))
	e.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	e.MustExec(`INSERT INTO acct VALUES (1, 100)`)

	writer := e.NewSession()
	reader := e.NewSession() // READ COMMITTED default
	mustSess(t, writer, `BEGIN`)
	mustSess(t, writer, `UPDATE acct SET bal = 0 WHERE id = 1`)

	// Reader blocks on the writer's exclusive lock and times out.
	_, err := reader.Execute(`SELECT bal FROM acct WHERE id = 1`)
	var lt *errLockTimeout
	if !errors.As(err, &lt) {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	mustSess(t, writer, `COMMIT`)
	res, err := reader.Execute(`SELECT bal FROM acct WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Rows[0][0].String() != "0" {
		t.Fatalf("committed value not visible: %v", res.Set.Rows[0][0])
	}
}

// TestReadLocksCoverEveryClause: a subquery reads its table under the
// statement's read lock wherever it sits — ORDER BY, LIMIT and OFFSET as
// much as WHERE and the select list — so a READ COMMITTED reader waits
// on an uncommitted UPDATE there too instead of reading it.
func TestReadLocksCoverEveryClause(t *testing.T) {
	e := New("t", WithLockTimeout(50*time.Millisecond))
	e.MustExec(`CREATE TABLE t (a INTEGER)`)
	e.MustExec(`CREATE TABLE u (b INTEGER)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	e.MustExec(`INSERT INTO u VALUES (1)`)

	writer := e.NewSession()
	mustSess(t, writer, `BEGIN`)
	mustSess(t, writer, `UPDATE u SET b = 2`)
	reader := e.NewSession() // READ COMMITTED default
	for _, sql := range []string{
		`SELECT a FROM t ORDER BY (SELECT MAX(b) FROM u) + a`,
		`SELECT a FROM t LIMIT (SELECT MAX(b) FROM u)`,
		`SELECT a FROM t OFFSET (SELECT MAX(b) FROM u)`,
		`SELECT a FROM t WHERE a > (SELECT MAX(b) FROM u)`,
		`SELECT a, (SELECT MAX(b) FROM u) FROM t`,
	} {
		_, err := reader.Execute(sql)
		var lt *errLockTimeout
		if !errors.As(err, &lt) {
			t.Errorf("%s: err = %v, want a lock timeout", sql, err)
		}
	}
	mustSess(t, writer, `ROLLBACK`)
}

func TestRepeatableReadHoldsLocks(t *testing.T) {
	e := New("t", WithLockTimeout(100*time.Millisecond))
	e.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	e.MustExec(`INSERT INTO acct VALUES (1, 100)`)

	reader := e.NewSession()
	if err := reader.SetIsolation(RepeatableRead); err != nil {
		t.Fatal(err)
	}
	writer := e.NewSession()
	mustSess(t, reader, `BEGIN`)
	if _, err := reader.Execute(`SELECT bal FROM acct`); err != nil {
		t.Fatal(err)
	}
	// Writer cannot modify while the repeatable reader holds its lock.
	_, err := writer.Execute(`UPDATE acct SET bal = 0`)
	var lt *errLockTimeout
	if !errors.As(err, &lt) {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	mustSess(t, reader, `COMMIT`)
	if _, err := writer.Execute(`UPDATE acct SET bal = 0`); err != nil {
		t.Fatal(err)
	}
}

func TestReadCommittedReleasesReadLocks(t *testing.T) {
	e := New("t", WithLockTimeout(100*time.Millisecond))
	e.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	e.MustExec(`INSERT INTO acct VALUES (1, 100)`)

	reader := e.NewSession() // READ COMMITTED
	writer := e.NewSession()
	mustSess(t, reader, `BEGIN`)
	if _, err := reader.Execute(`SELECT bal FROM acct`); err != nil {
		t.Fatal(err)
	}
	// Read lock released at statement end: writer proceeds.
	if _, err := writer.Execute(`UPDATE acct SET bal = 0`); err != nil {
		t.Fatalf("writer should not block: %v", err)
	}
	mustSess(t, reader, `COMMIT`)
}

func TestWriteConflictTimesOutAndAborts(t *testing.T) {
	e := New("t", WithLockTimeout(100*time.Millisecond))
	e.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	e.MustExec(`INSERT INTO acct VALUES (1, 100)`)

	a := e.NewSession()
	b := e.NewSession()
	mustSess(t, a, `BEGIN`)
	mustSess(t, b, `BEGIN`)
	mustSess(t, a, `UPDATE acct SET bal = 1`)
	res, err := b.Execute(`UPDATE acct SET bal = 2`)
	if err == nil {
		t.Fatal("expected conflict")
	}
	if res.CA.SQLState != StateSerialization {
		t.Fatalf("CA = %+v", res.CA)
	}
	// b is aborted: further statements refused until rollback.
	if _, err := b.Execute(`SELECT * FROM acct`); err == nil {
		t.Fatal("aborted txn should refuse work")
	}
	if _, err := b.Execute(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	mustSess(t, a, `COMMIT`)
	rows := queryStrings(t, e, `SELECT bal FROM acct`)
	if rows[0][0] != "1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCommitOfAbortedTxnRollsBack(t *testing.T) {
	e := New("t", WithLockTimeout(50*time.Millisecond))
	e.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	e.MustExec(`INSERT INTO acct VALUES (1, 100)`)
	a := e.NewSession()
	b := e.NewSession()
	mustSess(t, a, `BEGIN`)
	mustSess(t, b, `BEGIN`)
	mustSess(t, b, `UPDATE acct SET bal = 50`) // b writes first
	mustSess(t, a, `SELECT 1`)
	if _, err := a.Execute(`UPDATE acct SET bal = 75`); err == nil {
		t.Fatal("expected timeout for a")
	}
	// COMMIT of the aborted txn must report failure and roll back.
	if _, err := a.Execute(`COMMIT`); err == nil {
		t.Fatal("commit of aborted txn should fail")
	}
	mustSess(t, b, `COMMIT`)
	rows := queryStrings(t, e, `SELECT bal FROM acct`)
	if rows[0][0] != "50" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestConcurrentReaders(t *testing.T) {
	e := seedEmployees(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			for j := 0; j < 50; j++ {
				res, err := s.Execute(`SELECT COUNT(*) FROM emp`)
				if err != nil {
					errs <- err
					return
				}
				if res.Set.Rows[0][0].I != 5 {
					errs <- errors.New("wrong count")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	e := New("t", WithLockTimeout(5*time.Second))
	e.MustExec(`CREATE TABLE counter (n INTEGER)`)
	e.MustExec(`INSERT INTO counter VALUES (0)`)
	var wg sync.WaitGroup
	const writers, iters = 8, 20
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			for j := 0; j < iters; j++ {
				if _, err := s.Execute(`UPDATE counter SET n = n + 1`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rows := queryStrings(t, e, `SELECT n FROM counter`)
	if rows[0][0] != "160" {
		t.Fatalf("lost updates: n = %v", rows)
	}
}

// Property: for any sequence of inserted ints, SUM/COUNT/MIN/MAX agree
// with a direct computation.
func TestQuickAggregatesMatch(t *testing.T) {
	f := func(vals []int32) bool {
		e := New("q")
		e.MustExec(`CREATE TABLE v (x INTEGER)`)
		var sum int64
		mn, mx := int64(1<<62), int64(-1<<62)
		s := e.NewSession()
		for _, v := range vals {
			if _, err := s.Execute(`INSERT INTO v VALUES (?)`, NewInt(int64(v))); err != nil {
				return false
			}
			sum += int64(v)
			if int64(v) < mn {
				mn = int64(v)
			}
			if int64(v) > mx {
				mx = int64(v)
			}
		}
		res, err := s.Execute(`SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM v`)
		if err != nil {
			return false
		}
		r := res.Set.Rows[0]
		if r[0].I != int64(len(vals)) {
			return false
		}
		if len(vals) == 0 {
			return r[1].IsNull() && r[2].IsNull() && r[3].IsNull()
		}
		return r[1].I == sum && r[2].I == mn && r[3].I == mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: rollback is a perfect inverse — table contents before BEGIN
// and after ROLLBACK are identical for random update/delete batches.
func TestQuickRollbackInverse(t *testing.T) {
	f := func(seed []int16) bool {
		e := New("q")
		e.MustExec(`CREATE TABLE v (id INTEGER PRIMARY KEY, x INTEGER)`)
		for i := 0; i < 20; i++ {
			e.MustExec(`INSERT INTO v VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i*10)))
		}
		before := queryAll(e)
		s := e.NewSession()
		if _, err := s.Execute(`BEGIN`); err != nil {
			return false
		}
		for _, op := range seed {
			id := int64(abs16(op) % 20)
			switch op % 3 {
			case 0:
				s.Execute(`UPDATE v SET x = x + 1 WHERE id = ?`, NewInt(id))
			case 1:
				s.Execute(`DELETE FROM v WHERE id = ?`, NewInt(id))
			default:
				s.Execute(`INSERT INTO v VALUES (?, 0)`, NewInt(1000+id))
			}
		}
		if _, err := s.Execute(`ROLLBACK`); err != nil {
			return false
		}
		return queryAll(e) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func abs16(v int16) int {
	if v < 0 {
		if v == -32768 {
			return 32767
		}
		return int(-v)
	}
	return int(v)
}

func queryAll(e *Engine) string {
	res, err := e.Exec(`SELECT id, x FROM v ORDER BY id`)
	if err != nil {
		return "ERR:" + err.Error()
	}
	var b strings.Builder
	for _, r := range res.Set.Rows {
		b.WriteString(r[0].String())
		b.WriteByte('=')
		b.WriteString(r[1].String())
		b.WriteByte(';')
	}
	return b.String()
}

func mustSess(t *testing.T, s *Session, sql string) {
	t.Helper()
	if _, err := s.Execute(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
