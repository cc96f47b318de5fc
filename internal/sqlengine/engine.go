package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// IsolationLevel enumerates the ANSI transaction isolation levels,
// mirroring the values of the DAIS TransactionIsolation property.
type IsolationLevel int

// Isolation levels, weakest first.
const (
	ReadUncommitted IsolationLevel = iota
	ReadCommitted
	RepeatableRead
	Serializable
)

// String returns the SQL name of the isolation level.
func (l IsolationLevel) String() string {
	switch l {
	case ReadUncommitted:
		return "READ UNCOMMITTED"
	case ReadCommitted:
		return "READ COMMITTED"
	case RepeatableRead:
		return "REPEATABLE READ"
	case Serializable:
		return "SERIALIZABLE"
	}
	return fmt.Sprintf("IsolationLevel(%d)", int(l))
}

// ParseIsolationLevel resolves a level name (case/format tolerant).
func ParseIsolationLevel(s string) (IsolationLevel, error) {
	switch strings.ToUpper(strings.NewReplacer("-", " ", "_", " ").Replace(strings.TrimSpace(s))) {
	case "READ UNCOMMITTED", "READUNCOMMITTED":
		return ReadUncommitted, nil
	case "READ COMMITTED", "READCOMMITTED":
		return ReadCommitted, nil
	case "REPEATABLE READ", "REPEATABLEREAD":
		return RepeatableRead, nil
	case "SERIALIZABLE":
		return Serializable, nil
	}
	return ReadCommitted, fmt.Errorf("unknown isolation level %q", s)
}

// SQLCA is the SQL communication area returned with every WS-DAIR
// response (paper Fig. 2: "the SQL realisation extends the message
// pattern to also include information from the SQL communication
// area").
type SQLCA struct {
	SQLState    string // five-character SQLSTATE
	SQLCode     int    // 0 success, 100 no data, negative on error
	Message     string
	UpdateCount int
	RowsFetched int
}

// Common SQLSTATE values.
const (
	StateSuccess       = "00000"
	StateNoData        = "02000"
	StateSyntax        = "42000"
	StateConstraint    = "23000"
	StateSerialization = "40001"
	StateInvalidTxn    = "25000"
	StateCancelled     = "57014"
	StateGeneral       = "HY000"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Set is non-nil for queries.
	Set *ResultSet
	// UpdateCount is the number of rows affected by DML; -1 for queries
	// and DDL.
	UpdateCount int
	CA          SQLCA
}

// Engine wraps a Database with session, transaction and locking
// machinery. One Engine corresponds to one "externally managed data
// resource" in DAIS terms.
type Engine struct {
	db    *Database
	locks *lockManager
	plans *planCache // nil when caching is disabled
}

// Option configures engine construction.
type Option func(*Engine)

// WithLockTimeout sets the lock-wait timeout used to break deadlocks.
func WithLockTimeout(d time.Duration) Option {
	return func(e *Engine) { e.locks.timeout = d }
}

// VectorStats is a point-in-time snapshot of columnar execution
// counters.
type VectorStats struct {
	// Batches is the number of column chunks evaluated by vector
	// kernels.
	Batches uint64
	// ChunksSkipped is the number of column chunks eliminated by
	// zone-map analysis without touching their vectors: no row can match
	// the predicate, or enter a bounded top-K's heap.
	ChunksSkipped uint64
	// ChunksRebuilt is the number of column chunks built or rebuilt from
	// the row store: a table's whole set on its first vectorised scan,
	// afterwards one per chunk a write touched.
	ChunksRebuilt uint64
	// Fallbacks is the number of executions planned on the kernels that
	// ran on the row operators, or whose chunk feeder abandoned its fold
	// for the row feeder — an operand that did not bind, column chunks
	// that could not be built, a zero divisor on a selected row. It tells
	// "planned" from "actually ran on kernels".
	Fallbacks uint64
	// PartialsReused is the number of pages a grouped fold answered from
	// the page's stored partial aggregates instead of reading its rows
	// (each is also counted in Batches).
	PartialsReused uint64
}

// VectorStats returns the engine's columnar execution counters.
func (e *Engine) VectorStats() VectorStats {
	return VectorStats{
		Batches:        e.db.vecBatches.Load(),
		ChunksSkipped:  e.db.vecSkipped.Load(),
		ChunksRebuilt:  e.db.vecRebuilt.Load(),
		Fallbacks:      e.db.vecFallbacks.Load(),
		PartialsReused: e.db.vecPartials.Load(),
	}
}

// New creates an empty engine whose database has the given name.
func New(name string, opts ...Option) *Engine {
	e := &Engine{
		db:    NewDatabase(name),
		locks: newLockManager(2 * time.Second),
		plans: newPlanCache(defaultPlanCacheSize),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Database exposes catalog metadata (table names, schemas, indexes).
func (e *Engine) Database() *Database { return e.db }

// NewSession opens a session with READ COMMITTED isolation.
func (e *Engine) NewSession() *Session {
	return &Session{engine: e, isolation: ReadCommitted}
}

// Exec is a convenience for one-shot statements on a throwaway session.
func (e *Engine) Exec(sql string, params ...Value) (*Result, error) {
	return e.NewSession().Execute(sql, params...)
}

// MustExec executes and panics on error; intended for test and example
// seeding only.
func (e *Engine) MustExec(sql string, params ...Value) *Result {
	r, err := e.Exec(sql, params...)
	if err != nil {
		panic(fmt.Sprintf("sqlengine: %s: %v", sql, err))
	}
	return r
}

// Session is a connection-like execution context owning at most one
// open transaction. Sessions are not safe for concurrent use by
// multiple goroutines; open one session per consumer.
type Session struct {
	engine    *Engine
	isolation IsolationLevel
	inTxn     bool
	undo      []undoEntry
	aborted   bool

	// prep threads the compiled plans of the statement currently being
	// executed from ExecutePrepared down to run().
	prep *Prepared
}

// SetIsolation changes the isolation level for subsequent transactions.
// It is an error to change the level inside an open transaction.
func (s *Session) SetIsolation(l IsolationLevel) error {
	if s.inTxn {
		return errors.New("cannot change isolation inside a transaction")
	}
	s.isolation = l
	return nil
}

// Isolation returns the session's isolation level.
func (s *Session) Isolation() IsolationLevel { return s.isolation }

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.inTxn }

// Execute parses and runs one statement, returning its result. SQL
// errors are reflected both in the error and in Result.CA so service
// layers can ship the communication area regardless.
func (s *Session) Execute(sql string, params ...Value) (*Result, error) {
	return s.ExecuteContext(context.Background(), sql, params...)
}

// ExecuteContext is Execute under a context: long scans observe
// cancellation at row granularity and return a *CancelledError wrapping
// the context error.
func (s *Session) ExecuteContext(ctx context.Context, sql string, params ...Value) (*Result, error) {
	prep, err := s.engine.Prepare(sql)
	if err != nil {
		return errResult(StateSyntax, err), err
	}
	return s.ExecutePrepared(ctx, prep, params...)
}

// ExecutePrepared runs a statement prepared by Engine.Prepare, its SELECT
// blocks on the plans the Prepared holds for them. When the schema has
// moved since they were built, the statement is planned again, once, as
// it starts.
func (s *Session) ExecutePrepared(ctx context.Context, prep *Prepared, params ...Value) (*Result, error) {
	if err := prep.checkParams(params); err != nil {
		return errResult(StateSyntax, err), err
	}
	s.prep = prep
	defer func() { s.prep = nil }()
	st := prep.stmt
	switch st.(type) {
	case *BeginStmt:
		return s.begin()
	case *CommitStmt:
		return s.commit()
	case *RollbackStmt:
		return s.rollback()
	}
	if s.aborted {
		err := errors.New("transaction is aborted; ROLLBACK required")
		return errResult(StateInvalidTxn, err), err
	}
	implicit := !s.inTxn
	res, err := s.run(ctx, st, params)
	if err != nil {
		if implicit {
			// Auto-commit statement failed: undo its partial effects.
			s.engine.db.mu.Lock()
			s.engine.db.applyUndo(s.undo)
			s.engine.db.mu.Unlock()
			s.undo = nil
			s.engine.locks.releaseAll(s)
		} else {
			var lt *errLockTimeout
			if errors.As(err, &lt) {
				// Serialization failure: abort the transaction.
				s.aborted = true
			}
		}
		return res, err
	}
	if implicit {
		s.undo = nil
		s.engine.locks.releaseAll(s)
	} else if s.isolation <= ReadCommitted {
		s.engine.locks.releaseShared(s)
	}
	return res, nil
}

func (s *Session) begin() (*Result, error) {
	if s.inTxn {
		err := errors.New("transaction already open")
		return errResult(StateInvalidTxn, err), err
	}
	s.inTxn = true
	s.aborted = false
	s.undo = nil
	return okResult(-1), nil
}

func (s *Session) commit() (*Result, error) {
	if !s.inTxn {
		err := errors.New("no transaction open")
		return errResult(StateInvalidTxn, err), err
	}
	if s.aborted {
		s.engine.db.mu.Lock()
		s.engine.db.applyUndo(s.undo)
		s.engine.db.mu.Unlock()
		s.finishTxn()
		err := errors.New("transaction was aborted and has been rolled back")
		return errResult(StateInvalidTxn, err), err
	}
	s.finishTxn()
	return okResult(-1), nil
}

func (s *Session) rollback() (*Result, error) {
	if !s.inTxn {
		err := errors.New("no transaction open")
		return errResult(StateInvalidTxn, err), err
	}
	s.engine.db.mu.Lock()
	s.engine.db.applyUndo(s.undo)
	s.engine.db.mu.Unlock()
	s.finishTxn()
	return okResult(-1), nil
}

func (s *Session) finishTxn() {
	s.inTxn = false
	s.aborted = false
	s.undo = nil
	s.engine.locks.releaseAll(s)
}

// run executes a single non-transaction-control statement.
func (s *Session) run(ctx context.Context, st Statement, params []Value) (*Result, error) {
	db := s.engine.db
	switch n := st.(type) {
	case *SelectStmt:
		if err := s.lockForRead(n); err != nil {
			return errResult(StateSerialization, err), err
		}
		db.mu.RLock()
		set, err := db.runSelect(n, &evalEnv{params: params, ctx: ctx, plans: s.blocks(n)})
		db.mu.RUnlock()
		if err != nil {
			return errResult(stateFor(err), err), err
		}
		ca := SQLCA{SQLState: StateSuccess, UpdateCount: -1, RowsFetched: len(set.Rows)}
		if len(set.Rows) == 0 {
			ca.SQLState = StateNoData
			ca.SQLCode = 100
		}
		return &Result{Set: set, UpdateCount: -1, CA: ca}, nil
	case *InsertStmt:
		return s.runDML(n, n.Table, func() (int, []undoEntry, error) { return db.execInsert(ctx, n, params, s.blocks(n)) })
	case *UpdateStmt:
		return s.runDML(n, n.Table, func() (int, []undoEntry, error) { return db.execUpdate(ctx, n, params, s.blocks(n)) })
	case *DeleteStmt:
		return s.runDML(n, n.Table, func() (int, []undoEntry, error) { return db.execDelete(ctx, n, params, s.blocks(n)) })
	case *CreateTableStmt:
		return s.runDDL(func() error { return db.createTable(n) })
	case *DropTableStmt:
		return s.runDDL(func() error { return db.dropTable(n) })
	case *CreateViewStmt:
		return s.runDDL(func() error { return db.createView(n) })
	case *DropViewStmt:
		return s.runDDL(func() error { return db.dropView(n) })
	case *CreateIndexStmt:
		return s.runDDL(func() error { return db.createIndex(n) })
	case *DropIndexStmt:
		return s.runDDL(func() error { return db.dropIndex(n) })
	case *ExplainStmt:
		db.mu.RLock()
		lines := db.explainStatement(n.Stmt)
		db.mu.RUnlock()
		set := &ResultSet{Columns: []ResultColumn{{Name: "plan", Type: TypeVarchar}}}
		for _, l := range lines {
			set.Rows = append(set.Rows, []Value{NewString(l)})
		}
		ca := SQLCA{SQLState: StateSuccess, UpdateCount: -1, RowsFetched: len(set.Rows)}
		return &Result{Set: set, UpdateCount: -1, CA: ca}, nil
	}
	err := fmt.Errorf("unsupported statement %T", st)
	return errResult(StateGeneral, err), err
}

// runDML runs an INSERT, UPDATE or DELETE of table under its exclusive
// lock, and the SELECT blocks it nests under shared locks.
func (s *Session) runDML(st Statement, table string, f func() (int, []undoEntry, error)) (*Result, error) {
	if err := s.engine.locks.acquire(s, strings.ToLower(table), lockExclusive); err != nil {
		return errResult(StateSerialization, err), err
	}
	if err := s.lockForRead(st); err != nil {
		return errResult(StateSerialization, err), err
	}
	db := s.engine.db
	db.mu.Lock()
	n, undo, err := f()
	if err != nil {
		// Undo this statement's partial effects immediately; statement
		// atomicity holds inside explicit transactions too.
		db.applyUndo(undo)
		db.mu.Unlock()
		return errResult(stateFor(err), err), err
	}
	db.mu.Unlock()
	s.undo = append(s.undo, undo...)
	res := okResult(n)
	if n == 0 {
		res.CA.SQLState = StateNoData
		res.CA.SQLCode = 100
	}
	return res, nil
}

func (s *Session) runDDL(f func() error) (*Result, error) {
	if s.inTxn {
		err := errors.New("DDL is not allowed inside a transaction")
		return errResult(StateInvalidTxn, err), err
	}
	db := s.engine.db
	db.mu.Lock()
	err := f()
	db.mu.Unlock()
	if err != nil {
		return errResult(stateFor(err), err), err
	}
	return okResult(-1), nil
}

// blocks returns the plans the statement's SELECT blocks — and an UPDATE
// or DELETE its table — run by: the ones threaded through ExecutePrepared
// while they belong to exactly this statement and the schema has not
// moved since they were built, else the statement's blocks planned again
// — once, under the database latch the caller holds, so no block of it is
// planned per row. A literal INSERT, which Prepare leaves unplanned, has
// none unless a default of its table nests one.
func (s *Session) blocks(n Statement) *blockPlans {
	db := s.engine.db
	if p := s.prep; p != nil && p.stmt == n {
		if p.blocks != nil && p.blocks.epoch == db.epoch {
			return p.blocks
		}
		if ins, ok := n.(*InsertStmt); ok && p.blocks == nil && !db.defaultsNestBlock(ins.Table) {
			return nil
		}
	}
	return db.planStatement(n)
}

// Explain describes the physical plan the engine would use for one
// statement: every SELECT block's plan, how an UPDATE or DELETE lists its
// target rows, and the path any other statement takes. It never
// executes the statement.
func (s *Session) Explain(sql string) ([]string, error) {
	st, _, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if ex, ok := st.(*ExplainStmt); ok {
		st = ex.Stmt
	}
	db := s.engine.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.explainStatement(st), nil
}

// lockForRead acquires shared locks on the tables a statement's SELECT
// blocks read (readTables) according to the isolation level: READ
// UNCOMMITTED takes none (dirty reads allowed); everything stronger takes
// shared locks, whose release policy in ExecutePrepared distinguishes
// READ COMMITTED from REPEATABLE READ/SERIALIZABLE.
func (s *Session) lockForRead(st Statement) error {
	if s.isolation == ReadUncommitted {
		return nil
	}
	for _, t := range s.engine.db.readTables(st) {
		if err := s.engine.locks.acquire(s, t, lockShared); err != nil {
			return err
		}
	}
	return nil
}

// tablesOfSelect calls f for every table a SELECT names, in union arms
// and subqueries too.
func tablesOfSelect(st *SelectStmt, f func(string)) {
	sub := func(s *SelectStmt) { tablesOfSelect(s, f) }
	eachPart(st, func(tr *TableRef) {
		if tr.Subquery != nil {
			sub(tr.Subquery)
			return
		}
		f(tr.Table)
	}, func(e Expr) { forEachSubquery(e, sub) }, sub)
}

func okResult(updateCount int) *Result {
	return &Result{
		UpdateCount: updateCount,
		CA:          SQLCA{SQLState: StateSuccess, UpdateCount: updateCount},
	}
}

func errResult(state string, err error) *Result {
	return &Result{
		UpdateCount: -1,
		CA:          SQLCA{SQLState: state, SQLCode: -1, Message: err.Error(), UpdateCount: -1},
	}
}

// stateFor maps engine errors to SQLSTATE classes.
func stateFor(err error) string {
	var ce *CancelledError
	if errors.As(err, &ce) {
		return StateCancelled
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unique constraint"), strings.Contains(msg, "may not be NULL"):
		return StateConstraint
	case strings.Contains(msg, "lock wait timeout"):
		return StateSerialization
	case strings.Contains(msg, "does not exist"), strings.Contains(msg, "unknown column"),
		strings.Contains(msg, "not in table"):
		return StateSyntax
	}
	return StateGeneral
}
