package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// errStalePlan signals that a compiled plan's schema epoch no longer
// matches the catalog; the caller re-executes through the interpreter.
var errStalePlan = errors.New("sqlengine: compiled plan is stale")

// RowStream is a pull-based iterator over the rows of one SELECT
// execution: the engine half of the streaming delivery pipeline. Rows
// are produced by a goroutine that holds the statement's read locks for
// the duration of production and flow through a bounded channel, so a
// consumer that falls behind applies backpressure to the scan instead
// of forcing the whole result into memory.
//
// A RowStream must be drained (Next until io.EOF) or Closed; otherwise
// the producer goroutine and the session's shared locks leak. The
// owning Session must not execute further statements until the stream
// has finished.
type RowStream struct {
	cols      []ResultColumn
	streaming bool

	// Streaming path.
	ch     chan []Value
	cancel context.CancelFunc
	done   chan struct{}
	res    *Result
	err    error

	// Materialised fallback path.
	rows [][]Value
	pos  int

	closeOnce sync.Once
}

// streamBufferRows is the capacity of the producer/consumer channel:
// deep enough to decouple scan bursts from consumer scheduling, small
// enough that an abandoned consumer strands little work.
const streamBufferRows = 64

// Columns returns the result column metadata, known before the first
// row is produced.
func (r *RowStream) Columns() []ResultColumn { return r.cols }

// Streaming reports whether rows are produced incrementally; false
// means the statement was not streamable and the result was
// materialised up front (the stream then just replays it).
func (r *RowStream) Streaming() bool { return r.streaming }

// Next returns the next row, or io.EOF after the last one. A
// production error (cancellation, per-row evaluation failure) is
// returned in place of io.EOF once the produced prefix is exhausted.
func (r *RowStream) Next() ([]Value, error) {
	if !r.streaming {
		if r.pos >= len(r.rows) {
			return nil, io.EOF
		}
		row := r.rows[r.pos]
		r.pos++
		return row, nil
	}
	row, ok := <-r.ch
	if ok {
		return row, nil
	}
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	return nil, io.EOF
}

// Result blocks until production has finished and returns the
// statement outcome — the SQL communication area with the final
// RowsFetched count, exactly as the materialised Execute would have
// reported it.
func (r *RowStream) Result() (*Result, error) {
	if !r.streaming {
		return r.res, r.err
	}
	<-r.done
	return r.res, r.err
}

// Close abandons the stream: the producer is cancelled, its locks are
// released, and any undelivered rows are discarded. Safe to call more
// than once and after io.EOF.
func (r *RowStream) Close() error {
	r.closeOnce.Do(func() {
		if !r.streaming {
			r.pos = len(r.rows)
			return
		}
		r.cancel()
		// Drain so a producer blocked on send can observe cancellation
		// and run its unlock epilogue.
		for range r.ch {
		}
		<-r.done
	})
	return nil
}

// ExecuteStream parses and runs one statement, delivering query rows
// incrementally. Plain single-table SELECTs (no grouping, aggregates,
// DISTINCT, ORDER BY, UNION, joins or derived tables, outside an
// explicit transaction) stream row by row while the scan is still
// running; everything else executes exactly as ExecuteContext and is
// replayed from the materialised result, so callers see one uniform
// interface. ctx governs production, not just setup: cancelling it
// aborts the scan with a *CancelledError.
func (s *Session) ExecuteStream(ctx context.Context, sql string, params ...Value) (*RowStream, error) {
	prep, err := s.engine.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if _, isExplain := prep.stmt.(*ExplainStmt); !isExplain && prep.nparams > len(params) {
		return nil, fmt.Errorf("statement requires %d parameters, got %d", prep.nparams, len(params))
	}
	// Compiled-plan streaming: join-free plans whose ORDER BY (if any)
	// the access path already satisfies can deliver ordered rows
	// incrementally. A plan gone stale under DDL falls through to the
	// interpreted paths below.
	if !disablePlanner && prep.plan != nil && prep.plan.streamable() && !s.inTxn && !s.aborted {
		rs, err := s.startPlanStream(ctx, prep.plan, params)
		if err == nil {
			return rs, nil
		}
		if err != errStalePlan {
			return nil, err
		}
	}
	if sel, ok := s.streamableSelect(prep.stmt); ok {
		rs, err := s.startStream(ctx, sel, params)
		if err == nil {
			return rs, nil
		}
		// Setup failed before any row was produced (bad table, bad
		// LIMIT expression, lock timeout): surface it like Execute.
		return nil, err
	}
	res, err := s.ExecutePrepared(ctx, prep, params...)
	if err != nil {
		return nil, err
	}
	rs := &RowStream{res: res}
	if res.Set != nil {
		rs.cols = res.Set.Columns
		rs.rows = res.Set.Rows
	}
	return rs, nil
}

// streamableSelect reports whether the statement is a SELECT the
// incremental producer can run: one base table, optional WHERE and
// LIMIT/OFFSET, no pipeline breakers (anything that needs the full row
// set before the first output row — sorting, grouping, aggregates,
// DISTINCT, UNION — and no joins or derived tables).
func (s *Session) streamableSelect(st Statement) (*SelectStmt, bool) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, false
	}
	if s.inTxn || s.aborted {
		return nil, false
	}
	if len(sel.Unions) > 0 || sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil ||
		len(sel.OrderBy) > 0 || len(sel.Joins) > 0 || selectHasAggregate(sel) {
		return nil, false
	}
	if sel.From == nil || sel.From.Subquery != nil {
		return nil, false
	}
	db := s.engine.db
	db.mu.RLock()
	_, isView := db.views[strings.ToLower(sel.From.Table)]
	db.mu.RUnlock()
	return sel, !isView
}

// startStream binds the statement synchronously — so schema errors and
// lock timeouts surface to the caller, not mid-stream — and spawns the
// producer goroutine, which holds the session's read locks and the
// database read latch until every row is delivered or the stream is
// cancelled.
func (s *Session) startStream(ctx context.Context, sel *SelectStmt, params []Value) (*RowStream, error) {
	db := s.engine.db
	if err := s.lockForRead(tablesOfSelect(sel)); err != nil {
		s.engine.locks.releaseAll(s)
		return nil, err
	}
	prodCtx, cancel := context.WithCancel(ctx)
	env := &evalEnv{params: params, db: db, ctx: prodCtx}

	db.mu.RLock()
	fail := func(err error) (*RowStream, error) {
		db.mu.RUnlock()
		s.engine.locks.releaseAll(s)
		cancel()
		return nil, err
	}
	base, cols, err := db.bindTableForSelect(sel, env)
	if err != nil {
		return fail(err)
	}
	env.cols = cols
	if sel.Where != nil && containsAggregate(sel.Where) {
		return fail(fmt.Errorf("aggregates are not allowed in WHERE"))
	}
	outCols, exprs, err := expandSelectItems(sel, env)
	if err != nil {
		return fail(err)
	}
	// LIMIT/OFFSET are row-independent expressions: evaluate once up
	// front so the producer can stop early and skip cheaply.
	offset, limit := 0, -1
	if sel.Offset != nil {
		if offset, err = evalCount(sel.Offset, env); err != nil {
			return fail(fmt.Errorf("OFFSET: %w", err))
		}
	}
	if sel.Limit != nil {
		if limit, err = evalCount(sel.Limit, env); err != nil {
			return fail(fmt.Errorf("LIMIT: %w", err))
		}
	}

	rs := &RowStream{
		cols:      outCols,
		streaming: true,
		ch:        make(chan []Value, streamBufferRows),
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	go s.produce(rs, prodCtx, sel, env, base, exprs, offset, limit)
	return rs, nil
}

// produce is the streaming scan body: WHERE filter, projection and
// OFFSET/LIMIT applied row by row, emitting into the bounded channel.
// It mirrors execSelectEnv's semantics exactly — including projecting
// OFFSET-skipped rows, so per-row evaluation errors surface for the
// same inputs — and runs the implicit auto-commit epilogue when done.
func (s *Session) produce(rs *RowStream, ctx context.Context, sel *SelectStmt, env *evalEnv,
	base [][]Value, exprs []Expr, offset, limit int) {
	db := s.engine.db
	emitted := 0
	err := func() error {
		slab := newRowSlab(len(exprs))
		for _, r := range base {
			if limit >= 0 && emitted >= limit {
				break
			}
			if err := env.checkCtx(); err != nil {
				return err
			}
			env.row = r
			if sel.Where != nil {
				v, err := eval(sel.Where, env)
				if err != nil {
					return err
				}
				ok, err := truthy(v)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			vals := slab.next()
			for i, e := range exprs {
				v, err := eval(e, env)
				if err != nil {
					return err
				}
				vals[i] = v
			}
			if offset > 0 {
				offset--
				continue
			}
			select {
			case rs.ch <- vals:
				emitted++
			case <-ctx.Done():
				return &CancelledError{Err: ctx.Err()}
			}
		}
		return nil
	}()
	db.mu.RUnlock()
	// Implicit auto-commit epilogue: a SELECT has no undo log, so
	// success and failure both reduce to releasing the read locks.
	s.undo = nil
	s.engine.locks.releaseAll(s)
	if err != nil {
		rs.res, rs.err = errResult(stateFor(err), err), err
	} else {
		ca := SQLCA{SQLState: StateSuccess, UpdateCount: -1, RowsFetched: emitted}
		if emitted == 0 {
			ca.SQLState = StateNoData
			ca.SQLCode = 100
		}
		rs.res = &Result{UpdateCount: -1, CA: ca}
	}
	close(rs.ch)
	close(rs.done)
}

// startPlanStream is startStream for compiled plans: the access path
// (point, range or ordered scan) gathers the base rows under the read
// latch, then the producer streams the plan's filter and projection row
// by row. The schema epoch is re-validated after the latch is taken;
// errStalePlan sends the caller back to the interpreted paths.
func (s *Session) startPlanStream(ctx context.Context, p *selectPlan, params []Value) (*RowStream, error) {
	db := s.engine.db
	if err := s.lockForRead(tablesOfSelect(p.sel)); err != nil {
		s.engine.locks.releaseAll(s)
		return nil, err
	}
	prodCtx, cancel := context.WithCancel(ctx)

	db.mu.RLock()
	fail := func(err error) (*RowStream, error) {
		db.mu.RUnlock()
		s.engine.locks.releaseAll(s)
		cancel()
		return nil, err
	}
	if p.epoch != db.epoch {
		return fail(errStalePlan)
	}
	env := &evalEnv{cols: p.cols, params: params, db: db, ctx: prodCtx}
	offset, limit := 0, -1
	var err error
	if p.sel.Offset != nil {
		if offset, err = evalCount(p.sel.Offset, env); err != nil {
			return fail(fmt.Errorf("OFFSET: %w", err))
		}
	}
	if p.sel.Limit != nil {
		if limit, err = evalCount(p.sel.Limit, env); err != nil {
			return fail(fmt.Errorf("LIMIT: %w", err))
		}
	}

	rs := &RowStream{
		cols:      p.projCols,
		streaming: true,
		ch:        make(chan []Value, streamBufferRows),
		cancel:    cancel,
		done:      make(chan struct{}),
	}

	// Columnar streaming: a vector-annotated plan (always a full scan
	// with no unsatisfied ORDER BY, or it would not be streamable)
	// produces chunk at a time. Bind failure or an unbuildable chunk
	// cache falls through to the row producer.
	if p.vec != nil && db.vectorEnabled() {
		var bp boundVec
		okBind := true
		if p.vec.pred != nil {
			bp, okBind = bindVecPred(p.vec.pred, params, p.t)
		}
		if okBind {
			if tc := db.ensureChunks(p.t); tc.ok {
				go s.produceVector(rs, prodCtx, p, env, bp, tc, offset, limit)
				return rs, nil
			}
		}
	}
	go s.producePlan(rs, prodCtx, p, env, p.baseRows(params), offset, limit)
	return rs, nil
}

// produceVector is producePlan over column chunks: zone-map skipping
// and kernel filtering per chunk, survivors projected by columnar
// gather (or row materialisation for computed projections) and emitted
// through the bounded channel with the same OFFSET/LIMIT and
// cancellation semantics as the row producer.
func (s *Session) produceVector(rs *RowStream, ctx context.Context, p *selectPlan, env *evalEnv,
	bp boundVec, tc *tableChunks, offset, limit int) {
	db := s.engine.db
	emitted := 0
	err := func() error {
		slab := newRowSlab(len(p.projExprs))
		var selbuf [chunkRows]int8
	chunks:
		for _, ch := range tc.chunks {
			if limit >= 0 && emitted >= limit {
				break
			}
			if err := ctxCheck(ctx); err != nil {
				return err
			}
			if bp != nil && chunkSkippable(bp, ch) {
				db.vecSkipped.Add(1)
				continue
			}
			db.vecBatches.Add(1)
			sel := selbuf[:ch.n]
			if bp != nil {
				bp.eval(ch, sel)
			} else {
				for i := range sel {
					sel[i] = triT
				}
			}
			for i := 0; i < ch.n; i++ {
				if limit >= 0 && emitted >= limit {
					break chunks
				}
				if sel[i] != triT {
					continue
				}
				vals := slab.next()
				if p.vec.proj != nil {
					for k, ci := range p.vec.proj {
						vals[k] = ch.vecs[ci].value(i)
					}
				} else {
					env.row = p.t.rows[ch.ids[i]]
					for k, e := range p.projExprs {
						v, err := eval(e, env)
						if err != nil {
							return err
						}
						vals[k] = v
					}
				}
				if offset > 0 {
					offset--
					continue
				}
				select {
				case rs.ch <- vals:
					emitted++
				case <-ctx.Done():
					return &CancelledError{Err: ctx.Err()}
				}
			}
		}
		return nil
	}()
	db.mu.RUnlock()
	s.undo = nil
	s.engine.locks.releaseAll(s)
	if err != nil {
		rs.res, rs.err = errResult(stateFor(err), err), err
	} else {
		ca := SQLCA{SQLState: StateSuccess, UpdateCount: -1, RowsFetched: emitted}
		if emitted == 0 {
			ca.SQLState = StateNoData
			ca.SQLCode = 100
		}
		rs.res = &Result{UpdateCount: -1, CA: ca}
	}
	close(rs.ch)
	close(rs.done)
}

// producePlan is produce for compiled plans: the same row-at-a-time
// filter → project → offset/limit pipeline, with the plan's
// ordinal-bound expressions instead of name resolution. Base rows
// arrive already in delivery order (the access path's order, which
// equals the ORDER BY order when the plan satisfied it).
func (s *Session) producePlan(rs *RowStream, ctx context.Context, p *selectPlan, env *evalEnv,
	base [][]Value, offset, limit int) {
	db := s.engine.db
	emitted := 0
	err := func() error {
		slab := newRowSlab(len(p.projExprs))
		for _, r := range base {
			if limit >= 0 && emitted >= limit {
				break
			}
			if err := env.checkCtx(); err != nil {
				return err
			}
			env.row = r
			if p.where != nil {
				v, err := eval(p.where, env)
				if err != nil {
					return err
				}
				ok, err := truthy(v)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			vals := slab.next()
			for i, e := range p.projExprs {
				v, err := eval(e, env)
				if err != nil {
					return err
				}
				vals[i] = v
			}
			if offset > 0 {
				offset--
				continue
			}
			select {
			case rs.ch <- vals:
				emitted++
			case <-ctx.Done():
				return &CancelledError{Err: ctx.Err()}
			}
		}
		return nil
	}()
	db.mu.RUnlock()
	s.undo = nil
	s.engine.locks.releaseAll(s)
	if err != nil {
		rs.res, rs.err = errResult(stateFor(err), err), err
	} else {
		ca := SQLCA{SQLState: StateSuccess, UpdateCount: -1, RowsFetched: emitted}
		if emitted == 0 {
			ca.SQLState = StateNoData
			ca.SQLCode = 100
		}
		rs.res = &Result{UpdateCount: -1, CA: ca}
	}
	close(rs.ch)
	close(rs.done)
}
