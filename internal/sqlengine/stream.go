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
// the duration of production and cross to the consumer a batch at a
// time through a bounded channel, so a consumer that falls behind
// applies backpressure to the scan instead of forcing the whole result
// into memory.
//
// A batch holds 1..streamBatchRows rows and is never written after it
// is handed over. Its rows may be the table's stored row images (which
// the engine swaps and never mutates), so a consumer must treat rows as
// read-only too.
//
// A RowStream must be drained (NextBatch or Next until io.EOF) or
// Closed; otherwise the producer goroutine and the session's shared
// locks leak. The owning Session must not execute further statements
// until the stream has finished.
type RowStream struct {
	cols      []ResultColumn
	streaming bool

	// Streaming path.
	ch     chan [][]Value
	cancel context.CancelFunc
	done   chan struct{}
	res    *Result
	err    error

	// rows is what the materialised fallback has yet to deliver; cur is
	// what Next has yet to deliver of the batch it is walking.
	rows [][]Value
	cur  [][]Value

	closeOnce sync.Once
}

// streamBatchRows bounds a batch: large enough that the channel, the
// buffer's lock and the allocator are paid once per thousand rows, small
// enough that an abandoned consumer strands little work.
const streamBatchRows = 1024

// Columns returns the result column metadata, known before the first
// row is produced.
func (r *RowStream) Columns() []ResultColumn { return r.cols }

// Streaming reports whether rows are produced incrementally; false
// means the statement was not streamable and the result was
// materialised up front (the stream then just replays it).
func (r *RowStream) Streaming() bool { return r.streaming }

// NextBatch returns the next batch of rows, or io.EOF after the last
// one. A production error (cancellation, per-row evaluation failure) is
// returned in place of io.EOF once the delivered batches are exhausted.
func (r *RowStream) NextBatch() ([][]Value, error) {
	if !r.streaming {
		if len(r.rows) == 0 {
			return nil, io.EOF
		}
		n := min(len(r.rows), streamBatchRows)
		batch := r.rows[:n:n]
		r.rows = r.rows[n:]
		return batch, nil
	}
	if batch, ok := <-r.ch; ok {
		return batch, nil
	}
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	return nil, io.EOF
}

// Next is the per-row view of NextBatch, for consumers that handle one
// row at a time.
func (r *RowStream) Next() ([]Value, error) {
	if len(r.cur) == 0 {
		batch, err := r.NextBatch()
		if err != nil {
			return nil, err
		}
		r.cur = batch
	}
	row := r.cur[0]
	r.cur = r.cur[1:]
	return row, nil
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
		r.rows, r.cur = nil, nil
		if !r.streaming {
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
	if plan := prep.topPlan(); plan != nil && !s.engine.db.plannerOff && plan.streamable() && !s.inTxn && !s.aborted {
		rs, err := s.startPlanStream(ctx, plan, prep.blocks, params)
		if err == nil {
			return rs, nil
		}
		if err != errStalePlan {
			return nil, err
		}
	}
	if sel, ok := s.streamableSelect(prep.stmt); ok {
		rs, err := s.startStream(ctx, sel, prep.blocks, params)
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

// streamSink is where a producer's rows become batches: it owns OFFSET
// and LIMIT, batch hand-off and cancellation; Session.produce, which
// runs a scan into it, is the epilogue every producer ends with.
type streamSink struct {
	rs     *RowStream
	ctx    context.Context
	offset int // rows still to skip
	limit  int // rows still to deliver; negative without a LIMIT

	// upper bounds the rows the producer may still emit, so that a
	// 20-row reply does not allocate a full batch.
	upper   int
	batch   [][]Value
	emitted int
}

// full reports that LIMIT is met: the producer stops before it touches
// another row, so a row past the limit is never evaluated.
func (k *streamSink) full() bool { return k.limit == 0 }

// emit takes one projected row. OFFSET-skipped rows arrive projected
// too, so a per-row evaluation error surfaces for the same inputs as on
// the materialised path.
func (k *streamSink) emit(row []Value) error {
	if k.offset > 0 {
		k.offset--
		return nil
	}
	if k.batch == nil {
		n := min(streamBatchRows, k.upper)
		if k.limit >= 0 {
			n = min(n, k.limit)
		}
		k.batch = make([][]Value, 0, n)
	}
	k.batch = append(k.batch, row)
	k.emitted++
	if k.limit > 0 {
		k.limit--
	}
	if len(k.batch) == streamBatchRows {
		return k.endSegment()
	}
	return nil
}

// endSegment hands the open batch over, if it holds anything. Producers
// call it after every streamBatchRows input rows at most, so a
// selective scan still trickles and cancellation is seen within one
// batch.
func (k *streamSink) endSegment() error {
	if len(k.batch) == 0 {
		return ctxCheck(k.ctx)
	}
	select {
	case k.rs.ch <- k.batch:
		k.batch = nil
		return nil
	case <-k.ctx.Done():
		return &CancelledError{Err: k.ctx.Err()}
	}
}

// rowScan is the filter and projection a producer applies to each
// segment of input rows.
type rowScan struct {
	env   *evalEnv
	where Expr // nil: every input row survives
	exprs []Expr
	// gather and identity are the plan's (see selectPlan): projections
	// that copy cells by ordinal, or pass the input row — the table's
	// stored image — through uncopied.
	gather   []int
	identity bool
	slab     *rowSlab
}

// segment runs input rows into the sink, mirroring execSelectEnv's
// semantics exactly, and closes the segment.
func (sc *rowScan) segment(k *streamSink, rows [][]Value) error {
	env := sc.env
	for _, r := range rows {
		if k.full() {
			break
		}
		env.row = r
		if sc.where != nil {
			v, err := eval(sc.where, env)
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
		out := r
		if !sc.identity {
			out = sc.slab.next()
			if sc.gather != nil {
				for i, c := range sc.gather {
					out[i] = r[c]
				}
			} else {
				for i, e := range sc.exprs {
					v, err := eval(e, env)
					if err != nil {
						return err
					}
					out[i] = v
				}
			}
		}
		if err := k.emit(out); err != nil {
			return err
		}
	}
	return k.endSegment()
}

// openStream is the set-up every stream shares, done synchronously so
// that schema errors and lock timeouts surface to the caller, not
// mid-stream: the statement's read locks and the database read latch —
// which the producer then holds until every row is delivered or the
// stream is cancelled — the production context, and OFFSET and LIMIT,
// row-independent expressions evaluated once. bind runs under the latch
// and returns the result columns and the scan body.
func (s *Session) openStream(ctx context.Context, sel *SelectStmt, env *evalEnv,
	bind func(k *streamSink) ([]ResultColumn, func() error, error)) (*RowStream, error) {
	db := s.engine.db
	if err := s.lockForRead(tablesOfSelect(sel)); err != nil {
		s.engine.locks.releaseAll(s)
		return nil, err
	}
	prodCtx, cancel := context.WithCancel(ctx)
	env.db, env.ctx = db, prodCtx
	k := &streamSink{ctx: prodCtx, limit: -1}

	db.mu.RLock()
	cols, scan, err := bind(k)
	if err == nil && sel.Offset != nil {
		if k.offset, err = evalCount(sel.Offset, env); err != nil {
			err = fmt.Errorf("OFFSET: %w", err)
		}
	}
	if err == nil && sel.Limit != nil {
		if k.limit, err = evalCount(sel.Limit, env); err != nil {
			err = fmt.Errorf("LIMIT: %w", err)
		}
	}
	if err != nil {
		db.mu.RUnlock()
		s.engine.locks.releaseAll(s)
		cancel()
		return nil, err
	}
	k.rs = &RowStream{
		cols:      cols,
		streaming: true,
		ch:        make(chan [][]Value, 1),
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	go s.produce(k, scan)
	return k.rs, nil
}

// produce is the producer goroutine: the scan body, then the implicit
// auto-commit epilogue — a SELECT has no undo log, so success and
// failure both reduce to releasing the read locks — and the statement
// outcome. Rows of a batch still open when the scan fails are dropped:
// no consumer serves a prefix of a failed query.
func (s *Session) produce(k *streamSink, scan func() error) {
	err := scan()
	s.engine.db.mu.RUnlock()
	s.undo = nil
	s.engine.locks.releaseAll(s)
	rs := k.rs
	if err != nil {
		rs.res, rs.err = errResult(stateFor(err), err), err
	} else {
		ca := SQLCA{SQLState: StateSuccess, UpdateCount: -1, RowsFetched: k.emitted}
		if k.emitted == 0 {
			ca.SQLState = StateNoData
			ca.SQLCode = 100
		}
		rs.res = &Result{UpdateCount: -1, CA: ca}
	}
	close(rs.ch)
	close(rs.done)
}

// startStream streams an interpreted single-table SELECT: bound by
// name, filtered and projected through eval.
func (s *Session) startStream(ctx context.Context, sel *SelectStmt, plans *blockPlans, params []Value) (*RowStream, error) {
	env := &evalEnv{params: params, plans: plans}
	return s.openStream(ctx, sel, env, func(k *streamSink) ([]ResultColumn, func() error, error) {
		base, cols, err := s.engine.db.bindTableForSelect(sel, env)
		if err != nil {
			return nil, nil, err
		}
		env.cols = cols
		if sel.Where != nil && containsAggregate(sel.Where) {
			return nil, nil, fmt.Errorf("aggregates are not allowed in WHERE")
		}
		outCols, exprs, err := expandSelectItems(sel, env)
		if err != nil {
			return nil, nil, err
		}
		sc := &rowScan{env: env, where: sel.Where, exprs: exprs, slab: newRowSlab(len(exprs), 0)}
		return outCols, func() error {
			for len(base) > 0 && !k.full() {
				n := min(len(base), streamBatchRows)
				k.upper = len(base)
				if err := sc.segment(k, base[:n]); err != nil {
					return err
				}
				base = base[n:]
			}
			return nil
		}, nil
	})
}

// startPlanStream streams a compiled plan; plans is the statement's
// whole set, which subqueries in its expressions run by. The schema epoch
// is re-validated under the latch; errStalePlan sends the caller back to
// the interpreted paths. A vector-annotated plan (always a full scan
// with no unsatisfied ORDER BY, or it would not be streamable) scans
// chunk at a time; bind failure or an unbuildable chunk cache falls
// through to the access path (point, range or ordered scan), which
// resolves the base row IDs already in delivery order — its own, which
// equals the ORDER BY order when the plan satisfied it.
func (s *Session) startPlanStream(ctx context.Context, p *selectPlan, plans *blockPlans, params []Value) (*RowStream, error) {
	env := &evalEnv{cols: p.cols, params: params, plans: plans}
	return s.openStream(ctx, p.sel, env, func(k *streamSink) ([]ResultColumn, func() error, error) {
		db := s.engine.db
		if p.epoch != db.epoch {
			return nil, nil, errStalePlan
		}
		sc := &rowScan{env: env, where: p.where, exprs: p.projExprs, gather: p.gather, identity: p.identity,
			slab: newRowSlab(len(p.projExprs), 0)}
		if p.vec != nil && db.vectorEnabled() {
			var bp boundVec
			okBind := true
			if p.vec.pred != nil {
				bp, okBind = bindVecPred(p.vec.pred, params, p.t)
			}
			if okBind {
				if tc := db.ensureChunks(p.t); tc.ok {
					sc.where = nil // the kernels are the filter
					return p.projCols, func() error { return p.scanChunks(k, sc, bp, tc) }, nil
				}
			}
			db.vecFallbacks.Add(1)
		}
		ids, filtered := p.baseIDs(params)
		if filtered {
			sc.where = nil
		}
		return p.projCols, func() error {
			seg := make([][]Value, 0, min(len(ids), streamBatchRows))
			for len(ids) > 0 && !k.full() {
				n := min(len(ids), streamBatchRows)
				k.upper = len(ids)
				seg = seg[:0]
				for _, id := range ids[:n] {
					if r, ok := p.t.rows[id]; ok {
						seg = append(seg, r)
					}
				}
				if err := sc.segment(k, seg); err != nil {
					return err
				}
				ids = ids[n:]
			}
			return nil
		}, nil
	})
}

// scanChunks is the scan body over column chunks, a chunk a segment:
// zone-map skipping and kernel filtering per chunk, the survivors' rows
// handed to the projection.
func (p *selectPlan) scanChunks(k *streamSink, sc *rowScan, bp boundVec, tc *tableChunks) error {
	db := sc.env.db
	var selbuf [chunkRows]int8
	seg := make([][]Value, 0, chunkRows)
	k.upper = len(p.t.order)
	for _, ch := range tc.chunks {
		if k.full() {
			break
		}
		seg = seg[:0]
		if bp != nil && chunkSkippable(bp, ch) {
			db.vecSkipped.Add(1)
		} else {
			db.vecBatches.Add(1)
			sel := selbuf[:ch.n]
			if bp != nil {
				bp.eval(ch, sel)
			}
			for i, id := range ch.ids[:ch.n] {
				if bp == nil || sel[i] == triT {
					seg = append(seg, p.t.rows[id])
				}
			}
		}
		if err := sc.segment(k, seg); err != nil {
			return err
		}
		k.upper -= ch.n
	}
	return nil
}
