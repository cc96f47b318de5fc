package sqlengine

import (
	"context"
	"errors"
	"io"
	"sync"
)

// errStalePlan signals that a compiled plan's schema epoch no longer
// matches the catalog; the caller executes the statement instead.
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
// incrementally. A SELECT whose current plan is join-free and whose ORDER
// BY, if any, the access path already satisfies streams while its scan is
// still running, outside an explicit transaction; everything else —
// including a SELECT whose plan has gone stale — executes exactly as
// ExecuteContext and is replayed from the materialised result, so callers
// see one uniform interface. ctx governs production, not just setup: cancelling it aborts
// the scan with a *CancelledError.
func (s *Session) ExecuteStream(ctx context.Context, sql string, params ...Value) (*RowStream, error) {
	prep, err := s.engine.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if err := prep.checkParams(params); err != nil {
		return nil, err
	}
	if plan := prep.topPlan(); plan != nil && s.engine.db.oracle == nil && plan.streamable() && !s.inTxn && !s.aborted {
		// Setup errors (bad LIMIT, lock timeout) surface here, like
		// Execute's; a plan gone stale under DDL is executed instead.
		rs, err := s.startPlanStream(ctx, plan, prep.blocks, params)
		if err != errStalePlan {
			return rs, err
		}
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

// streamSink is where a scan's rows go. Streaming (rs set), it turns
// them into batches: it owns OFFSET and LIMIT, batch hand-off and
// cancellation, and Session.produce, which runs the scan into it, is the
// epilogue. Materialising (rs nil, no OFFSET, no LIMIT), its one open
// batch is the result.
type streamSink struct {
	rs     *RowStream
	ctx    context.Context
	offset int // rows still to skip
	limit  int // rows still to deliver; negative without a LIMIT

	// upper bounds the rows the open segment may still emit, so that a
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
		n := k.upper
		if k.rs != nil {
			n = min(n, streamBatchRows)
		}
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
	if k.rs != nil && len(k.batch) == streamBatchRows {
		return k.endSegment()
	}
	return nil
}

// endSegment hands a stream's open batch over, if it holds anything.
// Scans call it after every streamBatchRows input rows at most, so a
// selective scan still trickles and cancellation is seen within one
// batch.
func (k *streamSink) endSegment() error {
	if k.rs == nil || len(k.batch) == 0 {
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

// startPlanStream streams a compiled plan; plans is the statement's
// whole set, which subqueries in its expressions run by. Set-up is done
// synchronously, so that a stale plan, a bad OFFSET or LIMIT and a lock
// timeout surface to the caller, not mid-stream: the statement's read
// locks and the database read latch — which the producer then holds until
// every row is delivered or the stream is cancelled — the schema epoch's
// re-validation (errStalePlan sends the caller to the materialised path),
// OFFSET and LIMIT, evaluated once, and the scan's binding (bindScan).
func (s *Session) startPlanStream(ctx context.Context, p *selectPlan, plans *blockPlans, params []Value) (*RowStream, error) {
	db := s.engine.db
	if err := s.lockForRead(p.sel); err != nil {
		s.engine.locks.releaseAll(s)
		return nil, err
	}
	prodCtx, cancel := context.WithCancel(ctx)
	env := &evalEnv{cols: p.cols, params: params, plans: plans, db: db, ctx: prodCtx}
	k := &streamSink{ctx: prodCtx, rs: &RowStream{cols: p.projCols, streaming: true, cancel: cancel}}
	db.mu.RLock()
	err := errStalePlan
	if p.epoch == db.epoch {
		k.offset, k.limit, err = offsetLimit(p.sel, env)
	}
	if err != nil {
		db.mu.RUnlock()
		s.engine.locks.releaseAll(s)
		cancel()
		return nil, err
	}
	scan := db.bindScan(p, p.rowScan(env, true), k)
	k.rs.ch, k.rs.done = make(chan [][]Value, 1), make(chan struct{})
	go s.produce(k, scan)
	return k.rs, nil
}
