package rowset

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"dais/internal/filestore"
	"dais/internal/sqlengine"
)

// RowSource is the pull-based producer side of the streaming delivery
// pipeline: anything that can yield rows a batch at a time with column
// metadata known up front. A batch is not empty, and neither it nor its
// rows are written by anyone once NextBatch has returned it: the buffer
// keeps the slice as it stands. Close must be idempotent — the buffer
// may close a source once from the fill goroutine and once from
// Release. *sqlengine.RowStream satisfies the interface structurally;
// NewSetSource adapts an already-materialised result set.
type RowSource interface {
	Columns() []sqlengine.ResultColumn
	NextBatch() ([][]sqlengine.Value, error) // io.EOF after the last batch
	Close() error
}

// NewSetSource wraps a materialised result set as a RowSource: rows that
// already exist in memory (a bounded copy of a result, the rows of a
// response that was executed rather than streamed) enter a Buffer this
// way.
func NewSetSource(rs *sqlengine.ResultSet) RowSource {
	return &setSource{rs: rs}
}

type setSource struct {
	rs  *sqlengine.ResultSet
	pos int
}

func (s *setSource) Columns() []sqlengine.ResultColumn { return s.rs.Columns }

func (s *setSource) NextBatch() ([][]sqlengine.Value, error) {
	if s.pos >= len(s.rs.Rows) {
		return nil, io.EOF
	}
	end := min(s.pos+DefaultPageRows, len(s.rs.Rows))
	batch := s.rs.Rows[s.pos:end:end]
	s.pos = end
	return batch, nil
}

func (s *setSource) Close() error { return nil }

// Hooks are optional observation callbacks the buffer invokes as it
// works. They exist because this package sits below internal/telemetry
// in the import graph (telemetry → ops → dair → rowset), so the buffer
// cannot bind metrics itself; the service layer supplies callbacks
// that record into its registry. All fields may be nil, and calls are
// made once per batch to stay off the per-row hot path.
type Hooks struct {
	// RowsProduced is called with the number of rows newly sealed
	// from the source.
	RowsProduced func(n int)
	// BatchProduced is called once per batch sealed, with the time the
	// buffer spent getting it — waiting on the source, which for an
	// engine stream is the scan at work, and sealing it. Production runs
	// after the factory reply, outside any request, so this is the only
	// place its time shows.
	BatchProduced func(busy time.Duration)
	// SpilledBytes is called with the encoded size of each page
	// written to the spill store.
	SpilledBytes func(n int64)
	// BufferDepth is called with the delta in memory-resident rows
	// (positive when a page seals in memory, negative when one spills
	// or the buffer is released).
	BufferDepth func(delta int)
}

func (h Hooks) rowsProduced(n int) {
	if h.RowsProduced != nil && n > 0 {
		h.RowsProduced(n)
	}
}

func (h Hooks) batchProduced(busy time.Duration) {
	if h.BatchProduced != nil {
		h.BatchProduced(busy)
	}
}

func (h Hooks) spilledBytes(n int64) {
	if h.SpilledBytes != nil && n > 0 {
		h.SpilledBytes(n)
	}
}

func (h Hooks) bufferDepth(delta int) {
	if h.BufferDepth != nil && delta != 0 {
		h.BufferDepth(delta)
	}
}

// BufferConfig tunes a Buffer.
type BufferConfig struct {
	// PageRows bounds the rows per internal page (the spill
	// granularity): a batch larger than this is sealed as several
	// pages. Defaults to DefaultPageRows.
	PageRows int
	// MemCap bounds the estimated bytes of row data held in memory;
	// once sealed pages exceed it, the oldest are spilled. Zero (or a
	// nil Spill store) disables spilling: the buffer holds everything
	// in memory.
	MemCap int64
	// Spill is the store completed pages are written to; SpillName is
	// the file they share (each page is one self-delimiting record).
	Spill     *filestore.Store
	SpillName string
	// Hooks observe production, spilling and buffer depth.
	Hooks Hooks
}

// DefaultPageRows is the page granularity when BufferConfig.PageRows
// is unset: large enough to amortise per-page bookkeeping, small
// enough that one page is a cheap unit to spill or decode.
const DefaultPageRows = 1024

// Buffer is the bounded producer/consumer stage between a RowSource
// and GetTuples-style window reads. A fill goroutine drains the source
// as fast as it can, sealing each batch as a page (or as several, when
// it holds more than PageRows rows); readers ask for 1-based windows
// and block only while the window overlaps the still-unproduced tail.
// When the sealed pages exceed MemCap, the oldest spill to the filestore
// and are decoded back on demand, so a service-managed rowset can
// exceed RAM.
//
// A page is the source's batch slice itself, never written after the
// hand-off, so window reads alias in-memory pages without copying.
type Buffer struct {
	cfg  BufferConfig
	src  RowSource
	cols []sqlengine.ResultColumn

	mu       sync.Mutex
	pages    []*bufPage
	produced int           // total rows drained from the source
	resident int64         // estimated bytes of sealed in-memory pages
	spilled  int64         // total bytes written to the spill store
	done     bool          // source exhausted or failed
	err      error         // production error, if any
	waiters  int           // readers blocked on progress
	progress chan struct{} // closed and replaced to wake waiters
	refs     int
	released bool
}

// bufPage is one run of rows. Exactly one of rows / (off, size) is
// live: rows == nil means the page lives in the spill file at
// [off, off+size).
type bufPage struct {
	start int // 0-based index of the first row
	n     int
	rows  [][]sqlengine.Value
	bytes int64 // estimated in-memory size (0 once spilled)
	off   int64
	size  int64
}

// NewBuffer starts draining src under the given config. The returned
// buffer owns src: it is closed when production finishes or the last
// reference is released. The initial reference belongs to the caller —
// pair NewBuffer with Release.
func NewBuffer(src RowSource, cfg BufferConfig) *Buffer {
	if cfg.PageRows <= 0 {
		cfg.PageRows = DefaultPageRows
	}
	if cfg.Spill == nil || cfg.SpillName == "" {
		cfg.MemCap = 0
	}
	b := &Buffer{
		cfg:      cfg,
		src:      src,
		cols:     src.Columns(),
		progress: make(chan struct{}),
		refs:     1,
	}
	go b.fill()
	return b
}

// Columns returns the result column metadata.
func (b *Buffer) Columns() []sqlengine.ResultColumn { return b.cols }

// Done reports whether production has finished (successfully or not).
func (b *Buffer) Done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done
}

// Err returns the production error, if production has failed.
func (b *Buffer) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// SpilledBytes returns the total bytes written to the spill store.
func (b *Buffer) SpilledBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spilled
}

// fill drains the source into sealed pages until EOF, error or
// release, spilling as the memory cap demands.
func (b *Buffer) fill() {
	for {
		start := time.Now()
		batch, err := b.src.NextBatch()
		if err == nil && !b.seal(batch) {
			err = io.EOF // released: nothing more is wanted
		}
		if err != nil {
			b.finish(err)
			return
		}
		b.cfg.Hooks.rowsProduced(len(batch))
		b.cfg.Hooks.bufferDepth(len(batch))
		b.cfg.Hooks.batchProduced(time.Since(start))
		b.spillOver()
	}
}

// seal appends the batch to the sealed pages under one acquisition of
// b.mu and wakes the readers. It reports false, sealing nothing, once
// the buffer is released.
func (b *Buffer) seal(batch [][]sqlengine.Value) bool {
	pages := make([]bufPage, 0, 1+(len(batch)-1)/b.cfg.PageRows) // batches are not empty
	for rows := batch; len(rows) > 0; {
		n := min(len(rows), b.cfg.PageRows)
		p := bufPage{n: n, rows: rows[:n:n]}
		if b.cfg.MemCap > 0 {
			p.bytes = estimatePageBytes(p.rows)
		}
		pages = append(pages, p)
		rows = rows[n:]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.released {
		return false
	}
	for i := range pages {
		p := &pages[i]
		p.start = b.produced
		b.pages = append(b.pages, p)
		b.produced += p.n
		b.resident += p.bytes
	}
	if b.waiters > 0 {
		b.broadcastLocked()
	}
	return true
}

// finish records the terminal state and closes the source. err ==
// io.EOF is clean exhaustion.
func (b *Buffer) finish(err error) {
	b.mu.Lock()
	b.done = true
	if err != io.EOF {
		b.err = err
	}
	b.broadcastLocked()
	b.mu.Unlock()
	b.src.Close()
}

// broadcastLocked wakes every blocked reader. Caller holds b.mu.
func (b *Buffer) broadcastLocked() {
	close(b.progress)
	b.progress = make(chan struct{})
}

// await blocks until cond (checked under b.mu) holds or ctx expires.
// It returns with b.mu held on success, released on ctx error.
func (b *Buffer) await(ctx context.Context, cond func() bool) error {
	b.mu.Lock()
	for !cond() {
		b.waiters++
		ch := b.progress
		b.mu.Unlock()
		select {
		case <-ch:
			b.mu.Lock()
		case <-ctx.Done():
			b.mu.Lock()
			b.waiters--
			b.mu.Unlock()
			return ctx.Err()
		}
		b.waiters--
	}
	return nil
}

// spillOver writes the oldest sealed in-memory pages to the spill
// store until the resident estimate is back under the cap. Encoding
// and the store append run outside b.mu — only the page-state flip is
// locked — so readers are never blocked behind I/O.
func (b *Buffer) spillOver() {
	if b.cfg.MemCap <= 0 {
		return
	}
	for {
		b.mu.Lock()
		if b.resident <= b.cfg.MemCap || b.released {
			b.mu.Unlock()
			return
		}
		var victim *bufPage
		for _, p := range b.pages {
			if p.rows != nil {
				victim = p
				break
			}
		}
		if victim == nil {
			b.mu.Unlock()
			return
		}
		rows := victim.rows
		b.mu.Unlock()

		data := encodeSpillPage(rows)
		off, err := b.cfg.Spill.AppendRecord(b.cfg.SpillName, data)
		if err != nil {
			// The store is in-memory and the name pre-validated, so
			// this cannot happen in practice; keep the page resident
			// rather than lose it.
			return
		}

		b.mu.Lock()
		victim.off, victim.size = off, int64(len(data))
		victim.rows = nil
		b.resident -= victim.bytes
		victim.bytes = 0
		b.spilled += int64(len(data))
		freed := victim.n
		b.mu.Unlock()
		b.cfg.Hooks.spilledBytes(int64(len(data)))
		b.cfg.Hooks.bufferDepth(-freed)
	}
}

// Pages resolves the window [startPosition, startPosition+count) —
// 1-based, GetTuples semantics — to the rows that hold it: one run per
// sealed page the window overlaps, in order, clipped to the window; a
// page that lives in the spill store is read back. It blocks while the
// window overlaps the still-producing tail. Once production is done the
// window clamps to the final row count (windowRange). A production
// error is returned from every call: a partial result from a failed
// query is never served. The runs alias the pages, which nobody writes:
// an encoder renders a window straight from them (Codec.AppendWindow),
// and every error there is to report has been reported before it writes
// a byte.
func (b *Buffer) Pages(ctx context.Context, startPosition, count int) ([][][]sqlengine.Value, error) {
	if startPosition < 1 {
		startPosition = 1
	}
	if count <= 0 {
		return nil, nil
	}
	// The last row the window reaches, saturating: a Count near
	// math.MaxInt waits for the end of production.
	need := startPosition - 1 + min(count, math.MaxInt-(startPosition-1))
	if err := b.await(ctx, func() bool {
		return b.released || b.err != nil || b.done || b.produced >= need
	}); err != nil {
		return nil, err
	}
	// b.mu held.
	if b.released {
		b.mu.Unlock()
		return nil, fmt.Errorf("rowset: buffer released")
	}
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return nil, err
	}
	from, to := windowRange(b.produced, startPosition, count)
	if from == to {
		b.mu.Unlock()
		return nil, nil
	}
	// Snapshot the page descriptors covering [from, to); sealed page
	// row slices are immutable, so they can be read outside the lock.
	// Spilled pages are re-read from the store below.
	refs := make([]bufPage, 0, (to-from)/b.cfg.PageRows+2)
	for _, p := range b.pages {
		if p.start+p.n <= from || p.start >= to {
			continue
		}
		refs = append(refs, bufPage{start: p.start, n: p.n, rows: p.rows, off: p.off, size: p.size})
	}
	store, spillName := b.cfg.Spill, b.cfg.SpillName
	b.mu.Unlock()

	pages := make([][][]sqlengine.Value, 0, len(refs))
	for _, p := range refs {
		rows := p.rows
		if rows == nil {
			data, err := store.Read(spillName, p.off, p.size)
			if err != nil {
				return nil, fmt.Errorf("rowset: reading spilled page: %w", err)
			}
			rows, err = decodeSpillPage(data)
			if err != nil {
				return nil, fmt.Errorf("rowset: decoding spilled page: %w", err)
			}
			if len(rows) != p.n {
				return nil, fmt.Errorf("rowset: spilled page holds %d rows, expected %d", len(rows), p.n)
			}
		}
		pages = append(pages, rows[max(from-p.start, 0):min(to-p.start, p.n)])
	}
	if n := countRows(pages); n != to-from {
		return nil, fmt.Errorf("rowset: window [%d,%d) assembled %d rows", from, to, n)
	}
	return pages, nil
}

// Window is Pages assembled into one result set: the window's row
// headers copied out, for a consumer that wants rows and not bytes.
func (b *Buffer) Window(ctx context.Context, startPosition, count int) (*sqlengine.ResultSet, error) {
	pages, err := b.Pages(ctx, startPosition, count)
	if err != nil {
		return nil, err
	}
	out := &sqlengine.ResultSet{Columns: b.cols}
	if len(pages) > 0 {
		out.Rows = slices.Concat(pages...)
	}
	return out, nil
}

// FinalCount blocks until production finishes and returns the total
// row count (or the production error).
func (b *Buffer) FinalCount(ctx context.Context) (int, error) {
	if err := b.await(ctx, func() bool { return b.done || b.released }); err != nil {
		return 0, err
	}
	n, err, released := b.produced, b.err, b.released
	b.mu.Unlock()
	if released && err == nil {
		return 0, fmt.Errorf("rowset: buffer released")
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Materialise blocks until production finishes and returns the full
// result set (paging spilled rows back in). This is the bridge to
// consumers that still need the whole set at once.
func (b *Buffer) Materialise(ctx context.Context) (*sqlengine.ResultSet, error) {
	n, err := b.FinalCount(ctx)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return &sqlengine.ResultSet{Columns: b.cols}, nil
	}
	return b.Window(ctx, 1, n)
}

// Retain adds a reference; each Retain must be paired with a Release.
// Multiple service resources (a response resource and the rowset
// resources derived from it) share one buffer this way.
func (b *Buffer) Retain() {
	b.mu.Lock()
	b.refs++
	b.mu.Unlock()
}

// Release drops a reference. When the last one goes, the source is
// closed (cancelling a still-running engine stream), page memory is
// dropped, blocked readers fail, and the spill file is deleted.
func (b *Buffer) Release() {
	b.mu.Lock()
	b.refs--
	if b.refs > 0 || b.released {
		b.mu.Unlock()
		return
	}
	b.released = true
	depth := 0
	for _, p := range b.pages {
		if p.rows != nil {
			depth += p.n
		}
	}
	b.pages = nil
	b.resident = 0
	b.broadcastLocked()
	b.mu.Unlock()
	b.cfg.Hooks.bufferDepth(-depth)
	b.src.Close()
	if b.cfg.Spill != nil && b.cfg.SpillName != "" {
		if _, err := b.cfg.Spill.Stat(b.cfg.SpillName); err == nil {
			_ = b.cfg.Spill.Delete(b.cfg.SpillName)
		}
	}
}

// estimatePageBytes approximates a page's in-memory footprint for the
// MemCap accounting: per row the Value structs themselves plus their
// string payloads. It is an estimate, so a long page is sized from
// every stride-th row (about 64 of them) rather than by touching every
// cell of rows that production has just finished touching.
func estimatePageBytes(rows [][]sqlengine.Value) int64 {
	stride := max(len(rows)/64, 1)
	var sampled, n int64
	for i := 0; i < len(rows); i += stride {
		row := rows[i]
		n += int64(len(row)) * 48 // Value struct + slice slot, roughly
		for _, v := range row {
			n += int64(len(v.S))
		}
		sampled++
	}
	if sampled == 0 {
		return 0
	}
	return n * int64(len(rows)) / sampled
}
