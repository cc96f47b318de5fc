package rowset

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"dais/internal/filestore"
	"dais/internal/sqlengine"
)

// corpusSet builds a result set covering every value type (including
// NULLs and an untyped computed column) so buffer and spill paths face
// the same inference and round-trip hazards the codecs do.
func corpusSet(rows int) *sqlengine.ResultSet {
	set := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: "id", Type: sqlengine.TypeInteger, Table: "t"},
			{Name: "big", Type: sqlengine.TypeBigint, Table: "t"},
			{Name: "name", Type: sqlengine.TypeVarchar, Table: "t"},
			{Name: "score", Type: sqlengine.TypeNull},
			{Name: "ok", Type: sqlengine.TypeBoolean, Table: "t"},
			{Name: "at", Type: sqlengine.TypeTimestamp, Table: "t"},
		},
	}
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		score := sqlengine.NewDouble(float64(i) / 8)
		if i%5 == 0 {
			score = sqlengine.Null
		}
		set.Rows = append(set.Rows, []sqlengine.Value{
			sqlengine.NewInt(int64(i)),
			sqlengine.NewBigint(int64(i) * -1_000_000_007),
			sqlengine.NewString(fmt.Sprintf("row-%04d", i)),
			score,
			sqlengine.NewBool(i%2 == 0),
			sqlengine.NewTimestamp(base.Add(time.Duration(i) * time.Second)),
		})
	}
	return set
}

func TestSpillPageRoundTrip(t *testing.T) {
	rows := corpusSet(37).Rows
	got, err := decodeSpillPage(encodeSpillPage(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			a, b := rows[i][j], got[i][j]
			if a.Type != b.Type || a.I != b.I || a.F != b.F || a.S != b.S || a.B != b.B || !a.Time().Equal(b.Time()) {
				t.Fatalf("row %d col %d: %+v != %+v", i, j, a, b)
			}
			if a.String() != b.String() {
				t.Fatalf("row %d col %d renders %q, want %q", i, j, b.String(), a.String())
			}
		}
	}
}

func TestSpillPageRoundTripEmpty(t *testing.T) {
	got, err := decodeSpillPage(encodeSpillPage(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestBufferWindowsMatchMaterialised is the streaming arm of the
// equivalence corpus: every GetTuples window served out of a buffer —
// in memory or spilled — must encode byte-identically to the clamped
// rows of the materialised set, for every codec.
func TestBufferWindowsMatchMaterialised(t *testing.T) {
	rs := corpusSet(103)
	windows := [][2]int{{1, 10}, {5, 7}, {97, 100}, {1, 103}, {200, 5}, {3, 0}, {-4, 6}, {103, 1}}
	reg := NewRegistry()
	configs := map[string]BufferConfig{
		"in-memory": {PageRows: 16},
		"spilled": {
			PageRows: 16,
			MemCap:   1, // force every sealed page out
			Spill:    filestore.NewStore("spill-test"),
		},
	}
	for cfgName, cfg := range configs {
		cfg.SpillName = "corpus.spill"
		buf := NewBuffer(NewSetSource(rs), cfg)
		if _, err := buf.FinalCount(context.Background()); err != nil {
			t.Fatal(err)
		}
		if cfgName == "spilled" && buf.SpilledBytes() == 0 {
			t.Fatal("expected pages to spill")
		}
		for _, uri := range reg.URIs() {
			codec, err := reg.Lookup(uri)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				start, count := w[0], w[1]
				from, to := windowRange(len(rs.Rows), start, count)
				want := codec.AppendWindow(nil, rs.Columns, rs.Rows[from:to])
				page, err := buf.Window(context.Background(), start, count)
				if err != nil {
					t.Fatal(err)
				}
				got, err := codec.Encode(page)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s window (%d,%d): streamed page differs from materialised:\n%s\n---\n%s",
						cfgName, uri, start, count, got, want)
				}
			}
		}
		buf.Release()
	}
}

// scriptedSource yields rs in batches of at most batch rows (one when
// unset), calling before, when set, with the position each batch starts
// at: to delay the batch, to block it, or to end production there with
// the error it returns.
type scriptedSource struct {
	rs     *sqlengine.ResultSet
	pos    int
	batch  int
	before func(pos int) error
}

func (s *scriptedSource) Columns() []sqlengine.ResultColumn { return s.rs.Columns }

func (s *scriptedSource) NextBatch() ([][]sqlengine.Value, error) {
	if s.before != nil {
		if err := s.before(s.pos); err != nil {
			return nil, err
		}
	}
	if s.pos >= len(s.rs.Rows) {
		return nil, io.EOF
	}
	end := min(s.pos+max(s.batch, 1), len(s.rs.Rows))
	rows := s.rs.Rows[s.pos:end:end]
	s.pos = end
	return rows, nil
}

func (s *scriptedSource) Close() error { return nil }

// slowSource trickles rows out one at a time with a tiny delay so reads
// genuinely overlap production.
func slowSource(rs *sqlengine.ResultSet, delay time.Duration) *scriptedSource {
	return &scriptedSource{rs: rs, before: func(int) error { time.Sleep(delay); return nil }}
}

func TestBufferWindowBlocksForTail(t *testing.T) {
	rs := corpusSet(50)
	buf := NewBuffer(slowSource(rs, 200*time.Microsecond), BufferConfig{PageRows: 8})
	defer buf.Release()
	// Ask for the tail immediately: the call must block until rows 41..50
	// exist, then return exactly them.
	set, err := buf.Window(context.Background(), 41, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 10 || set.Rows[0][0].I != 40 || set.Rows[9][0].I != 49 {
		t.Fatalf("tail window = %d rows, first %v", len(set.Rows), set.Rows[0][0])
	}
	n, err := buf.FinalCount(context.Background())
	if err != nil || n != 50 {
		t.Fatalf("final count = %d, %v", n, err)
	}
}

// TestBufferHugeCountWaitsForProduction: a window whose Count reaches
// past any row count — math.MaxInt, which a GetTuples request may carry
// — on a buffer still producing waits for the end and returns every row
// from its start, instead of an empty page that looks complete.
func TestBufferHugeCountWaitsForProduction(t *testing.T) {
	rs := corpusSet(50)
	gate := make(chan struct{})
	// Ten rows, then production waits for the gate.
	src := &scriptedSource{rs: rs, batch: 5, before: func(pos int) error {
		if pos >= 10 {
			<-gate
		}
		return nil
	}}
	buf := NewBuffer(src, BufferConfig{PageRows: 8})
	defer buf.Release()
	time.AfterFunc(20*time.Millisecond, func() { close(gate) })
	pages, err := buf.Pages(context.Background(), 2, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if n := countRows(pages); n != 49 || pages[0][0][0].I != 1 {
		t.Fatalf("window (2, MaxInt) = %d rows; want the 49 from id 1", n)
	}
}

func TestBufferWindowHonoursContext(t *testing.T) {
	rs := corpusSet(5)
	blocked := make(chan struct{})
	// Three rows, then production blocks until released.
	src := &scriptedSource{rs: rs, before: func(pos int) error {
		if pos >= 3 {
			<-blocked
			return io.EOF
		}
		return nil
	}}
	buf := NewBuffer(src, BufferConfig{PageRows: 2})
	defer buf.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := buf.Window(ctx, 1, 5); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	close(blocked)
}

func TestBufferProductionErrorSurfaces(t *testing.T) {
	rs := corpusSet(20)
	// Seven rows, then production fails.
	src := &scriptedSource{rs: rs, before: func(pos int) error {
		if pos >= 7 {
			return fmt.Errorf("mid-stream failure")
		}
		return nil
	}}
	buf := NewBuffer(src, BufferConfig{PageRows: 4})
	defer buf.Release()
	if _, err := buf.FinalCount(context.Background()); err == nil {
		t.Fatal("final count over failed production should error")
	}
	// Once production has failed, even a window over already-produced
	// rows reports the failure: a partial result from a failed query
	// must never be served.
	if _, err := buf.Window(context.Background(), 1, 2); err == nil {
		t.Fatal("window over failed production should error")
	}
	if buf.Err() == nil {
		t.Fatal("Err should report the production failure")
	}
}

func TestBufferReleaseDeletesSpillAndStopsProducer(t *testing.T) {
	store := filestore.NewStore("spill-test")
	rs := corpusSet(200)
	buf := NewBuffer(slowSource(rs, 50*time.Microsecond), BufferConfig{
		PageRows:  8,
		MemCap:    1,
		Spill:     store,
		SpillName: "victim.spill",
	})
	// Wait until something has spilled, then walk away mid-production.
	for buf.SpilledBytes() == 0 && !buf.Done() {
		time.Sleep(time.Millisecond)
	}
	buf.Release()
	deadline := time.Now().Add(2 * time.Second)
	for store.Count() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if store.Count() != 0 {
		t.Fatalf("spill file survived release: %d files", store.Count())
	}
	if _, err := buf.Window(context.Background(), 1, 1); err == nil {
		t.Fatal("window after release should error")
	}
}

func TestBufferRefCounting(t *testing.T) {
	rs := corpusSet(10)
	buf := NewBuffer(NewSetSource(rs), BufferConfig{PageRows: 4})
	buf.Retain()
	buf.Release() // drops the Retain
	if _, err := buf.Window(context.Background(), 1, 10); err != nil {
		t.Fatalf("buffer died with a live reference: %v", err)
	}
	buf.Release() // drops the initial reference
	if _, err := buf.Window(context.Background(), 1, 1); err == nil {
		t.Fatal("window after last release should error")
	}
}

func TestBufferHooksObserveProductionAndSpill(t *testing.T) {
	var mu sync.Mutex
	var produced, depth, batches int
	var spilledBytes int64
	var busy time.Duration
	hooks := Hooks{
		RowsProduced:  func(n int) { mu.Lock(); produced += n; mu.Unlock() },
		BatchProduced: func(d time.Duration) { mu.Lock(); batches++; busy += d; mu.Unlock() },
		SpilledBytes:  func(n int64) { mu.Lock(); spilledBytes += n; mu.Unlock() },
		BufferDepth:   func(d int) { mu.Lock(); depth += d; mu.Unlock() },
	}
	store := filestore.NewStore("spill-test")
	rs := corpusSet(100)
	// Batches of seven rows, each of them a millisecond in the making.
	src := &scriptedSource{rs: rs, batch: 7, before: func(int) error { time.Sleep(time.Millisecond); return nil }}
	buf := NewBuffer(src, BufferConfig{
		PageRows: 10, MemCap: 1, Spill: store, SpillName: "hooked.spill", Hooks: hooks,
	})
	if _, err := buf.FinalCount(context.Background()); err != nil {
		t.Fatal(err)
	}
	buf.Release()
	mu.Lock()
	defer mu.Unlock()
	if produced != 100 {
		t.Fatalf("produced = %d, want 100", produced)
	}
	if batches != 15 || busy < 15*time.Millisecond {
		t.Fatalf("%d batches in %v of production, want 15 in 15ms or more", batches, busy)
	}
	if spilledBytes == 0 {
		t.Fatal("no spill observed")
	}
	if depth != 0 {
		t.Fatalf("depth should return to zero after release, got %d", depth)
	}
}

// TestBufferConcurrentReaders hammers one spilling buffer from many
// goroutines while it is still producing — the service-side shape of
// concurrent chunked fetch — and checks every window against the
// source. Run with -race this doubles as the locking proof.
func TestBufferConcurrentReaders(t *testing.T) {
	rs := corpusSet(600)
	store := filestore.NewStore("spill-test")
	buf := NewBuffer(slowSource(rs, 5*time.Microsecond), BufferConfig{
		PageRows: 32, MemCap: 4096, Spill: store, SpillName: "conc.spill",
	})
	defer buf.Release()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				start := (w*37+i*61)%600 + 1
				count := 50
				set, err := buf.Window(context.Background(), start, count)
				if err != nil {
					errs <- err
					return
				}
				from, to := windowRange(600, start, count)
				if len(set.Rows) > to-from {
					errs <- fmt.Errorf("window (%d,%d): %d rows, want at most %d", start, count, len(set.Rows), to-from)
					return
				}
				for j, row := range set.Rows {
					if row[0].I != int64(from+j) {
						errs <- fmt.Errorf("window (%d,%d) row %d: id %d, want %d", start, count, j, row[0].I, from+j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
