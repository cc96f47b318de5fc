package service_test

// What a reply looks like on the wire since GetTuples renders a window
// straight from the buffer's pages into the reply's own buffer: its
// length is stated, every fault is decided before a byte of it is
// written, and windows rendered at the same time share nothing.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/sqlengine"
)

// replyRecorder is a transport that notes, for every reply, what the
// framing said and what the body held.
type replyRecorder struct {
	mu      sync.Mutex
	replies []recordedReply
}

type recordedReply struct {
	status        int
	contentLength int64
	chunked       bool
	body          int
}

func (r *replyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.replies = append(r.replies, recordedReply{resp.StatusCode, resp.ContentLength, len(resp.TransferEncoding) > 0, len(body)})
	r.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func (r *replyRecorder) last() recordedReply {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replies[len(r.replies)-1]
}

// TestRepliesStateTheirLength: the server holds the whole reply before
// it writes the status line, so it says how long it is — a point reply,
// a bulk window and a fault alike — and net/http has nothing to frame
// in chunks.
func TestRepliesStateTheirLength(t *testing.T) {
	ref, _, _ := streamingFixture(t, 6000, 1<<30)
	rec := &replyRecorder{}
	c := client.New(&http.Client{Transport: rec})
	ctx := context.Background()
	check := func(what string, wantStatus, atLeast int) {
		t.Helper()
		got := rec.last()
		if got.status != wantStatus || got.chunked || got.contentLength != int64(got.body) || got.body < atLeast {
			t.Fatalf("%s: status %d, Content-Length %d, chunked %v, body %d bytes (want status %d, the body's length stated, at least %d bytes)",
				what, got.status, got.contentLength, got.chunked, got.body, wantStatus, atLeast)
		}
	}

	if _, err := c.SQLExecute(ctx, ref, `SELECT id, tag, v FROM pts WHERE id < 40`, nil, ""); err != nil {
		t.Fatal(err)
	}
	check("point reply", http.StatusOK, 2048) // over net/http's chunking threshold

	rowsetRef := indirectRowset(t, c, ref, `SELECT id, tag, v FROM pts`)
	set, err := c.GetTuplesSet(ctx, rowsetRef, 1, 4096)
	if err != nil || len(set.Rows) != 4096 {
		t.Fatalf("bulk window: %d rows, %v", len(set.Rows), err)
	}
	check("bulk window", http.StatusOK, 200<<10)

	_, err = c.GetTuplesSet(ctx, client.Ref(rowsetRef.Address, "urn:dais:no-such-rowset"), 1, 10)
	if err == nil {
		t.Fatal("GetTuples on an unknown resource succeeded")
	}
	check("fault", http.StatusInternalServerError, 100)
}

// statusCounter counts the status lines a handler writes per request.
type statusCounter struct {
	http.ResponseWriter
	writes *atomic.Int64
}

func (s statusCounter) WriteHeader(code int) {
	s.writes.Add(1)
	s.ResponseWriter.WriteHeader(code)
}

// TestGetTuplesFaultsBeforeTheReply: a window that cannot be served — the
// producer failed, the rowset was destroyed — is found out before any of
// the reply is rendered: the consumer gets the typed fault it always
// got, in a reply whose status is written once.
func TestGetTuplesFaultsBeforeTheReply(t *testing.T) {
	eng := sqlengine.New("big")
	eng.MustExec(`CREATE TABLE pts (id INTEGER PRIMARY KEY, v DOUBLE)`)
	for i := 0; i < 6000; i += 500 {
		stmt := "INSERT INTO pts VALUES "
		for j := i; j < i+500; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, %g)", j, float64(j)*0.5)
		}
		eng.MustExec(stmt)
	}
	res := dair.NewSQLDataResource(eng, dair.WithStreamDelivery(rowset.BufferConfig{PageRows: 1024}))
	svc := core.NewDataService("relational", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc)
	ep.Register(res)
	var statusLines, requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		ep.ServeHTTP(statusCounter{w, &statusLines}, r)
	}))
	t.Cleanup(ts.Close)
	svc.SetAddress(ts.URL)
	ref := client.Ref(svc.Address(), res.AbstractName())
	c := client.New(nil)
	ctx := context.Background()

	// Production fails at row 5000, long after the first pages sealed.
	failing := indirectRowset(t, c, ref, `SELECT id, 1 / (id - 5000) FROM pts WHERE id >= 0`)
	var ief *core.InvalidExpressionFault
	if _, err := c.GetTuplesSet(ctx, failing, 4097, 4096); !errors.As(err, &ief) {
		t.Fatalf("window over the failure: err = %v, want InvalidExpressionFault", err)
	}
	if _, err := c.GetTuplesSet(ctx, failing, 1, 100); !errors.As(err, &ief) {
		t.Fatalf("window before the failure, after it: err = %v, want InvalidExpressionFault", err)
	}

	// A window in flight when its rowset goes away.
	doomed := indirectRowset(t, c, ref, `SELECT id, v FROM pts WHERE id >= 0`)
	if set, err := c.GetTuplesSet(ctx, doomed, 1, 4096); err != nil || len(set.Rows) != 4096 {
		t.Fatalf("window of a live rowset: %d rows, %v", len(set.Rows), err)
	}
	if err := c.DestroyDataResource(ctx, doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetTuplesSet(ctx, doomed, 1, 4096); err == nil {
		t.Fatal("window of a destroyed rowset succeeded")
	}
	if s, r := statusLines.Load(), requests.Load(); s != r {
		t.Fatalf("%d status lines for %d requests", s, r)
	}
}

// TestConcurrentGetTuplesShareNothing: windows of one resource rendered
// at the same time — each into the pooled buffer of its own reply — come
// out as the bytes the codec gives for those rows, every time. Run under
// the race detector (make stream-chaos does).
func TestConcurrentGetTuplesShareNothing(t *testing.T) {
	const rows, window = 9000, 2000
	ref, _, _ := streamingFixture(t, rows, 64<<10) // the older pages spill
	c := client.New(nil)
	ctx := context.Background()
	rowsetRef := indirectRowset(t, c, ref, `SELECT id, tag, v FROM pts WHERE id >= 0`)
	whole, err := c.FetchRowset(ctx, rowsetRef, client.FetchOptions{ChunkRows: rows})
	if err != nil || len(whole.Rows) != rows {
		t.Fatalf("fetched %d rows: %v", len(whole.Rows), err)
	}
	var want [][]byte
	for from := 0; from < rows; from += window {
		want = append(want, rowset.SQLRowsetCodec{}.AppendWindow(nil, whole.Columns, whole.Rows[from:min(from+window, rows)]))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				w := (g + i) % len(want)
				got, _, err := c.GetTuples(ctx, rowsetRef, 1+w*window, window)
				if err != nil {
					t.Errorf("window %d: %v", w, err)
					return
				}
				if !bytes.Equal(got, want[w]) {
					t.Errorf("window %d: %d bytes differ from the codec's %d", w, len(got), len(want[w]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
