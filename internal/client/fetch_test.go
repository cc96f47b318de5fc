package client

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// fetchFixture hosts a rowset resource with ids 0..rows-1 and returns
// its ref.
func fetchFixture(t testing.TB, rows int) (ResourceRef, *Client) {
	t.Helper()
	eng := sqlengine.New("fetch")
	eng.MustExec(`CREATE TABLE n (id INTEGER PRIMARY KEY, tag VARCHAR(16))`)
	for i := 0; i < rows; i += 500 {
		stmt := "INSERT INTO n VALUES "
		for j := i; j < i+500 && j < rows; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 't%03d')", j, j%7)
		}
		eng.MustExec(stmt)
	}
	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService("fetch", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc)
	ep.Register(res)
	ts := httptest.NewServer(ep)
	t.Cleanup(ts.Close)
	svc.SetAddress(ts.URL)
	c := New(nil)
	ctx := context.Background()
	respRef, err := c.SQLExecuteFactory(ctx, Ref(ts.URL, res.AbstractName()), `SELECT id, tag FROM n`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowsetRef, err := c.SQLRowsetFactory(ctx, respRef, rowset.FormatSQLRowset, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rowsetRef, c
}

// TestFetchRowsetChunkedMatchesSequential: whatever the parallelism and
// chunk size — including resources that end exactly on a chunk
// boundary — the assembled result must equal the single-window fetch.
func TestFetchRowsetChunkedMatchesSequential(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 256, 1000} {
		t.Run(fmt.Sprintf("%d rows", rows), func(t *testing.T) {
			ref, c := fetchFixture(t, rows)
			ctx := context.Background()
			base, err := c.GetTuplesSet(ctx, ref, 1, rows+1)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []FetchOptions{
				{},                           // defaults: sequential
				{Chunks: 4, ChunkRows: 64},   // parallel, small windows
				{Chunks: 8, ChunkRows: 250},  // boundary-aligned for 1000
				{Chunks: 3, ChunkRows: 1024}, // windows larger than resource
			} {
				got, err := c.FetchRowset(ctx, ref, opts)
				if err != nil {
					t.Fatalf("opts %+v: %v", opts, err)
				}
				if len(got.Rows) != len(base.Rows) {
					t.Fatalf("opts %+v: rows = %d, want %d", opts, len(got.Rows), len(base.Rows))
				}
				if len(base.Rows) > 0 && !reflect.DeepEqual(got.Rows, base.Rows) {
					t.Fatalf("opts %+v: rows diverged", opts)
				}
			}
		})
	}
}

func TestFetchPagesInOrder(t *testing.T) {
	ref, c := fetchFixture(t, 990)
	var next int64
	err := c.FetchPages(context.Background(), ref, FetchOptions{Chunks: 6, ChunkRows: 100},
		func(set *sqlengine.ResultSet) error {
			if len(set.Rows) == 0 {
				return errors.New("empty page emitted")
			}
			for _, r := range set.Rows {
				if r[0].I != next {
					return fmt.Errorf("row %d arrived when %d was expected", r[0].I, next)
				}
				next++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != 990 {
		t.Fatalf("saw %d rows, want 990", next)
	}
}

func TestFetchPagesEmitErrorAborts(t *testing.T) {
	ref, c := fetchFixture(t, 500)
	boom := errors.New("downstream full")
	calls := 0
	err := c.FetchPages(context.Background(), ref, FetchOptions{Chunks: 4, ChunkRows: 50},
		func(set *sqlengine.ResultSet) error {
			calls++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after abort", calls)
	}
}

func TestFetchContextCancelled(t *testing.T) {
	ref, c := fetchFixture(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.FetchRowset(ctx, ref, FetchOptions{Chunks: 2}); err == nil {
		t.Fatal("expected context error")
	}
}

// TestFetchHammerNothingAliasesThePooledBuffer: response bodies are read
// into pooled buffers that the next exchange overwrites, so nothing a
// fetch hands out — decoded cells, or the verbatim Raw span a Dataset
// arrives as — may point into one. Fetchers run concurrently (under
// -race a shared buffer is a reported race, not only a wrong value),
// keep everything they received, and check it all once the pool has
// been churned by everyone else.
func TestFetchHammerNothingAliasesThePooledBuffer(t *testing.T) {
	const rows, fetchers, rounds = 1500, 6, 4
	ref, c := fetchFixture(t, rows)
	ctx := context.Background()

	type rawSpan struct {
		got  xmlutil.Raw
		want string // a private copy, taken on arrival
	}
	var (
		wg    sync.WaitGroup
		pages [fetchers][]*sqlengine.ResultSet
		spans [fetchers][]rawSpan
	)
	for f := 0; f < fetchers; f++ {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				err := c.FetchPages(ctx, ref, FetchOptions{Chunks: 3, ChunkRows: 61 + 10*f},
					func(set *sqlengine.ResultSet) error {
						pages[f] = append(pages[f], set)
						return nil
					})
				if err != nil {
					t.Errorf("fetcher %d: %v", f, err)
					return
				}
				// One window's reply as parsed, its Dataset kept verbatim.
				body := ops.GetTuples.NewRequest(ref.AbstractName)
				ops.PageMsg{Start: 1 + 100*r, Count: 200}.Encode(ops.GetTuples, body)
				resp, err := c.call(ops.WithCallInfo(ctx, ops.GetTuples.Info()), ref.Address, ops.GetTuples.Action, body)
				if err != nil {
					t.Errorf("fetcher %d: %v", f, err)
					return
				}
				ds := resp.Find(core.NSDAI, "Dataset")
				if ds == nil || len(ds.Children) != 1 {
					t.Errorf("fetcher %d: reply has no single-child Dataset", f)
					return
				}
				raw, ok := ds.Children[0].(xmlutil.Raw)
				if !ok {
					t.Errorf("fetcher %d: Dataset content is %T, want the verbatim span", f, ds.Children[0])
					return
				}
				spans[f] = append(spans[f], rawSpan{got: raw, want: strings.Clone(string(raw))})
			}
		}()
	}
	wg.Wait()

	for f := range pages {
		next := int64(0)
		for _, set := range pages[f] {
			for _, row := range set.Rows {
				id := next % rows
				if row[0].I != id || row[1].S != fmt.Sprintf("t%03d", id%7) {
					t.Fatalf("fetcher %d: row %d decoded as (%d, %q) once its buffer was reused", f, next, row[0].I, row[1].S)
				}
				next++
			}
		}
		if next != rows*rounds {
			t.Fatalf("fetcher %d kept %d rows, want %d", f, next, rows*rounds)
		}
		for i, s := range spans[f] {
			if string(s.got) != s.want {
				t.Fatalf("fetcher %d: Raw span %d changed after its buffer went back to the pool", f, i)
			}
			set, err := rowset.SQLRowsetCodec{}.Decode([]byte(s.got))
			if err != nil || len(set.Rows) != 200 || set.Rows[0][0].I != int64(100*i) {
				t.Fatalf("fetcher %d: Raw span %d no longer decodes to its window: %v", f, i, err)
			}
		}
	}
}
