package sqlengine_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dais/internal/filestore"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
)

// batchEngine seeds t (id INTEGER PRIMARY KEY, tag VARCHAR, num DOUBLE)
// with an ordered index on id: the shape of the benchmark's bulk table,
// with NULLs and strings that need escaping mixed in.
func batchEngine(t testing.TB, rows int, opts ...sqlengine.Option) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.New("batches", opts...)
	e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, tag VARCHAR(32), num DOUBLE)`)
	e.MustExec(`CREATE ORDERED INDEX t_id_ord ON t (id)`)
	tags := []string{"plain", "a,b", `q"uote`, "<&>", "", `\N`, " lead", "line\nbreak"}
	for i := 0; i < rows; i += 500 {
		stmt := "INSERT INTO t VALUES "
		var params []sqlengine.Value
		for j := i; j < i+500 && j < rows; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += "(?, ?, ?)"
			tag, num := sqlengine.NewString(tags[j%len(tags)]), sqlengine.NewDouble(float64(j)/4)
			if j%11 == 0 {
				tag = sqlengine.Null
			}
			if j%13 == 0 {
				num = sqlengine.Null
			}
			params = append(params, sqlengine.NewInt(int64(j)), tag, num)
		}
		if _, err := e.NewSession().Execute(stmt, params...); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// The two sources a streamed scan draws from, by the switch that selects
// them. With the planner off a SELECT is executed and replayed instead.
var producers = []struct {
	name              string
	noPlanner, noVect bool
}{
	{"row IDs", false, true},
	{"kernels", false, false}, // where the plan has a vector annotation
}

// TestStreamedBatchesMatchMaterialised is the batch-boundary
// differential: for row counts on either side of every batch and window
// boundary, statements that take each projection (identity, gather,
// computed) and each access path (full scan, index range, selective
// filter), random OFFSET/LIMIT, page sizes and spilling, the bytes every
// codec renders for random windows of the streamed result — asked for
// while it is still being produced — are the bytes it renders for the
// same window of the interpreter's result, and with the planner off the
// stream is that result replayed. Run under -race (make check).
func TestStreamedBatchesMatchMaterialised(t *testing.T) {
	counts := []int{0, 1, 1023, 1024, 1025, 4097}
	if testing.Short() {
		counts = []int{0, 1, 1025}
	}
	statements := []struct {
		sql    string
		params func(n int, rng *rand.Rand) []sqlengine.Value
	}{
		{`SELECT id, tag, num FROM t`, nil},
		{`SELECT * FROM t WHERE id >= ?`, func(n int, rng *rand.Rand) []sqlengine.Value {
			return []sqlengine.Value{sqlengine.NewInt(int64(rng.Intn(n/3 + 1)))}
		}},
		{`SELECT num, id FROM t WHERE id BETWEEN ? AND ?`, func(n int, rng *rand.Rand) []sqlengine.Value {
			return []sqlengine.Value{sqlengine.NewInt(int64(rng.Intn(n/4 + 1))), sqlengine.NewInt(int64(n - rng.Intn(n/4+1)))}
		}},
		{`SELECT id * 2, tag FROM t WHERE num > ?`, func(n int, rng *rand.Rand) []sqlengine.Value {
			return []sqlengine.Value{sqlengine.NewDouble(float64(rng.Intn(n/8 + 1)))}
		}},
		// One survivor in 97: batches close on input rows, not output rows.
		{`SELECT id, tag, num FROM t WHERE num * 4 = id AND id - (id / 97) * 97 = 0`, nil},
	}
	replayed := producers[0]
	replayed.name, replayed.noPlanner = "replayed", true
	reg := rowset.NewRegistry()
	for ci, n := range counts {
		e := batchEngine(t, n)
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		for _, st := range statements {
			sql := st.sql
			switch rng.Intn(3) {
			case 1:
				sql += fmt.Sprintf(" LIMIT %d", rng.Intn(n+2))
			case 2:
				sql += fmt.Sprintf(" LIMIT %d OFFSET %d", rng.Intn(n+2), rng.Intn(n/2+2))
			}
			var params []sqlengine.Value
			if st.params != nil {
				params = st.params(n, rng)
			}
			e.SetPlannerDisabled(true)
			want, err := e.NewSession().Execute(sql, params...)
			e.SetPlannerDisabled(false)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for _, prod := range append(producers, replayed) {
				cfg := rowset.BufferConfig{PageRows: []int{1, 7, 1000, 1024, 5000}[rng.Intn(5)]}
				if rng.Intn(2) == 0 {
					cfg.MemCap, cfg.Spill, cfg.SpillName = 1, filestore.NewStore("spill"), "diff.spill"
				}
				name := fmt.Sprintf("rows=%d/%s/%s/page=%d/spill=%v", n, prod.name, sql, cfg.PageRows, cfg.Spill != nil)
				e.SetPlannerDisabled(prod.noPlanner)
				e.SetVectorDisabled(prod.noVect)
				stream, err := e.NewSession().ExecuteStream(context.Background(), sql, params...)
				e.SetPlannerDisabled(false)
				e.SetVectorDisabled(false)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stream.Streaming() == prod.noPlanner {
					t.Fatalf("%s: Streaming() = %v", name, stream.Streaming())
				}
				buf := rowset.NewBuffer(stream, cfg)
				total := len(want.Set.Rows)
				// Mid-production: the windows race the producer, from
				// several goroutines at once.
				var wg sync.WaitGroup
				for g := 0; g < 3; g++ {
					windows := [][2]int{{1, total + 1}, {total, 2}, {total + 1, 1}}
					for w := 0; w < 4; w++ {
						windows = append(windows, [2]int{1 + rng.Intn(total+1), rng.Intn(2 * rowsetWindow)})
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, w := range windows {
							page, err := buf.Window(context.Background(), w[0], w[1])
							if err != nil {
								t.Errorf("%s window %v: %v", name, w, err)
								return
							}
							from := min(max(w[0], 1)-1, total)
							rows := want.Set.Rows[from:min(from+w[1], total)]
							for _, uri := range reg.URIs() {
								codec, _ := reg.Lookup(uri)
								got, err := codec.Encode(page)
								if err != nil {
									t.Errorf("%s window %v: %v", name, w, err)
									return
								}
								if exp := codec.AppendWindow(nil, want.Set.Columns, rows); !bytes.Equal(got, exp) {
									t.Errorf("%s window %v %s: streamed bytes differ from materialised", name, w, uri)
									return
								}
							}
						}
					}()
				}
				wg.Wait()
				if got, err := buf.FinalCount(context.Background()); err != nil || got != total {
					t.Errorf("%s: final count %d (%v), want %d", name, got, err, total)
				}
				if res, err := stream.Result(); err != nil || res.CA != want.CA {
					t.Errorf("%s: CA %+v (%v), want %+v", name, res, err, want.CA)
				}
				buf.Release()
				if t.Failed() {
					return
				}
			}
		}
	}
}

// rowsetWindow is the benchmark's window size.
const rowsetWindow = 4096

// TestNextBatchBounds: a batch is never empty and never longer than
// 1 024 rows, whatever produced it, and a selective scan hands over
// what it has found after 1 024 input rows instead of waiting to fill
// one.
func TestNextBatchBounds(t *testing.T) {
	e := batchEngine(t, 5000)
	for _, prod := range producers {
		for _, sql := range []string{
			`SELECT * FROM t`,
			`SELECT id FROM t WHERE id - (id / 97) * 97 = 0`,
			`SELECT COUNT(*) FROM t`, // materialised fallback
		} {
			e.SetPlannerDisabled(prod.noPlanner)
			e.SetVectorDisabled(prod.noVect)
			stream, err := e.NewSession().ExecuteStream(context.Background(), sql)
			e.SetPlannerDisabled(false)
			e.SetVectorDisabled(false)
			if err != nil {
				t.Fatal(err)
			}
			batches := 0
			for {
				batch, err := stream.NextBatch()
				if err != nil {
					break
				}
				batches++
				if len(batch) == 0 || len(batch) > 1024 {
					t.Fatalf("%s/%s: batch of %d rows", prod.name, sql, len(batch))
				}
			}
			if want := map[bool]int{true: 5, false: 1}[stream.Streaming()]; batches != want {
				t.Fatalf("%s/%s: %d batches, want %d", prod.name, sql, batches, want)
			}
		}
	}
}

// TestAbandonedStreamFreesLocksAndProducer: closing a stream, or
// releasing the buffer that drains one, part-way through frees the
// producer goroutine and the session's read locks within a batch: the
// goroutine count returns to where it was and DDL on the table goes
// through.
func TestAbandonedStreamFreesLocksAndProducer(t *testing.T) {
	e := batchEngine(t, 20000)
	abandon := map[string]func(*sqlengine.RowStream){
		"Close after one row": func(s *sqlengine.RowStream) {
			if _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
			s.Close()
		},
		"Close untouched": func(s *sqlengine.RowStream) { s.Close() },
		"Release mid-production": func(s *sqlengine.RowStream) {
			buf := rowset.NewBuffer(s, rowset.BufferConfig{})
			if _, err := buf.Window(context.Background(), 1500, 10); err != nil {
				t.Fatal(err)
			}
			buf.Release()
		},
	}
	for name, drop := range abandon {
		for _, prod := range producers {
			baseline := runtime.NumGoroutine()
			e.SetPlannerDisabled(prod.noPlanner)
			e.SetVectorDisabled(prod.noVect)
			stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT id, tag, num FROM t WHERE id >= 0`)
			e.SetPlannerDisabled(false)
			e.SetVectorDisabled(false)
			if err != nil {
				t.Fatal(err)
			}
			drop(stream)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%s/%s: %d goroutines, %d before the stream", name, prod.name, n, baseline)
			}
			done := make(chan error, 1)
			go func() {
				_, err := e.NewSession().Execute(`CREATE INDEX t_tag ON t (tag)`)
				if err == nil {
					_, err = e.NewSession().Execute(`DROP INDEX t_tag`)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s/%s: DDL after the stream: %v", name, prod.name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s/%s: DDL blocked: the abandoned stream kept its locks", name, prod.name)
			}
		}
	}
}
