package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/filestore"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
)

// E15Row is one configuration of experiment E15 (streaming result
// pipeline throughput): a full end-to-end fetch of a large rowset
// through the factory chain, varying chunk parallelism and whether the
// server-side buffer spills to disk.
type E15Row struct {
	Spill        bool          `json:"spill"`
	Chunks       int           `json:"chunks"`
	Rows         int           `json:"rows"`
	WireBytes    int64         `json:"wire_bytes"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	MBPerSec     float64       `json:"mb_per_sec"`
	RowsPerSec   float64       `json:"rows_per_sec"`
	SpilledBytes int64         `json:"spilled_bytes"`
}

// NewStreamFixture serves a streaming relational resource seeded with
// rows three-column rows (ordered index on id, like the benchmark's
// bulk table), buffering through the given memory cap.
func NewStreamFixture(rows int, memCap int64) (*SQLFixture, *filestore.Store, error) {
	eng := sqlengine.New("bench")
	eng.MustExec(`CREATE TABLE data (id INTEGER PRIMARY KEY, payload VARCHAR(64), num DOUBLE)`)
	eng.MustExec(`CREATE ORDERED INDEX data_id_ord ON data (id)`)
	// Batch inserts: a million single-row Executes would dominate the
	// fixture setup, and the seeding is not what E15 measures.
	var sb strings.Builder
	for i := 0; i < rows; i += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO data VALUES ")
		for j := i; j < i+1000 && j < rows; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'row-%06d-payload-abcdefghij', %g)", j, j, float64(j)*1.5)
		}
		eng.MustExec(sb.String())
	}

	obs := telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	store := filestore.NewStore("rowset-spill")
	res := dair.NewSQLDataResource(eng, dair.WithStreamDelivery(rowset.BufferConfig{
		MemCap: memCap,
		Spill:  store,
		Hooks:  service.RowsetStreamHooks(obs.Registry),
	}))
	svc := core.NewDataService("bench",
		core.WithConcurrentAccess(true),
		core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithTelemetry(obs))
	ep.Register(res)

	f := &SQLFixture{Engine: eng, Resource: res, Endpoint: ep, Obs: obs,
		Client: client.NewObserved(nil, obs)}
	if err := f.serve(ep); err != nil {
		return nil, nil, err
	}
	f.Ref = client.Ref(svc.Address(), res.AbstractName())
	return f, store, nil
}

// RunE15 measures end-to-end throughput of the streaming result
// pipeline: SQLExecuteFactory → SQLRowsetFactory → chunked GetTuples
// reassembly, for each chunk-parallelism level, with the server buffer
// kept fully in memory (spill off) and forced fully to disk (spill
// on). Every configuration must return exactly rows rows; wire bytes
// and wall time give the delivered bandwidth.
func RunE15(rows int, chunkCounts []int) ([]E15Row, error) {
	var out []E15Row
	for _, spill := range []bool{false, true} {
		memCap := int64(1 << 62) // effectively unbounded: never spills
		if spill {
			memCap = 1 // every completed page goes to disk
		}
		f, store, err := NewStreamFixture(rows, memCap)
		if err != nil {
			return nil, err
		}
		for _, chunks := range chunkCounts {
			row, err := e15Fetch(f, store, rows, chunks, spill)
			if err != nil {
				f.Close()
				return nil, err
			}
			out = append(out, row)
		}
		f.Close()
	}
	return out, nil
}

// e15Fetch runs one measured configuration against a live fixture.
func e15Fetch(f *SQLFixture, store *filestore.Store, rows, chunks int, spill bool) (E15Row, error) {
	ctx := context.Background()
	respRef, err := f.Client.SQLExecuteFactory(ctx, f.Ref, `SELECT id, payload, num FROM data`, nil, nil)
	if err != nil {
		return E15Row{}, err
	}
	rowsetRef, err := f.Client.SQLRowsetFactory(ctx, respRef, rowset.FormatSQLRowset, 0, nil)
	if err != nil {
		return E15Row{}, err
	}
	f.Client.ResetCounters()
	start := time.Now()
	got := 0
	err = f.Client.FetchPages(ctx, rowsetRef, client.FetchOptions{Chunks: chunks, ChunkRows: 4096},
		func(set *sqlengine.ResultSet) error {
			got += len(set.Rows)
			return nil
		})
	if err != nil {
		return E15Row{}, err
	}
	elapsed := time.Since(start)
	if got != rows {
		return E15Row{}, fmt.Errorf("E15: fetched %d rows, want %d (chunks=%d spill=%v)", got, rows, chunks, spill)
	}
	spilled := store.TotalSize()
	if spill && spilled == 0 {
		return E15Row{}, fmt.Errorf("E15: spill mode produced no spilled bytes")
	}
	wire := f.Client.BytesReceived()
	// Release the derived resources (and with them the buffer and its
	// spill file) before the next configuration runs.
	if err := f.Client.DestroyDataResource(ctx, rowsetRef); err != nil {
		return E15Row{}, err
	}
	if err := f.Client.DestroyDataResource(ctx, respRef); err != nil {
		return E15Row{}, err
	}
	secs := elapsed.Seconds()
	return E15Row{
		Spill:        spill,
		Chunks:       chunks,
		Rows:         rows,
		WireBytes:    wire,
		Elapsed:      elapsed,
		MBPerSec:     float64(wire) / (1 << 20) / secs,
		RowsPerSec:   float64(rows) / secs,
		SpilledBytes: spilled,
	}, nil
}
