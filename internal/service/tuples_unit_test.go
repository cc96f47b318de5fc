package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
)

func tuplesResource(t *testing.T, rows int) *dair.SQLRowsetResource {
	t.Helper()
	set := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{{Name: "id", Type: sqlengine.TypeInteger}},
	}
	for i := 0; i < rows; i++ {
		set.Rows = append(set.Rows, []sqlengine.Value{sqlengine.NewInt(int64(i))})
	}
	res, err := dair.NewSQLRowsetResource("parent", rowset.NewBuffer(rowset.NewSetSource(set), rowset.BufferConfig{}), "", core.DefaultConfiguration())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Release() })
	return res
}

// TestNormalizeTuplesWindow is the single point of truth for GetTuples
// edge cases: every wire-level oddity resolves here, once, before any
// codec runs.
func TestNormalizeTuplesWindow(t *testing.T) {
	res := tuplesResource(t, 10)
	cases := []struct {
		name      string
		req       ops.PageMsg
		start     int
		count     int
		wantFault bool
	}{
		{"plain window", ops.PageMsg{Start: 2, Count: 3, HasCount: true}, 2, 3, false},
		{"negative count faults", ops.PageMsg{Start: 1, Count: -1, HasCount: true}, 0, 0, true},
		{"very negative count faults", ops.PageMsg{Start: 5, Count: -100, HasCount: true}, 0, 0, true},
		{"zero count is an empty page", ops.PageMsg{Start: 4, Count: 0, HasCount: true}, 4, 0, false},
		{"start below one clamps", ops.PageMsg{Start: -7, Count: 5, HasCount: true}, 1, 5, false},
		{"start zero clamps", ops.PageMsg{Start: 0, Count: 2, HasCount: true}, 1, 2, false},
		{"absent count means rest of resource", ops.PageMsg{Start: 4}, 4, 7, false},
		{"absent count from the top", ops.PageMsg{Start: 0}, 1, 10, false},
		{"absent count past the end", ops.PageMsg{Start: 42}, 42, 0, false},
		{"explicit window past the end", ops.PageMsg{Start: 42, Count: 5, HasCount: true}, 42, 5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start, count, err := normalizeTuplesWindow(context.Background(), res, &tc.req)
			if tc.wantFault {
				var ief *core.InvalidExpressionFault
				if !errors.As(err, &ief) {
					t.Fatalf("err = %v, want InvalidExpressionFault", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if start != tc.start || count != tc.count {
				t.Fatalf("window = (%d, %d), want (%d, %d)", start, count, tc.start, tc.count)
			}
		})
	}
}

// TestNormalizeAbsentCountWaitsForTotal: against a still-producing
// resource, an absent Count needs the final total, so the request
// blocks until production finishes — bounded by the request context.
func TestNormalizeAbsentCountWaitsForTotal(t *testing.T) {
	set := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{{Name: "id", Type: sqlengine.TypeInteger}},
		Rows:    [][]sqlengine.Value{{sqlengine.NewInt(1)}, {sqlengine.NewInt(2)}},
	}
	slow := &gatedSource{src: rowset.NewSetSource(set), gate: make(chan struct{})}
	res, err := dair.NewSQLRowsetResource("parent", rowset.NewBuffer(slow, rowset.BufferConfig{}), "", core.DefaultConfiguration())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()

	// Gate closed: the total is unknown, so the call must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := normalizeTuplesWindow(ctx, res, &ops.PageMsg{Start: 1}); err == nil {
		t.Fatal("expected timeout while total is unknown")
	}

	close(slow.gate)
	start, count, err := normalizeTuplesWindow(context.Background(), res, &ops.PageMsg{Start: 1})
	if err != nil {
		t.Fatal(err)
	}
	if start != 1 || count != 2 {
		t.Fatalf("window = (%d, %d), want (1, 2)", start, count)
	}
}

// gatedSource delays its first batch until the gate closes.
type gatedSource struct {
	src  rowset.RowSource
	gate chan struct{}
}

func (g *gatedSource) Columns() []sqlengine.ResultColumn { return g.src.Columns() }
func (g *gatedSource) NextBatch() ([][]sqlengine.Value, error) {
	<-g.gate
	return g.src.NextBatch()
}
func (g *gatedSource) Close() error { return g.src.Close() }

func TestRowsetStreamHooksRecord(t *testing.T) {
	reg := telemetry.NewRegistry()
	hooks := RowsetStreamHooks(reg)
	hooks.RowsProduced(7)
	hooks.RowsProduced(3)
	hooks.SpilledBytes(2048)
	hooks.BufferDepth(+5)
	hooks.BufferDepth(-5)
	hooks.BatchProduced(1500 * time.Millisecond)
	hooks.BatchProduced(250 * time.Millisecond)
	want := map[string]float64{
		MetricRowsetRows:              10,
		MetricRowsetSpillBytes:        2048,
		MetricRowsetBufferDepth:       0,
		MetricRowsetBatches:           2,
		MetricRowsetProductionSeconds: 1.75,
	}
	// As an operator sees them: scraped, not read from the registry.
	var scraped strings.Builder
	if err := reg.WritePrometheus(&scraped); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParsePrometheus(scraped.String())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Name] = s.Value
	}
	for name, val := range want {
		v, ok := got[name]
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		if v != val {
			t.Fatalf("%s = %g, want %g", name, v, val)
		}
	}
	// Nil registry: no hooks are bound, which the buffer treats as no-op.
	none := RowsetStreamHooks(nil)
	if none.RowsProduced != nil || none.SpilledBytes != nil || none.BufferDepth != nil || none.BatchProduced != nil {
		t.Fatal("nil registry must yield zero hooks")
	}
}
