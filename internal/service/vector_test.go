package service

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dais/internal/sqlengine"
	"dais/internal/telemetry"
)

// TestVectorMetricsExposed scrapes an engine's columnar counters: all
// five series must appear with the engine label, running a vectorised
// scan between scrapes must move the batch counter, a one-row write must
// move the rebuild counter by the one chunk it touched, a planned
// statement that has to abandon its kernels the fallback counter, and a
// grouped read of an unchanged page the partials counter.
func TestVectorMetricsExposed(t *testing.T) {
	eng := sqlengine.New("vecdb")
	eng.MustExec(`CREATE TABLE t (id INTEGER, v INTEGER)`)
	s := eng.NewSession()
	for i := 0; i < 64; i++ {
		if _, err := s.Execute(`INSERT INTO t VALUES (?, ?)`, sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(i%8))); err != nil {
			t.Fatal(err)
		}
	}

	reg := telemetry.NewRegistry()
	RegisterVectorMetrics(reg, eng)

	scrape := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	if _, err := s.Execute(`SELECT COUNT(*) FROM t WHERE v > 3`); err != nil {
		t.Fatal(err)
	}
	stats := eng.VectorStats()
	if stats.Batches == 0 {
		t.Fatal("expected at least one vector batch")
	}
	text := scrape()
	for _, want := range []string{
		fmt.Sprintf(`%s{engine="vecdb"} %d`, MetricVectorBatches, stats.Batches),
		fmt.Sprintf(`%s{engine="vecdb"} %d`, MetricVectorChunksSkipped, stats.ChunksSkipped),
		fmt.Sprintf(`%s{engine="vecdb"} 1`, MetricVectorChunksRebuilt), // 64 rows: one chunk, built by the scan
		fmt.Sprintf(`%s{engine="vecdb"} 0`, MetricVectorFallbacks),
		fmt.Sprintf(`%s{engine="vecdb"} 0`, MetricVectorPartialsReused),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}

	// Another scan, after a one-row UPDATE, moves both counters on the
	// next scrape.
	if _, err := s.Execute(`UPDATE t SET v = 9 WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`SELECT COUNT(*) FROM t WHERE v > 5`); err != nil {
		t.Fatal(err)
	}
	// v = 0 on selected rows: the aggregate plan is abandoned and the
	// interpreter reports the division.
	if _, err := s.Execute(`SELECT SUM(id / v) FROM t`); err == nil {
		t.Fatal("expected division by zero")
	}
	// The first grouped read stores the page's partial, the second merges it.
	for i := 0; i < 2; i++ {
		if _, err := s.Execute(`SELECT v, COUNT(*), SUM(id) FROM t GROUP BY v`); err != nil {
			t.Fatal(err)
		}
	}
	after := eng.VectorStats()
	if after.Batches <= stats.Batches {
		t.Fatalf("expected extra batch: %+v -> %+v", stats, after)
	}
	text = scrape()
	for _, want := range []string{
		fmt.Sprintf(`%s{engine="vecdb"} %d`, MetricVectorBatches, after.Batches),
		fmt.Sprintf(`%s{engine="vecdb"} 2`, MetricVectorChunksRebuilt),
		fmt.Sprintf(`%s{engine="vecdb"} 1`, MetricVectorFallbacks),
		fmt.Sprintf(`%s{engine="vecdb"} 1`, MetricVectorPartialsReused),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("second scrape missing %q:\n%s", want, text)
		}
	}
}

// TestRegisterVectorMetricsNil pins the documented no-op contract.
func TestRegisterVectorMetricsNil(t *testing.T) {
	RegisterVectorMetrics(nil, nil)
	RegisterVectorMetrics(telemetry.NewRegistry(), nil)
	RegisterVectorMetrics(nil, sqlengine.New("x"))
}
