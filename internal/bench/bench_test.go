package bench

import (
	"context"
	"testing"
	"time"
)

// The experiment runners double as integration tests: each one is run
// with small parameters and its qualitative shape — the thing
// EXPERIMENTS.md claims — is asserted, not just absence of errors.

func TestE1Shape(t *testing.T) {
	rows, err := RunE1([]int{1, 200})
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	if large.DirectBytes <= small.DirectBytes*10 {
		t.Errorf("direct bytes should grow with result size: %d vs %d", small.DirectBytes, large.DirectBytes)
	}
	// The indirect requester's traffic is size-independent (both are
	// two factory responses).
	diff := large.IndirectBytes - small.IndirectBytes
	if diff < -64 || diff > 64 {
		t.Errorf("indirect consumer bytes should be flat: %d vs %d", small.IndirectBytes, large.IndirectBytes)
	}
	if large.ThirdPartyPull <= small.ThirdPartyPull {
		t.Errorf("third-party pull should carry the data: %d vs %d", small.ThirdPartyPull, large.ThirdPartyPull)
	}
}

func TestE2Shape(t *testing.T) {
	rows, err := RunE2([]int{1, 200})
	if err != nil {
		t.Fatal(err)
	}
	large := rows[1]
	if large.RelayBytes <= large.EPRBytes {
		t.Errorf("relay must move more through consumer1 than EPR hand-off: %d vs %d",
			large.RelayBytes, large.EPRBytes)
	}
	if large.ReaderBytes <= large.EPRBytes {
		t.Errorf("reader should still pull the data: %d", large.ReaderBytes)
	}
}

func TestE3Shape(t *testing.T) {
	rows, err := RunE3([]int{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].WholeDocBytes <= rows[0].WholeDocBytes {
		t.Errorf("whole document should grow with the catalog: %d vs %d",
			rows[0].WholeDocBytes, rows[1].WholeDocBytes)
	}
	if rows[0].SinglePropByte != rows[1].SinglePropByte {
		t.Errorf("single property bytes should be catalog-independent: %d vs %d",
			rows[0].SinglePropByte, rows[1].SinglePropByte)
	}
	if rows[1].SinglePropByte >= rows[1].WholeDocBytes {
		t.Errorf("single property should be smaller than the document")
	}
}

func TestE4Shape(t *testing.T) {
	rows, err := RunE4(300, []int{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Calls != 301 || rows[1].Calls != 4 {
		t.Errorf("calls = %d, %d", rows[0].Calls, rows[1].Calls)
	}
	if rows[1].WireBytes >= rows[0].WireBytes {
		t.Errorf("bigger pages should move fewer total bytes: %d vs %d",
			rows[0].WireBytes, rows[1].WireBytes)
	}
}

func TestE5Shape(t *testing.T) {
	rows, err := RunE5(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThinPer <= 0 || r.ThickPer <= 0 {
			t.Errorf("non-positive timing: %+v", r)
		}
	}
}

func TestE6Shape(t *testing.T) {
	rows, err := RunE6([]int{2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The serialised service must head-of-line block the probe by at
	// least one long-query delay (10ms); leave slack for scheduling.
	if r.ShortSerialized < 5*time.Millisecond {
		t.Errorf("serialized probe should queue behind long queries: %v", r.ShortSerialized)
	}
	if r.SlowdownSerial < 2 {
		t.Errorf("expected clear serialisation penalty, got %.2fx (%v vs %v)",
			r.SlowdownSerial, r.ShortConcurrent, r.ShortSerialized)
	}
}

func TestE7Shape(t *testing.T) {
	// 200 iterations: over 5, the first size's connection set-up and the
	// scheduler outweigh what 99 more rows cost (≈ 150 µs).
	rows, err := RunE7([]int{1, 100}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SOAPPer <= r.EnginePer {
			t.Errorf("SOAP must cost more than the raw engine: %+v", r)
		}
	}
	if rows[1].OverheadPer <= rows[0].OverheadPer {
		t.Errorf("serialisation overhead should grow with result size: %v vs %v",
			rows[0].OverheadPer, rows[1].OverheadPer)
	}
}

func TestE8Shape(t *testing.T) {
	rows, err := RunE8([]int{20})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.LeakedWithout != 20 || r.LeakedWithReaper != 0 {
		t.Errorf("leak accounting wrong: %+v", r)
	}
	if r.SoftStateSweep >= r.ExplicitDestroy {
		t.Errorf("one sweep should be cheaper than 20 destroy round trips: %v vs %v",
			r.SoftStateSweep, r.ExplicitDestroy)
	}
}

func TestE9Shape(t *testing.T) {
	rows, err := RunE9(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byFormat := map[string]E9Row{}
	for _, r := range rows {
		byFormat[r.Format] = r
	}
	csv := byFormat["http://www.ggf.org/namespaces/2005/12/WS-DAIR/CSV"]
	xml := byFormat["http://www.ggf.org/namespaces/2005/12/WS-DAIR/SQLRowset"]
	if csv.Bytes >= xml.Bytes {
		t.Errorf("CSV should be smaller than XML: %d vs %d", csv.Bytes, xml.Bytes)
	}
}

func TestE10Shape(t *testing.T) {
	rows, err := RunE10(20)
	if err != nil {
		t.Fatal(err)
	}
	var sawRU, sawRC, sawAtomic bool
	for _, r := range rows {
		switch r.Mode {
		case "reader@READ UNCOMMITTED":
			sawRU = true
			if r.DirtyReads == 0 {
				t.Error("READ UNCOMMITTED should observe dirty reads")
			}
		case "reader@READ COMMITTED":
			sawRC = true
			if r.DirtyReads != 0 {
				t.Errorf("READ COMMITTED observed %d dirty reads", r.DirtyReads)
			}
		case "per-message atomicity":
			sawAtomic = true
			if r.LostAfterErr != 0 {
				t.Errorf("failed statement leaked %d rows", r.LostAfterErr)
			}
		}
	}
	if !sawRU || !sawRC || !sawAtomic {
		t.Fatalf("missing probe rows: %+v", rows)
	}
}

func TestFixtureOptions(t *testing.T) {
	f, err := NewSQLFixture(FixtureOption{Rows: 5, Concurrent: false, WSRF: false, Thick: true, ExtraTables: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Endpoint.WSRF() != nil {
		t.Error("WSRF should be off")
	}
	if f.Endpoint.Service().ConcurrentAccess() {
		t.Error("concurrent access should be off")
	}
	if len(f.Engine.Database().TableNames()) != 3 {
		t.Errorf("tables = %v", f.Engine.Database().TableNames())
	}
	// Thick wrapper rejects bad SQL before execution.
	if _, err := f.Resource.SQLExecute(context.Background(), "NOT SQL AT ALL", nil); err == nil {
		t.Error("thick wrapper should reject")
	}
}

func TestE11Shape(t *testing.T) {
	rows, err := RunE11([]int{1, 10}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	if large.RelayBytes <= small.RelayBytes*5 {
		t.Errorf("relay bytes should grow with file count: %d vs %d", small.RelayBytes, large.RelayBytes)
	}
	diff := large.StageBytes - small.StageBytes
	if diff < -64 || diff > 64 {
		t.Errorf("stage bytes should be flat: %d vs %d", small.StageBytes, large.StageBytes)
	}
	if large.ReaderBytes < large.RelayBytes-1024 {
		t.Errorf("reader should still pull the payload: %d vs %d", large.ReaderBytes, large.RelayBytes)
	}
}

func TestE18Shape(t *testing.T) {
	rows, err := RunE18([]int{5000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 workloads", len(rows))
	}
	for _, r := range rows {
		if r.OutRows <= 0 || r.VectorPer <= 0 || r.RowPer <= 0 {
			t.Errorf("%s: degenerate measurement: %+v", r.Workload, r)
		}
		if r.Workload == "selective scan (zone-map skip)" {
			// 5000 sequential ids, predicate id >= 4000: the first three
			// 1024-row chunks are provably empty of matches.
			if r.Skipped < 3 {
				t.Errorf("zone maps skipped %d chunks, want >= 3", r.Skipped)
			}
		}
		if r.Workload != "selective scan (zone-map skip)" && r.Batches == 0 {
			t.Errorf("%s: no vector batches recorded", r.Workload)
		}
	}
}

// BenchmarkE18 wires the columnar-core experiment into `make
// bench-smoke` (one tiny end-to-end run).
func BenchmarkE18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunE18([]int{5000}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestE15Shape(t *testing.T) {
	rows, err := RunE15(2000, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 spill modes x 2 chunk counts)", len(rows))
	}
	for _, r := range rows {
		if r.Rows != 2000 {
			t.Errorf("spill=%v chunks=%d: fetched %d rows, want 2000", r.Spill, r.Chunks, r.Rows)
		}
		if r.WireBytes <= 0 || r.MBPerSec <= 0 || r.RowsPerSec <= 0 {
			t.Errorf("spill=%v chunks=%d: non-positive throughput fields: %+v", r.Spill, r.Chunks, r)
		}
		if r.Spill && r.SpilledBytes == 0 {
			t.Errorf("chunks=%d: spill mode reported no spilled bytes", r.Chunks)
		}
		if !r.Spill && r.SpilledBytes != 0 {
			t.Errorf("chunks=%d: in-memory mode reported %d spilled bytes", r.Chunks, r.SpilledBytes)
		}
	}
}
