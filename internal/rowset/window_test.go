package rowset

import (
	"context"
	"math"
	"slices"
	"testing"

	"dais/internal/filestore"
	"dais/internal/sqlengine"
)

// TestSliceBoundsEdges: the rows windowRange slices out of a set for a
// GetTuples (StartPosition, Count) pair, at every edge.
func TestSliceBoundsEdges(t *testing.T) {
	rs := corpusSet(5)
	cases := []struct {
		name         string
		start, count int
		wantIDs      []int64
	}{
		{"negative start", -3, 2, []int64{0, 1}},
		{"zero start", 0, 2, []int64{0, 1}},
		{"count past end", 4, 100, []int64{3, 4}},
		{"start past end", 9, 2, nil},
		{"zero count", 2, 0, nil},
		{"negative count", 2, -1, nil},
		{"full range", 1, 5, []int64{0, 1, 2, 3, 4}},
		{"interior page", 2, 2, []int64{1, 2}},
		{"huge count", 4, math.MaxInt, []int64{3, 4}},
		{"huge start", math.MaxInt, math.MaxInt, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			from, to := windowRange(len(rs.Rows), tc.start, tc.count)
			out := rs.Rows[from:to]
			if len(out) != len(tc.wantIDs) {
				t.Fatalf("got %d rows, want %d", len(out), len(tc.wantIDs))
			}
			for i, id := range tc.wantIDs {
				if out[i][0].I != id {
					t.Fatalf("row %d: id %d, want %d", i, out[i][0].I, id)
				}
			}
		})
	}
}

// FuzzBufferWindow: whatever window is asked for — any start, any count,
// math.MaxInt included — and however the buffer pages its rows and
// whether it spills them, Pages returns, in order, exactly the rows the
// GetTuples clamp names: from row max(start, 1) on, count of them, the
// last row at most.
func FuzzBufferWindow(f *testing.F) {
	f.Add(uint16(100), 16, false, 2, math.MaxInt)
	f.Add(uint16(100), 16, true, 2, math.MaxInt)
	f.Add(uint16(3000), 0, false, -5, 1500)
	f.Add(uint16(50), 7, true, 45, 10)
	f.Add(uint16(0), 1, false, 1, 1)
	f.Add(uint16(6), math.MaxInt-2, true, math.MaxInt-51, math.MaxInt) // a page count that overflowed
	f.Add(uint16(2000), -3, false, math.MinInt, math.MaxInt)
	f.Add(uint16(10), 3, true, 4, math.MinInt)
	f.Fuzz(func(t *testing.T, n uint16, pageRows int, spill bool, start, count int) {
		rows := int(n) % 3001
		rs := &sqlengine.ResultSet{Columns: []sqlengine.ResultColumn{{Name: "id", Type: sqlengine.TypeInteger}}}
		for i := 0; i < rows; i++ {
			rs.Rows = append(rs.Rows, []sqlengine.Value{sqlengine.NewInt(int64(i))})
		}
		cfg := BufferConfig{PageRows: pageRows}
		if spill {
			cfg.MemCap, cfg.Spill, cfg.SpillName = 1, filestore.NewStore("fuzz"), "window.spill"
		}
		buf := NewBuffer(NewSetSource(rs), cfg)
		defer buf.Release()
		pages, err := buf.Pages(context.Background(), start, count)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, row := range slices.Concat(pages...) {
			got = append(got, row[0].I)
		}
		// The clamp, 1-based and without overflow: rows first..last.
		first, last := max(start, 1), rows
		if count <= 0 {
			last = 0
		} else if count-1 < rows-first {
			last = first + count - 1
		}
		var want []int64
		for id := first; id <= last; id++ {
			want = append(want, int64(id-1))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d rows, pages of %d, spill %v, window (%d, %d): got %d rows %v, want %d rows",
				rows, pageRows, spill, start, count, len(got), got[:min(len(got), 5)], len(want))
		}
	})
}
