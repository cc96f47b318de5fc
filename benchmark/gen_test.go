package main

import (
	"fmt"
	"strings"
	"testing"
)

// stream renders the first n operations of one client's stream.
func stream(workload string, seed int64, client, n int) string {
	g := newGenerator(workload, fullSizes, seed, client)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(g.Next().String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSeedDiscipline pins the input contract: the generated sequence
// (class, target, SQL text, parameters) is byte-identical for equal
// seeds and differs for different seeds, and nothing a server receives
// — flags or payload — carries the seed or a workload name.
func TestSeedDiscipline(t *testing.T) {
	const seed = 987654321
	for _, w := range workloadNames {
		for client := 0; client < clientsOf(w); client++ {
			a, b := stream(w, seed, client, 600), stream(w, seed, client, 600)
			if a != b {
				t.Errorf("%s client %d: equal seeds gave different streams", w, client)
			}
			if other := stream(w, seed+1, client, 600); other == a {
				t.Errorf("%s client %d: different seeds gave the same stream", w, client)
			}
			if strings.Contains(a, fmt.Sprint(seed)) {
				t.Errorf("%s client %d: the seed appears in the generated payload", w, client)
			}
			for _, name := range workloadNames {
				if strings.Contains(a, name) {
					t.Errorf("%s client %d: workload name %q appears in the generated payload", w, client, name)
				}
			}
		}
	}
	flags := strings.Join(append(daisdArgs(), daisgwArgs([]string{"http://a/sql", "http://b/sql"}, gatewayAlias+"=x@http://a/sql")...), " ")
	for _, name := range workloadNames {
		if strings.Contains(flags, name) {
			t.Errorf("server flags carry workload name %q: %s", name, flags)
		}
	}
	if strings.Contains(flags, "seed ") || strings.Contains(flags, fmt.Sprint(seed)) {
		t.Errorf("server flags carry a seed: %s", flags)
	}
}

// TestMixProportions checks that the decks deal exact class mixes, so
// the work per run does not depend on the seed.
func TestMixProportions(t *testing.T) {
	for _, tc := range []struct {
		workload string
		deck     int
		want     map[string]int
	}{
		{wlPointMix, 12, map[string]int{clSQLDirect: 6, clSQLIndirect: 2, clXMLXPath: 2, clWSRFProps: 2}},
		{wlGateway, 6, map[string]int{clSQLDirect: 3, clWSRFProps: 1, clSQLIndirect: 1, clScatter: 1}},
	} {
		for _, seed := range []int64{1, 2, 3} {
			g := newGenerator(tc.workload, fullSizes, seed, 0)
			got := map[string]int{}
			for i := 0; i < 10*tc.deck; i++ {
				got[g.Next().Class]++
			}
			for class, n := range tc.want {
				if got[class] != 10*n {
					t.Errorf("%s seed %d: %d %s operations in 10 decks, want %d", tc.workload, seed, got[class], class, 10*n)
				}
			}
		}
	}
}

// TestClosedForms checks the oracle arithmetic against brute force.
func TestClosedForms(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 5000} {
		for r := 0; r < 7; r++ {
			cnt, sum := 0, 0.0
			for i := 0; i < n; i++ {
				if i%7 == r {
					cnt++
					sum += float64(i)
				}
			}
			if got := countCong(n, 7, r); got != cnt {
				t.Errorf("countCong(%d,7,%d) = %d, want %d", n, r, got, cnt)
			}
			if got := sumCong(n, 7, r); got != sum {
				t.Errorf("sumCong(%d,7,%d) = %v, want %v", n, r, got, sum)
			}
		}
	}
	if got := sumRange(3, 7); got != 25 {
		t.Errorf("sumRange(3,7) = %v, want 25", got)
	}
}

// TestWriterHoldsTableSize replays the writer stream: the live row
// count never leaves [0, writeLive] and every delete removes rows that
// exist.
func TestWriterHoldsTableSize(t *testing.T) {
	g := newGenerator(wlWriteBeside, fullSizes, 5, 0)
	live := 0
	for i := 0; i < 700; i++ {
		op := g.Next()
		switch {
		case strings.HasPrefix(op.SQL, "INSERT"):
			live++
		case strings.HasPrefix(op.SQL, "DELETE"):
			live -= op.Want.UpdateCount
		}
		if live < 0 || live > writeLive {
			t.Fatalf("after %d writer operations %d written rows are live, want 0..%d", i+1, live, writeLive)
		}
	}
}
