package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"dais/internal/loadgen"
)

func TestParseRates(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"", nil},
		{"   ", nil},
		{"100", []float64{100}},
		{"100, 200.5 ,400", []float64{100, 200.5, 400}},
	}
	for _, tc := range good {
		got, err := parseRates(tc.in)
		if err != nil {
			t.Errorf("parseRates(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseRates(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	bad := []string{
		"abc",        // not a number
		"100,,200",   // empty entry
		"-5",         // negative
		"0",          // zero offered rate
		"NaN",        // not finite
		"400,200",    // descending
		"100,100",    // not strictly ascending
		"1e12",       // absurd rate
		"100,200,xy", // trailing junk
	}
	for _, in := range bad {
		if got, err := parseRates(in); err == nil {
			t.Errorf("parseRates(%q) accepted: %v", in, got)
		}
	}
}

// TestE17Smoke is the load-smoke gate: a short fixed-seed E17 run must
// complete work in every scenario class on both targets, find a knee,
// prove the churn invariants, and round-trip through the BENCH_E17.json
// schema. CI runs it via `make load-smoke` so a regression in the load
// harness (or in the stack under it) fails fast without the full sweep.
func TestE17Smoke(t *testing.T) {
	rep, err := runE17(e17Config{
		rates:       []float64{120, 240},
		step:        500 * time.Millisecond,
		seed:        1,
		churnCycles: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Schema round trip: what daisbench writes must parse back into the
	// same shape with the load-bearing fields intact.
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back e17Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("BENCH_E17.json schema does not round-trip: %v", err)
	}
	if back.Single == nil || back.Cluster == nil || back.Churn == nil {
		t.Fatalf("report incomplete after round trip: %+v", back)
	}

	wantClasses := []string{"sql-direct", "sql-indirect", "xml-xpath", "wsrf-props"}
	for _, curve := range []*loadgen.Curve{back.Single, back.Cluster} {
		if len(curve.Points) != 2 {
			t.Fatalf("%s: %d curve points, want 2", curve.Target, len(curve.Points))
		}
		if curve.KneeRPS <= 0 {
			t.Errorf("%s: no knee found in an unsaturated smoke sweep", curve.Target)
		}
		for _, pt := range curve.Points {
			if pt.Errors > 0 {
				t.Errorf("%s @ %.0f rps: %d errors", curve.Target, pt.OfferedRPS, pt.Errors)
			}
			byClass := map[string]loadgen.ClassPoint{}
			for _, cp := range pt.Classes {
				byClass[cp.Class] = cp
			}
			for _, cls := range wantClasses {
				cp, ok := byClass[cls]
				if !ok {
					t.Fatalf("%s @ %.0f rps: class %s missing", curve.Target, pt.OfferedRPS, cls)
				}
				if cp.OK == 0 {
					t.Errorf("%s @ %.0f rps: class %s completed nothing", curve.Target, pt.OfferedRPS, cls)
				}
			}
		}
	}

	if back.Churn.Cycles != 1_000 {
		t.Errorf("churn completed %d cycles, want 1000", back.Churn.Cycles)
	}
	if back.Churn.Misclassified != 0 {
		t.Errorf("churn misclassified %d destroy-after-reap outcomes", back.Churn.Misclassified)
	}
	if back.Churn.FetchAfterReapOK != 0 {
		t.Errorf("churn saw %d reads succeed through reaped EPRs", back.Churn.FetchAfterReapOK)
	}
}
