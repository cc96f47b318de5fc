package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload for about a second on tiny
// data, hosted in process, through the same set-up, window, scrape,
// traced-run and probe code the real run uses, and checks the output
// contract: every catalogued metric is printed exactly once with its
// unit and a finite value, nothing failed, and the result line carries
// exactly the metrics its mode promises.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cfg := runConfig{seed: 3, seconds: 1, sz: tinySizes, setups: 1}
	p := paths{out: t.TempDir()}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := runMeasured(ctx, w, cfg, 800*time.Millisecond, func() system { return &inprocHost{} })
			if err != nil {
				t.Fatal(err)
			}
			if err := runTraced(ctx, p, w, cfg, 400*time.Millisecond, res); err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed; first: %v", res.failed, res.attempted, res.firstErr)
			}

			var traced, untraced bytes.Buffer
			printResult(&traced, res, true)
			printResult(&untraced, res, false)
			lines := strings.Split(strings.TrimSpace(traced.String()), "\n")
			seen := map[string]int{}
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w {
					t.Errorf("malformed metric line %q", line)
					continue
				}
				seen[f[1]]++
				if v, err := strconv.ParseFloat(f[2], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s has value %q", f[1], f[2])
				}
				if name := strings.TrimSuffix(f[1], ".iqr"); f[3] != unitOf(name) || f[3] == "" {
					t.Errorf("metric %s printed with unit %q, want %q", f[1], f[3], unitOf(name))
				}
			}
			for _, list := range [][]metricDef{endToEnd, perLayer} {
				for _, m := range list {
					if seen[m.Name] != 1 {
						t.Errorf("metric %s printed %d times, want once", m.Name, seen[m.Name])
					}
				}
			}
			if res.metrics["fail_ratio"] != 0 {
				t.Errorf("fail_ratio = %v, want 0", res.metrics["fail_ratio"])
			}
			if res.metrics["wsrf.live_resources_delta"] != 0 {
				t.Errorf("wsrf.live_resources_delta = %v: a factory product was not destroyed", res.metrics["wsrf.live_resources_delta"])
			}
			for _, m := range endToEnd {
				if res.metrics[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.metrics[m.Name])
				}
			}

			checkResultLine(t, lastLine(traced.String()), perLayer)
			checkResultLine(t, lastLine(untraced.String()), endToEnd)
		})
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// checkResultLine checks the driver-facing JSON object.
func checkResultLine(t *testing.T, line string, want []metricDef) {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if len(doc) != 4 {
		t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(doc))
	}
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result line reports correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result line carries %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("result line metric %s = %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
		}
	}
}
