package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// maxRelErrBelow reports the worst-case relative interpolation error of
// the standard buckets for true values in (lo, hi]: half the relative
// width of the widest bucket covering that range. The linear
// interpolation inside a bucket can land anywhere within it, so the
// estimate is off by at most one bucket width; against the true value
// the bound is (hi-lo)/lo for the owning bucket.
func maxRelErrBelow(lo, hi float64) float64 {
	bounds := LatencyBuckets()
	worst := 0.0
	prev := 0.0
	for _, b := range bounds {
		if b > lo && prev < hi && prev > 0 {
			if w := (b - prev) / prev; w > worst {
				worst = w
			}
		}
		prev = b
	}
	return worst
}

// TestQuantileAccuracySyntheticDistribution pins the estimator error
// bound the capacity-curve SLO check relies on: p50/p99/p999 estimated
// from the fixed log buckets must stay within the owning bucket's
// relative width of the true sample quantile, for a sub-millisecond
// distribution (the regime the ×1.25 fine region was added for) and a
// mixed one spanning the coarse region.
func TestQuantileAccuracySyntheticDistribution(t *testing.T) {
	cases := []struct {
		name string
		gen  func(r *rand.Rand) time.Duration
		lo   float64 // support used for the error bound, seconds
		hi   float64
	}{
		{
			// Log-normal centred near 200µs: everything sub-millisecond
			// except a thin tail, the shape of an in-process SQL call.
			name: "submillisecond-lognormal",
			gen: func(r *rand.Rand) time.Duration {
				s := 200e-6 * math.Exp(r.NormFloat64()*0.35)
				return time.Duration(s * float64(time.Second))
			},
			lo: 50e-6, hi: 2e-3,
		},
		{
			// Bimodal: fast hits plus a 1% slow mode around 20ms — the
			// p999 lives in the slow mode, two decades from the p50.
			name: "bimodal-tail",
			gen: func(r *rand.Rand) time.Duration {
				if r.Float64() < 0.99 {
					return time.Duration((100e-6 + r.Float64()*300e-6) * float64(time.Second))
				}
				return time.Duration((10e-3 + r.Float64()*20e-3) * float64(time.Second))
			},
			lo: 50e-6, hi: 40e-3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			reg := NewRegistry()
			h := reg.NewHistogramVec("acc_seconds", "", LatencyBuckets(), "op").With("q")
			const n = 50_000
			samples := make([]time.Duration, n)
			for i := range samples {
				d := tc.gen(r)
				samples[i] = d
				h.Observe(d)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			bound := maxRelErrBelow(tc.lo, tc.hi)
			if bound <= 0 || bound > 1.05 {
				t.Fatalf("degenerate error bound %v for [%v, %v]", bound, tc.lo, tc.hi)
			}
			for _, q := range []float64{0.50, 0.99, 0.999} {
				truth := samples[int(q*float64(n))-1]
				est := h.Quantile(q)
				rel := math.Abs(est.Seconds()-truth.Seconds()) / truth.Seconds()
				if rel > bound {
					t.Errorf("q=%v: estimate %v vs true %v: rel err %.3f > bucket bound %.3f",
						q, est, truth, rel, bound)
				}
				t.Logf("q=%v est=%v true=%v rel=%.3f (bound %.3f)", q, est, truth, rel, bound)
			}
		})
	}
}

// TestLatencyBucketsShape pins the invariants the estimator and the
// exposition depend on: strictly increasing bounds, sub-millisecond
// relative width ≤25%, fixed overall count, and coverage of the whole
// 20µs–18s operating range.
func TestLatencyBucketsShape(t *testing.T) {
	b := LatencyBuckets()
	if len(b) != 33 {
		t.Fatalf("bucket count changed: %d (update exposition-size expectations deliberately)", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v <= %v", i, b[i], b[i-1])
		}
		if b[i] <= 1e-3 {
			if w := (b[i] - b[i-1]) / b[i-1]; w > 0.251 {
				t.Errorf("sub-ms bucket %d too wide: rel width %.3f > 0.25", i, w)
			}
		}
	}
	if b[0] > 25e-6 {
		t.Errorf("first bound %v misses fast in-process calls", b[0])
	}
	if last := b[len(b)-1]; last < 10 {
		t.Errorf("last finite bound %v under 10s: slow scans all land in +Inf", last)
	}
}

// TestDeltaQuantile proves the scrape-delta path: quantiles over the
// growth between two scrapes must reflect only the observations made
// in the window, not the history before it.
func TestDeltaQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogramVec("dq_seconds", "", LatencyBuckets(), "op").With("load")
	// History: a thousand fast calls.
	for i := 0; i < 1000; i++ {
		h.Observe(100 * time.Microsecond)
	}
	before, err := ParsePrometheus(dump(reg))
	if err != nil {
		t.Fatal(err)
	}
	// Window: a thousand slow calls.
	for i := 0; i < 1000; i++ {
		h.Observe(40 * time.Millisecond)
	}
	after, err := ParsePrometheus(dump(reg))
	if err != nil {
		t.Fatal(err)
	}
	filter := map[string]string{"op": "load"}
	p50 := DeltaQuantile(before, after, "dq_seconds", filter, 0.5)
	if p50 < 20*time.Millisecond {
		t.Errorf("window p50 %v polluted by pre-window history", p50)
	}
	if got := DeltaCount(before, after, "dq_seconds_count", filter); got != 1000 {
		t.Errorf("window count %v, want 1000", got)
	}
	// An empty before-scrape degrades to the whole-history estimate,
	// which still sees both modes.
	if all := DeltaQuantile(nil, after, "dq_seconds", filter, 0.25); all > time.Millisecond {
		t.Errorf("cumulative p25 %v should still be fast", all)
	}
	if d := DeltaQuantile(nil, after, "dq_seconds", filter, 0.5); d == 0 {
		t.Error("DeltaQuantile with empty before scrape returned 0")
	}
}

func dump(reg *Registry) string {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		panic(err)
	}
	return b.String()
}
