package telemetry

import (
	"sync/atomic"
	"time"
)

// LatencyBuckets returns the standard fixed log-scale latency bounds
// (plus the implicit +Inf overflow bucket): a fine region growing ×1.25
// from 20µs to ~1ms, then doubling up to ~18s. The original uniform
// doubling from 50µs was tuned for p50/p99; its 100% relative bucket
// width made p999 estimates of sub-millisecond operations (where the
// whole distribution lands in three or four buckets) off by up to 2x.
// The ×1.25 fine region bounds the interpolation error at ≤25% exactly
// where the in-process request path lives, while the coarse doubling
// region keeps the total bucket count — and therefore per-observation
// cost and exposition size — fixed at 33.
func LatencyBuckets() []float64 {
	var out []float64
	b := 20e-6
	for b < 1e-3 {
		out = append(out, b)
		b *= 1.25
	}
	for b < 30 {
		out = append(out, b)
		b *= 2
	}
	return out
}

// HistogramVec is a labelled family of fixed-bucket histograms sharing
// one set of upper bounds.
type HistogramVec struct {
	family
	bounds []float64
}

// Histogram is one latency distribution: cumulative-free per-bucket
// atomic counts plus a count and a nanosecond sum. Observations are
// lock-free; Snapshot assembles the cumulative view Prometheus expects.
type Histogram struct {
	bounds   []float64
	buckets  []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count    atomic.Uint64
	sumNanos atomic.Int64
	labels   []string
}

// With returns the histogram for a label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.child(values, func(vals []string) any {
		return &Histogram{bounds: v.bounds, buckets: make([]atomic.Uint64, len(v.bounds)+1), labels: vals}
	}).(*Histogram)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

// snapshotBuckets returns the per-bucket counts read once.
func (h *Histogram) snapshotBuckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the owning bucket; observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	return bucketQuantile(h.bounds, h.snapshotBuckets(), q)
}

// bucketQuantile is the shared quantile estimator over per-bucket
// (non-cumulative) counts; DeltaQuantile reuses it on the /metrics
// samples loadgen.Sweep scrapes.
func bucketQuantile(bounds []float64, counts []uint64, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		if seen+c < rank {
			seen += c
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: clamp to the largest finite bound.
			return secondsToDuration(bounds[len(bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := float64(rank-seen) / float64(c)
		return secondsToDuration(lo + (hi-lo)*frac)
	}
	return secondsToDuration(bounds[len(bounds)-1])
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
