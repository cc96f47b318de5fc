package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot flattens every registered instrument and collector into
// samples. Histograms expand to the Prometheus triplet: cumulative
// <name>_bucket{le="..."} series, <name>_sum and <name>_count.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	counters := append([]*CounterVec(nil), r.counters...)
	gauges := append([]*GaugeVec(nil), r.gauges...)
	hists := append([]*HistogramVec(nil), r.hists...)
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()

	var out []Sample
	for _, v := range counters {
		for _, c := range v.children() {
			c := c.(*Counter)
			out = append(out, Sample{Name: v.name, Labels: v.labels(c.labels), Value: float64(c.Value())})
		}
	}
	for _, v := range gauges {
		for _, c := range v.children() {
			g := c.(*Gauge)
			out = append(out, Sample{Name: v.name, Labels: v.labels(g.labels), Value: float64(g.Value())})
		}
	}
	for _, v := range hists {
		for _, c := range v.children() {
			h := c.(*Histogram)
			base := v.labels(h.labels)
			counts := h.snapshotBuckets()
			var cum uint64
			for i, n := range counts {
				cum += n
				le := "+Inf"
				if i < len(v.bounds) {
					le = formatFloat(v.bounds[i])
				}
				labels := cloneLabels(base)
				labels["le"] = le
				out = append(out, Sample{Name: v.name + "_bucket", Labels: labels, Value: float64(cum)})
			}
			out = append(out, Sample{Name: v.name + "_sum", Labels: cloneLabels(base), Value: h.Sum().Seconds()})
			out = append(out, Sample{Name: v.name + "_count", Labels: cloneLabels(base), Value: float64(h.Count())})
		}
	}
	for _, c := range collectors {
		c(func(s Sample) { out = append(out, s) })
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4), with # HELP and # TYPE comments
// per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	counters := append([]*CounterVec(nil), r.counters...)
	gauges := append([]*GaugeVec(nil), r.gauges...)
	hists := append([]*HistogramVec(nil), r.hists...)
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()

	for _, v := range counters {
		writeHeader(bw, v.name, v.help, "counter")
		for _, c := range v.children() {
			c := c.(*Counter)
			writeSample(bw, v.name, v.labels(c.labels), float64(c.Value()))
		}
	}
	for _, v := range gauges {
		writeHeader(bw, v.name, v.help, "gauge")
		for _, c := range v.children() {
			g := c.(*Gauge)
			writeSample(bw, v.name, v.labels(g.labels), float64(g.Value()))
		}
	}
	for _, v := range hists {
		writeHeader(bw, v.name, v.help, "histogram")
		for _, c := range v.children() {
			h := c.(*Histogram)
			base := v.labels(h.labels)
			counts := h.snapshotBuckets()
			var cum uint64
			for i, n := range counts {
				cum += n
				le := "+Inf"
				if i < len(v.bounds) {
					le = formatFloat(v.bounds[i])
				}
				labels := cloneLabels(base)
				labels["le"] = le
				writeSample(bw, v.name+"_bucket", labels, float64(cum))
			}
			writeSample(bw, v.name+"_sum", base, h.Sum().Seconds())
			writeSample(bw, v.name+"_count", base, float64(h.Count()))
		}
	}
	// Collector samples are grouped by name so families stay contiguous.
	var collected []Sample
	for _, c := range collectors {
		c(func(s Sample) { collected = append(collected, s) })
	}
	sort.SliceStable(collected, func(i, j int) bool { return collected[i].Name < collected[j].Name })
	prev := ""
	for _, s := range collected {
		if s.Name != prev {
			typ := "gauge"
			if strings.HasSuffix(s.Name, "_total") {
				typ = "counter"
			}
			writeHeader(bw, s.Name, "", typ)
			prev = s.Name
		}
		writeSample(bw, s.Name, s.Labels, s.Value)
	}
	return bw.Flush()
}

// Handler serves the registry at an HTTP endpoint (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client went away
	})
}

func writeHeader(w *bufio.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func writeSample(w *bufio.Writer, name string, labels map[string]string, value float64) {
	w.WriteString(name)
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s=%q", k, labels[k])
		}
		w.WriteByte('}')
	}
	fmt.Fprintf(w, " %s\n", formatFloat(value))
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func cloneLabels(m map[string]string) map[string]string {
	out := make(map[string]string, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ParsePrometheus parses text in the Prometheus exposition format back
// into samples — the inverse of WritePrometheus for the subset this
// package emits. loadgen.Sweep and benchmark/scrape.go use it to scrape
// a live daisd; tests use it to assert the format round-trips.
func ParsePrometheus(text string) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: parse line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name, line = line[:i], line[i:]
	if !validName(s.Name, true) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	if strings.HasPrefix(line, "{") {
		pairs, rest, ok := splitLabelPairs(line[1:])
		if !ok {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		for _, pair := range pairs {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !validName(k, false) || !strings.HasPrefix(v, `"`) {
				return s, fmt.Errorf("bad label pair %q", pair)
			}
			unq, err := strconv.Unquote(v)
			if err != nil {
				return s, fmt.Errorf("bad label value %q: %w", v, err)
			}
			s.Labels[k] = unq
		}
		line = rest
	}
	val, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = val
	return s, nil
}

// validName reports whether s is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*),
// or a label name — no colon — when colon is unset.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || colon && c == ':' || i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return s != ""
}

// splitLabelPairs splits k1="v1",k2="v2"} on the commas outside quotes,
// up to the closing brace outside quotes, and returns the text after
// it; ok=false when no brace closes the set.
func splitLabelPairs(s string) (pairs []string, rest string, ok bool) {
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(s):
			b.WriteByte(c)
			i++
			b.WriteByte(s[i])
		case c == '"':
			inQuote = !inQuote
			b.WriteByte(c)
		case c == ',' && !inQuote:
			pairs = append(pairs, b.String())
			b.Reset()
		case c == '}' && !inQuote:
			if b.Len() > 0 {
				pairs = append(pairs, b.String())
			}
			return pairs, s[i+1:], true
		default:
			b.WriteByte(c)
		}
	}
	return nil, "", false
}

// bucketsFromSamples collects the (le, cumulative count) pairs of a
// histogram's _bucket samples matching the filter, sorted by bound.
func bucketsFromSamples(samples []Sample, name string, filter map[string]string) (bounds []float64, cum []uint64) {
	type bucket struct {
		le  float64
		cum uint64
	}
	var buckets []bucket
	for _, s := range samples {
		if s.Name != name+"_bucket" || !labelsMatch(s.Labels, filter) {
			continue
		}
		le := math.Inf(1)
		if s.Labels["le"] != "+Inf" {
			v, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue
			}
			le = v
		}
		buckets = append(buckets, bucket{le: le, cum: uint64(s.Value)})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for _, b := range buckets {
		if !math.IsInf(b.le, 1) {
			bounds = append(bounds, b.le)
		}
		cum = append(cum, b.cum)
	}
	return bounds, cum
}

// DeltaQuantile estimates a latency quantile from the growth of a
// histogram between two scrapes: the cumulative bucket counts of the
// before scrape are subtracted from the after scrape, and the quantile
// is estimated over the difference (over the after scrape alone when
// before is nil; label filter pairs must all match, the le label belongs
// to the estimator). The open-loop load harness uses it
// to report per-sweep-step server-side percentiles from the endpoint's
// monotonically growing /metrics histograms. A series absent from the
// before scrape counts as zero (the histogram was born mid-window).
func DeltaQuantile(before, after []Sample, name string, filter map[string]string, q float64) time.Duration {
	bounds, cumAfter := bucketsFromSamples(after, name, filter)
	if len(cumAfter) == 0 {
		return 0
	}
	boundsBefore, cumBefore := bucketsFromSamples(before, name, filter)
	counts := make([]uint64, len(cumAfter))
	var prevA, prevB uint64
	for i := range cumAfter {
		a := cumAfter[i] - prevA
		prevA = cumAfter[i]
		var b uint64
		if i < len(cumBefore) && i <= len(boundsBefore) {
			b = cumBefore[i] - prevB
			prevB = cumBefore[i]
		}
		if a >= b {
			counts[i] = a - b
		}
	}
	return bucketQuantile(bounds, counts, q)
}

// DeltaCount reports the growth of a counter between two scrapes
// (CountFromSamples(after) − CountFromSamples(before), floored at 0).
func DeltaCount(before, after []Sample, name string, filter map[string]string) float64 {
	d := CountFromSamples(after, name, filter) - CountFromSamples(before, name, filter)
	if d < 0 {
		return 0
	}
	return d
}

// CountFromSamples sums the values of samples with the given name whose
// labels match the filter (ignoring extra labels such as le).
func CountFromSamples(samples []Sample, name string, filter map[string]string) float64 {
	var total float64
	for _, s := range samples {
		if s.Name == name && labelsMatch(s.Labels, filter) {
			total += s.Value
		}
	}
	return total
}

func labelsMatch(labels, filter map[string]string) bool {
	for k, v := range filter {
		if labels[k] != v {
			return false
		}
	}
	return true
}
