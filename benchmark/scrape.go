package main

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"dais/internal/telemetry"
)

// Reading the servers' own counters from outside: a scrape of /metrics
// before and after the window, reduced to per-operation layer figures.

// scrape is the parsed /metrics of one server.
type scrape []telemetry.Sample

// fetchMetrics scrapes base+"/metrics".
func fetchMetrics(ctx context.Context, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return telemetry.ParsePrometheus(string(text))
}

// fetchAll scrapes every server of a deployment, front door first.
func fetchAll(ctx context.Context, bases []string) ([]scrape, error) {
	out := make([]scrape, len(bases))
	for i, b := range bases {
		s, err := fetchMetrics(ctx, b)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sum adds every sample of name whose labels include the filter.
func (s scrape) sum(name string, filter ...string) float64 {
	var total float64
	s.each(name, filter, func(sr telemetry.Sample) { total += sr.Value })
	return total
}

// each visits every sample of name matching the (key, value, ...) filter.
func (s scrape) each(name string, filter []string, f func(telemetry.Sample)) {
next:
	for _, sr := range s {
		if sr.Name != name {
			continue
		}
		for i := 0; i+1 < len(filter); i += 2 {
			if sr.Labels[filter[i]] != filter[i+1] {
				continue next
			}
		}
		f(sr)
	}
}

// delta sums name over all servers, after minus before.
func delta(before, after []scrape, name string, filter ...string) float64 {
	var d float64
	for i := range after {
		d += after[i].sum(name, filter...) - before[i].sum(name, filter...)
	}
	return d
}

// per is v/n, 0 when n is not positive.
func per(v, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return v / n
}

// ratio is hit/(hit+miss), 0 when nothing was counted.
func ratio(hit, miss float64) float64 {
	if hit+miss <= 0 {
		return 0
	}
	return hit / (hit + miss)
}

// counterMetrics turns the scrape deltas of one window into the
// untraced per-layer metrics. ops is the number of correct operations
// completed between the two scrapes, busy the client-observed time they
// took in total. Index 0 of the scrapes is the front door (the gateway
// on gateway_mix, else the daisd).
func counterMetrics(before, after []scrape, ops float64, busySeconds float64, gateway bool, out metricSet) {
	perOp := func(v float64) float64 { return per(v, ops) }
	srv := []string{"side", "server"}
	out["service.requests_per_op"] = perOp(delta(before, after, "dais_requests_total", srv...))
	out["soap.bytes_in_per_op"] = perOp(delta(before, after, "dais_envelope_bytes_total", "side", "server", "direction", "in"))
	out["soap.bytes_out_per_op"] = perOp(delta(before, after, "dais_envelope_bytes_total", "side", "server", "direction", "out"))

	// Handler time as the front door saw it, against what the client saw.
	handler := after[0].sum("dais_request_seconds_sum", srv...) - before[0].sum("dais_request_seconds_sum", srv...)
	out["service.handler_ms_per_op"] = perOp(handler * 1000)
	out["service.unattributed_share"] = 0
	if busySeconds > 0 {
		out["service.unattributed_share"] = 1 - handler/busySeconds
	}

	out["soap.encode_pool_hit_ratio"] = ratio(
		delta(before, after, "dais_encode_pool_buffers_total", "outcome", "hit"),
		delta(before, after, "dais_encode_pool_buffers_total", "outcome", "miss"))
	out["sqlengine.plan_cache_hit_ratio"] = ratio(
		delta(before, after, "dais_plan_cache_hits_total"),
		delta(before, after, "dais_plan_cache_misses_total"))
	out["sqlengine.vector_batches_per_op"] = perOp(delta(before, after, "dais_vector_batches_total"))
	out["sqlengine.chunks_skipped_per_op"] = perOp(delta(before, after, "dais_vector_chunks_skipped_total"))
	out["rowset.spill_bytes"] = delta(before, after, "dais_rowset_spill_bytes_total")
	out["rowset.rows_total"] = delta(before, after, "dais_rowset_rows_total")
	out["resil.shed_total"] = delta(before, after, "dais_shed_total")
	out["resil.retries_total"] = delta(before, after, "dais_retries_total")
	out["service.faults_total"] = delta(before, after, "dais_faults_total", srv...)
	out["wsrf.live_resources_delta"] = delta(before, after, "dais_wsrf_resources")

	out["gateway.backend_requests_per_op"] = 0
	out["gateway.backend_imbalance"] = 0
	out["gateway.fanout_ms_per_scatter"] = 0
	if gateway {
		perBackend := map[string]float64{}
		after[0].each("dais_gw_backend_requests_total", nil, func(sr telemetry.Sample) { perBackend[sr.Label("backend")] += sr.Value })
		before[0].each("dais_gw_backend_requests_total", nil, func(sr telemetry.Sample) { perBackend[sr.Label("backend")] -= sr.Value })
		var total, most float64
		for _, v := range perBackend {
			total += v
			most = max(most, v)
		}
		out["gateway.backend_requests_per_op"] = perOp(total)
		if total > 0 {
			out["gateway.backend_imbalance"] = most / (total / float64(len(perBackend)))
		}
		scatters := delta(before[:1], after[:1], "dais_gw_fanout_seconds_count")
		if scatters > 0 {
			out["gateway.fanout_ms_per_scatter"] = 1000 * delta(before[:1], after[:1], "dais_gw_fanout_seconds_sum") / scatters
		}
	}
}
