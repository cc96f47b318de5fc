package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"dais/internal/telemetry"
)

// SweepConfig parameterises a capacity sweep: the same open-loop mix
// offered at each rate in turn, each step scored against the SLO.
type SweepConfig struct {
	// Rates are the offered arrival rates (requests/second), swept in
	// order (ascending, so saturation effects don't bleed backwards).
	Rates []float64
	// StepDuration is the arrival window per rate.
	StepDuration time.Duration
	// SLO is the p99 latency objective the knee is defined against.
	SLO time.Duration
	// MaxShedFraction is the tolerated shed share per step (default
	// 0.01): a step shedding more is past the knee even if the
	// successes it did serve were fast.
	MaxShedFraction float64
	// Seed derives each step's seed (Seed + step index).
	Seed int64
	// Timeout and MaxOutstanding pass through to each step's Config.
	Timeout        time.Duration
	MaxOutstanding int
}

// ClassPoint is one scenario class's score at one offered rate.
// Durations are milliseconds in the JSON so BENCH_E17.json diffs read
// naturally.
type ClassPoint struct {
	Class        string  `json:"class"`
	Issued       int     `json:"issued"`
	OK           int     `json:"ok"`
	Shed         int     `json:"shed"`
	Errors       int     `json:"errors"`
	ClientP50Ms  float64 `json:"client_p50_ms"`
	ClientP99Ms  float64 `json:"client_p99_ms"`
	ClientP999Ms float64 `json:"client_p999_ms"`
	ServerP50Ms  float64 `json:"server_p50_ms,omitempty"`
	ServerP99Ms  float64 `json:"server_p99_ms,omitempty"`
	ServerP999Ms float64 `json:"server_p999_ms,omitempty"`
}

// CurvePoint is one offered rate's aggregate score.
type CurvePoint struct {
	OfferedRPS  float64      `json:"offered_rps"`
	AchievedRPS float64      `json:"achieved_rps"`
	Issued      int          `json:"issued"`
	OK          int          `json:"ok"`
	Shed        int          `json:"shed"`
	Errors      int          `json:"errors"`
	Dropped     int          `json:"dropped"`
	P50Ms       float64      `json:"p50_ms"`
	P99Ms       float64      `json:"p99_ms"`
	P999Ms      float64      `json:"p999_ms"`
	WithinSLO   bool         `json:"within_slo"`
	Classes     []ClassPoint `json:"classes"`
}

// Curve is one target's capacity curve, as daisbench writes it to
// BENCH_E17.json per target.
type Curve struct {
	Target string       `json:"target"`
	SLOMs  float64      `json:"slo_ms"`
	Seed   int64        `json:"seed"`
	Points []CurvePoint `json:"points"`
	// KneeRPS is the maximum sustainable throughput: the highest
	// achieved RPS among SLO-meeting points (0 when no point meets it).
	KneeRPS float64 `json:"knee_rps"`
	// KneeOfferedRPS is the offered rate at that point.
	KneeOfferedRPS float64 `json:"knee_offered_rps"`
}

// Sweep runs the mix against a target at each configured rate and
// assembles the capacity curve. Server-side percentiles come from
// scraping the target's /metrics before and after each step and
// estimating quantiles over the delta, so each point reflects only its
// own window.
func Sweep(ctx context.Context, target *Target, scenarios []Scenario, cfg SweepConfig) (*Curve, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("loadgen: sweep with no rates")
	}
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("loadgen: sweep needs a positive SLO")
	}
	maxShed := cfg.MaxShedFraction
	if maxShed <= 0 {
		maxShed = 0.01
	}
	curve := &Curve{Target: target.Name, SLOMs: ms(cfg.SLO), Seed: cfg.Seed}
	for i, rate := range cfg.Rates {
		before, err := scrape(target.MetricsURL)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scrape before step %d: %w", i, err)
		}
		res, err := Run(ctx, Config{
			Rate:           rate,
			Duration:       cfg.StepDuration,
			Scenarios:      scenarios,
			Seed:           cfg.Seed + int64(i),
			Timeout:        cfg.Timeout,
			MaxOutstanding: cfg.MaxOutstanding,
		})
		if err != nil {
			return nil, err
		}
		after, err := scrape(target.MetricsURL)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scrape after step %d: %w", i, err)
		}
		pt := CurvePoint{
			OfferedRPS:  rate,
			AchievedRPS: res.AchievedRPS(),
			Issued:      res.Issued,
			OK:          res.OK,
			Shed:        res.Shed,
			Errors:      res.Errors,
			Dropped:     res.Dropped,
			P50Ms:       ms(res.Quantile(0.50)),
			P99Ms:       ms(res.Quantile(0.99)),
			P999Ms:      ms(res.Quantile(0.999)),
		}
		shedFrac := 0.0
		if res.Issued > 0 {
			shedFrac = float64(res.Shed+res.Dropped) / float64(res.Issued)
		}
		pt.WithinSLO = res.OK > 0 && res.Errors == 0 &&
			res.Quantile(0.99) <= cfg.SLO && shedFrac <= maxShed
		for _, s := range scenarios {
			c := res.Classes[s.Name]
			cp := ClassPoint{
				Class:        c.Name,
				Issued:       c.Issued,
				OK:           c.OK,
				Shed:         c.Shed,
				Errors:       c.Errors,
				ClientP50Ms:  ms(c.Quantile(0.50)),
				ClientP99Ms:  ms(c.Quantile(0.99)),
				ClientP999Ms: ms(c.Quantile(0.999)),
			}
			if before != nil && after != nil && s.Op != "" {
				filter := map[string]string{"side": telemetry.SideServer, "op": s.Op}
				cp.ServerP50Ms = ms(telemetry.DeltaQuantile(before, after, telemetry.MetricLatency, filter, 0.50))
				cp.ServerP99Ms = ms(telemetry.DeltaQuantile(before, after, telemetry.MetricLatency, filter, 0.99))
				cp.ServerP999Ms = ms(telemetry.DeltaQuantile(before, after, telemetry.MetricLatency, filter, 0.999))
			}
			pt.Classes = append(pt.Classes, cp)
		}
		curve.Points = append(curve.Points, pt)
		if pt.WithinSLO && pt.AchievedRPS > curve.KneeRPS {
			curve.KneeRPS = pt.AchievedRPS
			curve.KneeOfferedRPS = pt.OfferedRPS
		}
	}
	return curve, nil
}

// scrape fetches and parses a Prometheus exposition ("" URL → nil,
// meaning server-side percentiles are skipped).
func scrape(url string) ([]telemetry.Sample, error) {
	if url == "" {
		return nil, nil
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return telemetry.ParsePrometheus(string(body))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
