// Package loadgen is the open-loop multi-tenant load harness for the
// DAIS stack (EXPERIMENTS.md E17); cmd/daisbench runs its sweep and
// churn against a daisd and a daisgw. Every other benchmark (the
// `go test -bench` ones and the benchmark/ workloads) is closed-loop —
// a fixed set of callers, each issuing its next request only after the
// previous one returns — which can never exhibit the regime the
// specifications were written for: thousands of independent consumers
// whose arrivals do not slow down just because the service does.
//
// The harness models that population directly: request arrivals follow
// a Poisson process at a configured rate (exponential inter-arrival
// times drawn from a seeded RNG, so a run is reproducible), each
// arrival picks a scenario from a weighted mix (SQL-direct execution,
// SQL-indirect create-fetch-destroy, XML XPath, WSRF property reads and
// lifetime writes), and scenarios pick their target resource with
// zipfian popularity over a pre-created population — a few resources
// take most of the traffic, the tail is cold, exactly the shape a
// shared data federation sees.
//
// Because the loop is open, overload is visible instead of being
// absorbed: when the service slows past the arrival rate, in-flight
// requests pile up until the admission gate sheds them, and the
// capacity sweep (sweep.go) turns that into a knee — the maximum
// sustainable request rate at which the p99 latency still meets the
// SLO. churn.go adds the soft-state counterpart: factories minting
// short-TTL resources that race the WSRF reaper.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dais/internal/core"
)

// Scenario is one request class in the workload mix.
type Scenario struct {
	// Name labels the class in results ("sql-direct", ...).
	Name string
	// Weight is the class's relative share of arrivals (>0).
	Weight float64
	// Op is the server-side operation whose /metrics histogram carries
	// this class's latency (the first request of multi-call scenarios);
	// the sweep scrapes it for server-side percentiles.
	Op string
	// Run issues one request (or one short session, for scenarios like
	// create-fetch-destroy). r is private to the call and seeded from
	// the dispatcher sequence, so runs are reproducible.
	Run func(ctx context.Context, r *rand.Rand) error
}

// Config parameterises one open-loop run.
type Config struct {
	// Rate is the offered arrival rate in requests per second.
	Rate float64
	// Duration bounds the arrival window; in-flight requests are
	// drained (up to Timeout) after the last arrival.
	Duration time.Duration
	// Scenarios is the weighted mix; weights are validated as in
	// NormalizeWeights.
	Scenarios []Scenario
	// Seed makes the arrival process and scenario choice reproducible.
	Seed int64
	// Timeout bounds each request (default 10s).
	Timeout time.Duration
	// MaxOutstanding caps concurrently in-flight requests (default
	// 4096). An open loop must not block arrivals on completions, but a
	// hung service would otherwise accumulate goroutines without bound;
	// arrivals past the cap are counted as Dropped, which the sweep
	// treats as an SLO violation.
	MaxOutstanding int
}

// ClassResult aggregates one scenario class's outcomes.
type ClassResult struct {
	Name   string
	Issued int
	OK     int
	// Shed counts requests rejected by the admission gate with a typed
	// ServiceBusyFault. They are neither successes nor errors: the gate
	// behaving as designed.
	Shed int
	// Errors counts everything else (timeouts included).
	Errors int

	mu        sync.Mutex
	latencies []time.Duration // client-observed, successes only
	sorted    bool
}

// observe records one completed call.
func (c *ClassResult) observe(d time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.OK++
		c.latencies = append(c.latencies, d)
		c.sorted = false
	case isShed(err):
		c.Shed++
	default:
		c.Errors++
	}
}

// Quantile reports a client-observed latency percentile over the
// class's successful requests (exact, not bucketed).
func (c *ClassResult) Quantile(q float64) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.latencies) == 0 {
		return 0
	}
	if !c.sorted {
		sort.Slice(c.latencies, func(i, j int) bool { return c.latencies[i] < c.latencies[j] })
		c.sorted = true
	}
	i := int(q * float64(len(c.latencies)))
	if i >= len(c.latencies) {
		i = len(c.latencies) - 1
	}
	return c.latencies[i]
}

// isShed recognises the admission gate's typed rejection, both as the
// decoded client-side fault and as the raw server-side error.
func isShed(err error) bool {
	var busy *core.ServiceBusyFault
	return errors.As(err, &busy)
}

// Result is one open-loop run's outcome.
type Result struct {
	Rate    float64
	Elapsed time.Duration
	Classes map[string]*ClassResult
	Issued  int
	OK      int
	Shed    int
	Errors  int
	// Dropped counts arrivals discarded because MaxOutstanding was
	// reached — the harness itself refusing to model more concurrency,
	// which only happens deep past saturation.
	Dropped int
}

// AchievedRPS is the completed-successfully rate over the arrival
// window.
func (r *Result) AchievedRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// Quantile reports the all-classes client-observed percentile.
func (r *Result) Quantile(q float64) time.Duration {
	all := &ClassResult{}
	for _, c := range r.Classes {
		c.mu.Lock()
		all.latencies = append(all.latencies, c.latencies...)
		c.mu.Unlock()
	}
	return all.Quantile(q)
}

// NormalizeWeights validates a mix and returns each scenario's
// cumulative probability share. It rejects an empty mix, negative or
// NaN weights, a zero weight sum and duplicate class names.
func NormalizeWeights(scenarios []Scenario) ([]float64, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("loadgen: empty scenario mix")
	}
	seen := map[string]bool{}
	sum := 0.0
	for _, s := range scenarios {
		if s.Name == "" {
			return nil, fmt.Errorf("loadgen: scenario with empty name")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("loadgen: duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
		if s.Weight < 0 || s.Weight != s.Weight {
			return nil, fmt.Errorf("loadgen: scenario %q has invalid weight %v", s.Name, s.Weight)
		}
		sum += s.Weight
	}
	if sum <= 0 {
		return nil, fmt.Errorf("loadgen: scenario weights sum to zero")
	}
	cum := make([]float64, len(scenarios))
	acc := 0.0
	for i, s := range scenarios {
		acc += s.Weight / sum
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // guard against accumulated rounding
	return cum, nil
}

// pickScenario maps one uniform draw to a scenario index.
func pickScenario(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// Run executes one open-loop window at cfg.Rate and returns the
// aggregated result. The dispatcher draws inter-arrival gaps and
// scenario choices from one seeded RNG (deterministic offered load);
// each request goroutine gets a private RNG seeded from that sequence,
// so zipf target picks are reproducible too without sharing state.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cum, err := NormalizeWeights(cfg.Scenarios)
	if err != nil {
		return nil, err
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive arrival rate %v", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive duration %v", cfg.Duration)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	maxOut := cfg.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 4096
	}

	res := &Result{Rate: cfg.Rate, Classes: map[string]*ClassResult{}}
	for _, s := range cfg.Scenarios {
		res.Classes[s.Name] = &ClassResult{Name: s.Name}
	}

	master := rand.New(rand.NewSource(cfg.Seed))
	sem := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res.Issued/Dropped during dispatch

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	for {
		// Absolute schedule: gaps accumulate on the planned timeline,
		// not on the post-sleep clock, so the offered rate does not
		// drift under scheduler noise. A dispatcher running behind
		// issues immediately (open loop: lateness is the service's
		// problem to reveal, not the generator's to absorb).
		gap := time.Duration(master.ExpFloat64() / cfg.Rate * float64(time.Second))
		next = next.Add(gap)
		if next.After(deadline) {
			break
		}
		idx := pickScenario(cum, master.Float64())
		reqSeed := master.Int63()
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		sc := &cfg.Scenarios[idx]
		cls := res.Classes[sc.Name]
		select {
		case sem <- struct{}{}:
		default:
			mu.Lock()
			res.Dropped++
			res.Issued++
			mu.Unlock()
			continue
		}
		mu.Lock()
		res.Issued++
		mu.Unlock()
		cls.mu.Lock()
		cls.Issued++
		cls.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			r := rand.New(rand.NewSource(reqSeed))
			t0 := time.Now()
			err := sc.Run(rctx, r)
			cls.observe(time.Since(t0), err)
		}()
	}
	// Elapsed is the arrival window, not the drain: achieved RPS
	// relates completions to the time load was offered over.
	window := time.Since(start)
	wg.Wait()
	res.Elapsed = window
	for _, c := range res.Classes {
		res.OK += c.OK
		res.Shed += c.Shed
		res.Errors += c.Errors
	}
	return res, nil
}
