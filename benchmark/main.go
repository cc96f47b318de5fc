// Command benchmark is the repository's one performance instrument: a
// seeded, closed-loop DAIS benchmark that builds cmd/daisd and
// cmd/daisgw, runs them as separate OS processes, loads them over the
// wire, and reports named end-to-end and per-layer metrics for five
// fixed workloads. See README.md beside this file.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh --seed N                 # all five workloads
//	bash benchmark/run.sh --seed N --selfcheck     # repeatability table
//
// Every metric is printed as "workload metric value unit"; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all five, in order)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs; the servers never see it")
	seconds := flag.Float64("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and reports the per-layer metrics")
	jsonOut := flag.String("json", "", "also write every workload's full metric set to this file")
	selfcheck := flag.Bool("selfcheck", false, "run the set twice on the same seed and compare end-to-end metrics against their bounds")
	flag.Parse()

	// Children are reaped on normal exit, on error, and on SIGINT or
	// SIGTERM: the signal cancels the context every run hangs off, and
	// each run's deferred stopAll kills and waits for its servers.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	code, err := run(ctx, *workload, *seed, *seconds, *trace == 1, *jsonOut, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	cancel()
	os.Exit(code)
}

func run(ctx context.Context, workload string, seed int64, seconds float64, traced bool, jsonOut string, selfcheck bool) (int, error) {
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 || seconds > 600 {
		return 2, fmt.Errorf("-seconds %v out of range", seconds)
	}
	names := workloadNames
	if workload != "" {
		if !slices.Contains(workloadNames, workload) {
			return 2, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
		}
		names = []string{workload}
	}
	p, err := findPaths()
	if err != nil {
		return 1, err
	}
	if err := buildServers(ctx, p); err != nil {
		return 1, err
	}
	pinToOneCore() // after the build, which may use every CPU
	yard = startYardstick()
	defer yard.stop()
	cfg := runConfig{seed: seed, seconds: seconds, sz: fullSizes, setups: 3, setupTime: 4 * time.Second}

	if selfcheck {
		ok, err := selfCheck(ctx, p, names, cfg)
		if err != nil {
			return 1, err
		}
		if !ok {
			return 1, errors.New("selfcheck: at least one end-to-end metric differs between the two sets by more than its bound")
		}
		return 0, nil
	}

	code := 0
	var all []*result
	for _, name := range names {
		res, err := runWorkload(ctx, p, name, cfg, traced)
		if err != nil {
			return 1, err
		}
		all = append(all, res)
		printResult(os.Stdout, res, traced)
		if res.failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed; first: %v\n", name, res.failed, res.attempted, res.firstErr)
			code = 1
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, seed, all); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// runWorkload runs one workload: the measured spawned-process run and,
// when traced, the in-process traced run and the layer probes after it.
func runWorkload(ctx context.Context, p paths, workload string, cfg runConfig, traced bool) (*result, error) {
	length := time.Duration(cfg.seconds * float64(time.Second))
	if traced {
		// The traced invocation splits its time: a shorter untraced
		// window (the counters and the overhead baseline), then the
		// traced window; set-up is timed once only.
		cfg.setups, cfg.setupTime = 1, 0
		length = length * 6 / 10
	}
	res, err := runMeasured(ctx, workload, cfg, length, func() system { return &spawnHost{p: p, prefix: workload} })
	if err != nil {
		return nil, err
	}
	if traced {
		unpin()
		defer pinToOneCore()
		tracedLen := time.Duration(cfg.seconds * float64(time.Second) * 3 / 10)
		if err := runTraced(ctx, p, workload, cfg, tracedLen, res); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", workload, err)
		}
	}
	return res, nil
}

// printResult prints "workload metric value unit" for everything
// measured, then the result line the driver reads.
func printResult(w io.Writer, res *result, traced bool) {
	line := func(name string) {
		v, ok := res.metrics[name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "%s %s %s %s\n", res.workload, name, formatValue(v), unitOf(name))
		if vals, ok := res.slices[name]; ok {
			iqr := quantile(vals, 0.75) - quantile(vals, 0.25)
			fmt.Fprintf(w, "%s %s.iqr %s %s\n", res.workload, name, formatValue(iqr), unitOf(name))
		}
	}
	for _, m := range endToEnd {
		line(m.Name)
	}
	for _, m := range perLayer {
		line(m.Name)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		out.Metrics[m.Name] = metricValue{Value: finite(res.metrics[m.Name]), Unit: m.Unit}
	}
	data, _ := json.Marshal(out) // plain maps and numbers: cannot fail
	fmt.Fprintln(w, string(data))
}

// finite maps NaN and infinities (a ratio over an empty count) to 0 so
// the result line stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", finite(v)) }

// writeJSON writes every workload's full metric set to path.
func writeJSON(path string, seed int64, all []*result) error {
	type entry struct {
		Workload  string                 `json:"workload"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
		Slices    map[string][]float64   `json:"slices"`
	}
	doc := struct {
		Seed      int64   `json:"seed"`
		Workloads []entry `json:"workloads"`
	}{Seed: seed}
	for _, r := range all {
		e := entry{Workload: r.workload, Attempted: r.attempted, Failed: r.failed,
			Metrics: map[string]metricValue{}, Slices: r.slices}
		for name, v := range r.metrics {
			e.Metrics[name] = metricValue{Value: finite(v), Unit: unitOf(name)}
		}
		doc.Workloads = append(doc.Workloads, e)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfCheck runs the set twice back to back on one seed and prints the
// pairwise table: the evidence for the repeatability the bounds assume.
func selfCheck(ctx context.Context, p paths, names []string, cfg runConfig) (bool, error) {
	var sets [2][]*result
	for i := range sets {
		for _, name := range names {
			res, err := runWorkload(ctx, p, name, cfg, false)
			if err != nil {
				return false, err
			}
			if res.failed > 0 {
				return false, fmt.Errorf("%s: %d of %d operations failed; first: %v", name, res.failed, res.attempted, res.firstErr)
			}
			sets[i] = append(sets[i], res)
		}
	}
	ok := true
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse_by", "bound", "verdict")
	for w := range names {
		for _, m := range endToEnd {
			a, b := sets[0][w].metrics[m.Name], sets[1][w].metrics[m.Name]
			worse := worseBy(m, a, b)
			verdict := "ok"
			// Either order may be the worse one: neither run is the baseline.
			if math.Max(worse, worseBy(m, b, a)) > m.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Printf("%-18s %-22s %14s %14s %8.1f%% %6.0f%%  %s\n", names[w], m.Name,
				formatValue(a), formatValue(b), 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// worseBy is the share of base by which next is worse (negative when
// it is better).
func worseBy(m metricDef, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}
