// Command daisbench runs experiment E17 (EXPERIMENTS.md): the open-loop
// capacity sweep of internal/loadgen against a single daisd and a
// 3-backend daisgw, both hosted in process, and the lifetime-churn run
// against the single node. It prints both curves and the churn table and
// writes BENCH_E17.json into the working directory. Every other
// experiment runs as a `go test -bench` benchmark or a benchmark/
// workload (DESIGN.md §4).
//
// Usage:
//
//	daisbench [-quick] [-seed 1] [-e17-rates 200,400,800]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"dais/internal/loadgen"
)

// parseRates turns the -e17-rates flag value into the sweep's offered
// arrival rates. Rates must be positive, finite and ascending — a
// descending sweep would let saturation bleed backwards into the
// points meant to establish the below-knee baseline. An empty value
// returns nil, meaning "use the built-in sweep".
func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty rate in %q", s)
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("rate %q: %w", part, err)
		}
		if v <= 0 || v != v || v > 1e9 {
			return nil, fmt.Errorf("rate %v out of range (want 0 < rate ≤ 1e9)", v)
		}
		if len(out) > 0 && v <= out[len(out)-1] {
			return nil, fmt.Errorf("rates must ascend: %v after %v", v, out[len(out)-1])
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	quick := flag.Bool("quick", false, "a shorter sweep and churn")
	seed := flag.Int64("seed", 1, "deterministic seed for the open-loop load")
	e17Rates := flag.String("e17-rates", "", "override the sweep rates (comma-separated ascending rps)")
	flag.Parse()

	cfg := e17Config{
		rates:       []float64{200, 400, 800, 1600, 3200},
		step:        2 * time.Second,
		seed:        *seed,
		churnCycles: 20_000,
	}
	if *quick {
		cfg.rates = []float64{150, 400}
		cfg.step = 700 * time.Millisecond
		cfg.churnCycles = 2_000
	}
	if rates, err := parseRates(*e17Rates); err != nil {
		fatal(err)
	} else if rates != nil {
		cfg.rates = rates
	}
	rep, err := runE17(cfg)
	fatal(err)

	printCurve(fmt.Sprintf("E17 Open-loop capacity curve: %s (SLO p99 ≤ %.0fms, seed %d)",
		rep.Single.Target, rep.Single.SLOMs, rep.Seed), rep.Single)
	printCurve(fmt.Sprintf("E17 Open-loop capacity curve: %s (3 replicated backends)", rep.Cluster.Target), rep.Cluster)
	if c := rep.Churn; c != nil {
		table("E17 Lifetime churn (factory-created short-TTL resources racing the reaper)",
			"cycles\tdestroy won\treaper won\tmisclassified\tfetch-after-reap ok\tcycles/s",
			func(w *tabwriter.Writer) {
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.0f\n",
					c.Cycles, c.DestroyWon, c.ReaperWon, c.Misclassified, c.FetchAfterReapOK, c.CyclesPerSec)
			})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	fatal(os.WriteFile("BENCH_E17.json", append(data, '\n'), 0o644))
	fmt.Println("\nE17 report written to BENCH_E17.json")
}

func printCurve(title string, curve *loadgen.Curve) {
	table(title, "offered rps\tachieved\tok\tshed\terrors\tp50 ms\tp99 ms\tp99.9 ms\twithin SLO",
		func(w *tabwriter.Writer) {
			for _, p := range curve.Points {
				fmt.Fprintf(w, "%.0f\t%.0f\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%v\n",
					p.OfferedRPS, p.AchievedRPS, p.OK, p.Shed, p.Errors, p.P50Ms, p.P99Ms, p.P999Ms, p.WithinSLO)
			}
			fmt.Fprintf(w, "knee\t%.0f rps (offered %.0f)\n", curve.KneeRPS, curve.KneeOfferedRPS)
		})
}

func table(title, header string, body func(*tabwriter.Writer)) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	body(w)
	w.Flush()
}

func fatal(err error) {
	if err != nil {
		log.Fatalf("daisbench: E17: %v", err)
	}
}
