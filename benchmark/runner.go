package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dais/internal/client"
)

// The closed-loop load generator and the end-to-end arithmetic. A DAIS
// consumer is a program that waits for its reply, so each client sends
// its next operation only after the previous one completed.
//
// The measured window is cut into slices, and a windowed metric's value
// is the quiet decile of its slice values: the machine is a few cores
// of a shared host, whose other tenants slow those cores down for
// anything from a tenth of a second to minutes (a shared last-level
// cache and memory bus; the guest sees no stolen time for it), and
// never speed them up. What the program costs is what it costs in the
// slices the neighbours left alone, so of the slice values the decile
// on the good side is reported (the 10th percentile of a cost, the
// 90th of a rate), and their inter-quartile range is printed beside it.
//
// The clients advance in rounds: a round is one deck of operations for
// each client, and a client that has dealt its deck waits for the
// others. A slice ends after a round, once minSlice has passed, so
// every slice holds the same mix of operations — the slice values
// differ by the machine's state, not by which statements happened to
// fall into them — and the clocks are read while nothing is in flight.
const (
	minSlice      = 100 * time.Millisecond
	slicesAtLeast = 8 // a window shorter than 8 × minSlice is cut finer
	quietShare    = 0.10
)

// quiet is the decile of vals on the good side.
func quiet(vals []float64, better string) float64 {
	if better == "higher" {
		return quantile(vals, 1-quietShare)
	}
	return quantile(vals, quietShare)
}

// sample is one executed operation, timed from the window's start.
type sample struct {
	start, end time.Duration
	class      string
	rows       int
	err        error
}

// window is what a measured run leaves behind. Slice k lies between
// the instants at[k] and at[k+1], both between two rounds.
type window struct {
	t0        time.Time       // the window's start on the wall clock
	samples   []sample        // every operation of the window
	at        []time.Duration // the slice boundaries, from the window's start
	serverCPU []float64       // servers' CPU ms at each boundary
	clientCPU []float64       // generator's CPU ms at each boundary
	steal     []float64       // ms the host kept the core, at each boundary
	separate  bool            // servers are processes of their own
	mem       [2]runtime.MemStats
}

func (w *window) slices() int           { return len(w.at) - 1 }
func (w *window) length() time.Duration { return w.at[w.slices()] - w.at[0] }

// runClients drives one closed-loop client per generator until stop
// returns true; stop is asked between operations, with the client's
// index and the number of operations it has completed. It returns the
// samples of all clients; times are relative to t0.
func runClients(ctx context.Context, c *client.Client, d *deployment, gens []generator, t0 time.Time,
	stop func(client, done int) bool) []sample {
	perClient := make([][]sample, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g generator) {
			defer wg.Done()
			for n := 0; !stop(i, n) && ctx.Err() == nil; n++ {
				op := g.Next()
				start := time.Since(t0)
				rows, err := execOp(ctx, c, d, op)
				perClient[i] = append(perClient[i], sample{start: start, end: time.Since(t0), class: op.Class, rows: rows, err: err})
			}
		}(i, g)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// warmOps is the number of operations each client runs before the
// window opens. It is a count, not a duration, so that set-up time is
// work done and moves when that work gets cheaper or dearer.
func warmOps(workload string) int {
	switch workload {
	case wlBulk:
		return 1
	case wlScanAgg:
		return 46 // one deck: every template's plan and the column chunks
	case wlWriteBeside:
		return 14
	}
	return 240
}

// measure runs the window: the clients loop, round by round, for
// `length`. The client that ends a round last — the others are waiting
// for it, nothing is in flight — reads the clocks if a slice's time has
// passed, and ends the window once `length` has. The window is what
// lies between the first reading and the last.
func measure(ctx context.Context, c *client.Client, d *deployment, gens []generator, sys system, round []int, length time.Duration) *window {
	w := &window{separate: sys.separate()}
	slice := min(minSlice, length/slicesAtLeast)
	runtime.GC() // start every window from the same heap state
	runtime.ReadMemStats(&w.mem[0])
	t0 := time.Now()
	w.t0 = t0

	var mu sync.Mutex
	waiting, over, release := 0, false, make(chan struct{})
	w.samples = runClients(ctx, c, d, gens, t0, func(client, done int) bool {
		if done%round[client] != 0 {
			return false // inside a round
		}
		mu.Lock()
		if waiting++; waiting < len(gens) {
			wait := release
			mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
				return true
			}
			mu.Lock()
			defer mu.Unlock()
			return over
		}
		defer mu.Unlock()
		now := time.Since(t0)
		over = now >= length
		if over || len(w.at) == 0 || now-w.at[len(w.at)-1] >= slice {
			w.at = append(w.at, now)
			w.serverCPU = append(w.serverCPU, sys.cpuMillis())
			w.clientCPU = append(w.clientCPU, selfCPUMillis())
			w.steal = append(w.steal, stealMillis())
		}
		waiting = 0
		close(release)
		release = make(chan struct{})
		return over
	})
	runtime.ReadMemStats(&w.mem[1])
	return w
}

// opStats reduces a window to attempted/failed counts and metrics.
type opStats struct {
	attempted, failed int
	firstErr          error
	busy              time.Duration // client-observed time of the correct operations
}

// windowMetrics computes the windowed metrics. Every operation lies
// whole inside one slice.
//
// The end-to-end figures are on the core's clock: the CPU time the
// generator and the servers used in a slice, per correct operation, at
// the core's speed during the window (the yardstick); time the host
// took the core away is not in them. The wall-clock rates beside them
// are what the host let through. Both are the quiet decile of their
// slice values. The latency figures are quantiles over all operations
// of the window, pooled and per class.
func windowMetrics(w *window, out metricSet, sliceVals map[string][]float64) opStats {
	var st opStats
	n := w.slices()
	ops, rows := make([]float64, n), make([]float64, n)
	lat := map[string][]float64{} // by class; "" pools all classes
	for _, s := range w.samples {
		st.attempted++
		if s.err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("%s: %w", s.class, s.err)
			}
			continue // a failed operation gives no latency and no throughput
		}
		st.busy += s.end - s.start
		ms := float64(s.end-s.start) / float64(time.Millisecond)
		lat[""] = append(lat[""], ms)
		lat[s.class] = append(lat[s.class], ms)
		// The slice whose closing boundary is the first at or after the
		// operation's end (the last boundary follows every operation).
		if k := sort.Search(n, func(k int) bool { return w.at[k+1] >= s.end }); k < n {
			ops[k]++
			rows[k] += float64(s.rows)
		}
	}

	put := func(name string, vals []float64) {
		out[name] = quiet(vals, betterOf(name))
		sliceVals[name] = vals
	}
	speed := yard.speed(w.t0.Add(w.at[0]), w.t0.Add(w.at[n]))
	var opsPerS, rowsPerS, cpu, serverCPU, clientCPU []float64
	for k := 0; k < n; k++ {
		secs := (w.at[k+1] - w.at[k]).Seconds()
		opsPerS = append(opsPerS, ops[k]/secs)
		rowsPerS = append(rowsPerS, rows[k]/secs)
		if ops[k] > 0 {
			server, client := (w.serverCPU[k+1]-w.serverCPU[k])*speed, (w.clientCPU[k+1]-w.clientCPU[k])*speed
			all := server
			if w.separate {
				all += client
			}
			cpu = append(cpu, all/ops[k])
			serverCPU = append(serverCPU, server/ops[k])
			clientCPU = append(clientCPU, client/ops[k])
		}
	}
	put("cpu_ms_per_op", cpu)
	put("server_cpu_ms_per_op", serverCPU)
	put("proc.client_cpu_ms_per_op", clientCPU)
	put("ops_per_s", opsPerS)
	put("rows_per_s", rowsPerS)
	out["p50_ms"] = quantile(lat[""], 0.5)
	out["p99_ms"] = quantile(lat[""], 0.99)
	for _, class := range classMetrics {
		out[class+"_p50_ms"] = quantile(lat[class], 0.5)
	}
	out["fail_ratio"] = float64(st.failed) / math.Max(1, float64(st.attempted))
	out["host.speed"] = speed
	out["host.steal_share"] = (w.steal[n] - w.steal[0]) / (float64(w.length()) / float64(time.Millisecond))
	return st
}

// quantile is the q-quantile of vals by linear interpolation between
// order statistics.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// logf prints progress to standard error, keeping standard output for
// the metric table and the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
