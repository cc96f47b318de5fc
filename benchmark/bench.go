package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"dais/internal/client"
)

// One workload's measured run against spawned server processes.

// paths locates the repository and the benchmark's output directory.
type paths struct {
	root string // repository root (holds go.mod of module dais)
	out  string // benchmark/out
	bin  string // benchmark/out/bin
}

// findPaths walks up from the working directory to the repository root.
func findPaths() (paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(data)), "module dais\n") {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return paths{}, fmt.Errorf("repository root (go.mod of module dais) not found above the working directory")
		}
		dir = parent
	}
	out := filepath.Join(dir, "benchmark", "out")
	p := paths{root: dir, out: out, bin: filepath.Join(out, "bin")}
	return p, os.MkdirAll(p.bin, 0o755)
}

// buildServers compiles cmd/daisd and cmd/daisgw from the checkout's
// source into benchmark/out/bin.
func buildServers(ctx context.Context, p paths) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", p.bin+string(os.PathSeparator), "./cmd/daisd", "./cmd/daisgw")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build servers: %w\n%s", err, out)
	}
	return nil
}

// system is the hosting a measured run needs: somewhere to start
// servers, and the servers' CPU time, peak memory and liveness.
type system interface {
	host
	stopAll()
	cpuMillis() float64 // CPU time of the servers so far
	separate() bool     // the servers' CPU time is not in the generator's
	rssPeakMB() float64
	died() string // names a server that exited on its own, or ""
}

// spawnHost starts servers as child processes.
type spawnHost struct {
	procSet
	p      paths
	prefix string // log-file prefix: the workload name
}

// daisdArgs are the flags every spawned daisd gets. -seed-rows 0: no
// demonstration rows; the benchmark loads its own data over the wire.
// Everything else is the shipped default.
func daisdArgs() []string { return []string{"-log-level", "warn", "-seed-rows", "0"} }

// daisgwArgs are the flags the spawned gateway gets. -probe 0: one
// synchronous probe at start-up and none afterwards, so background
// probes do not add backend requests to the counts.
func daisgwArgs(backends []string, alias string) []string {
	args := []string{"-log-level", "warn", "-probe", "0", "-alias", alias}
	for _, b := range backends {
		args = append(args, "-backend", b)
	}
	return args
}

func (h *spawnHost) daisd(ctx context.Context, label string) (string, error) {
	pr, err := h.spawn(ctx, h.p.out, h.prefix+"-"+label, filepath.Join(h.p.bin, "daisd"), daisdArgs()...)
	if err != nil {
		return "", err
	}
	return pr.base, nil
}

func (h *spawnHost) daisgw(ctx context.Context, label string, backends []string, alias string) (string, error) {
	pr, err := h.spawn(ctx, h.p.out, h.prefix+"-"+label, filepath.Join(h.p.bin, "daisgw"), daisgwArgs(backends, alias)...)
	if err != nil {
		return "", err
	}
	return pr.base, nil
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	sz      sizes
	setups  int // how many times set-up is run and timed, at least
	// setupTime is how long set-up goes on being repeated (up to
	// maxSetups times) when the repeats above took less: a short set-up
	// gets more tries at finding the machine undisturbed.
	setupTime time.Duration
}

// result is one workload's outcome.
type result struct {
	workload  string
	metrics   metricSet            // every metric measured
	slices    map[string][]float64 // the slice values behind each windowed metric
	attempted int
	failed    int
	firstErr  error
}

// setUp starts, loads and warms one workload on sys, returning the
// deployment and the generators (warmed: the window continues their
// streams).
func setUp(ctx context.Context, sys system, workload string, cfg runConfig) (*deployment, []generator, error) {
	c := newClient()
	d, err := deploy(ctx, sys, c, workload, cfg.sz)
	if err != nil {
		return nil, nil, err
	}
	gens := make([]generator, clientsOf(workload))
	for i := range gens {
		gens[i] = newGenerator(workload, cfg.sz, cfg.seed, i)
	}
	return d, gens, warmUp(ctx, c, d, gens, workload)
}

// warmUp runs each client's warm-up operations; one failing fails it.
func warmUp(ctx context.Context, c *client.Client, d *deployment, gens []generator, workload string) error {
	warm := runClients(ctx, c, d, gens, time.Now(), func(_, done int) bool { return done >= warmOps(workload) })
	for _, s := range warm {
		if s.err != nil {
			return fmt.Errorf("warm-up %s: %w", s.class, s.err)
		}
	}
	return nil
}

// maxSetups bounds the set-up repeats of one run.
const maxSetups = 12

// runMeasured is the untraced run: set-up (repeated and timed), the
// window, the scrapes, the oracles. newSystem yields fresh, empty
// hosting for each set-up.
func runMeasured(ctx context.Context, workload string, cfg runConfig, length time.Duration, newSystem func() system) (*result, error) {
	res := &result{workload: workload, metrics: metricSet{}, slices: map[string][]float64{}}

	// Set-up is run several times (the quiet decile is reported):
	// every repeat starts from nothing, and the last one is kept and
	// measured. Like the window's figures it is timed on the core's
	// clock, at the core's speed while the set-ups ran: the CPU time the
	// generator and the servers took from spawn to warmed up.
	var setupSecs []float64
	setupsBegan := time.Now()
	var sys system
	var d *deployment
	var gens []generator
	for i, began := 0, time.Now(); i < cfg.setups || (i < maxSetups && time.Since(began) < cfg.setupTime); i++ {
		if sys != nil {
			sys.stopAll()
		}
		cpu0 := selfCPUMillis()
		sys = newSystem()
		defer sys.stopAll()
		var err error
		if d, gens, err = setUp(ctx, sys, workload, cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", workload, err)
		}
		cpu := selfCPUMillis() - cpu0
		if sys.separate() {
			cpu += sys.cpuMillis() // the servers were born inside the interval
		}
		setupSecs = append(setupSecs, cpu/1000)
	}
	speed := yard.speed(setupsBegan, time.Now())
	for i := range setupSecs {
		setupSecs[i] *= speed
	}
	res.metrics["setup_s"] = quiet(setupSecs, "lower")
	res.slices["setup_s"] = setupSecs
	logf("%s: set-up %.2fs (x%d), measuring %v", workload, res.metrics["setup_s"], len(setupSecs), length)

	c := newClient()
	before, err := fetchAll(ctx, d.bases)
	if err != nil {
		return nil, err
	}
	w := measure(ctx, c, d, gens, sys, roundOps(workload), length)
	if w.slices() < 1 {
		return nil, fmt.Errorf("%s: the window of %v is too short to hold one slice", workload, length)
	}
	after, err := fetchAll(ctx, d.bases)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	st := windowMetrics(w, res.metrics, res.slices)
	res.attempted, res.failed, res.firstErr = st.attempted, st.failed, st.firstErr

	// Counters cover every operation between the scrapes, whole.
	whole := float64(st.attempted - st.failed)
	counterMetrics(before, after, whole, st.busy.Seconds(), workload == wlGateway, res.metrics)
	res.metrics["client.allocs_per_op"] = per(float64(w.mem[1].Mallocs-w.mem[0].Mallocs), whole)
	res.metrics["client.alloc_kb_per_op"] = per(float64(w.mem[1].TotalAlloc-w.mem[0].TotalAlloc)/1024, whole)
	res.metrics["proc.server_rss_peak_mb"] = sys.rssPeakMB()
	res.metrics["sqlengine.vector_path_share"], err = vectorPathShare(ctx, c, d, workload, cfg.sz)
	if err != nil {
		return nil, err
	}

	if died := sys.died(); died != "" {
		return nil, fmt.Errorf("%s: server process died: %s", workload, died)
	}
	return res, nil
}

// vectorPathShare asks the server, with EXPLAIN over the wire, which
// execution path each distinct SELECT of the workload takes, and
// returns the share that runs vectorised (the rest run on the row
// executor or the interpreter).
func vectorPathShare(ctx context.Context, c *client.Client, d *deployment, workload string, sz sizes) (float64, error) {
	const sampleOps, maxStatements = 200, 32
	g := newGenerator(workload, sz, 1, clientsOf(workload)-1)
	seen := map[string]bool{}
	var vector, total float64
	for i := 0; i < sampleOps && len(seen) < maxStatements; i++ {
		op := g.Next()
		if !strings.HasPrefix(op.SQL, "SELECT") || seen[op.SQL] {
			continue
		}
		seen[op.SQL] = true
		ref := d.sql[0]
		if len(d.backends) > 0 {
			ref = d.backends[0] // plans live on the nodes, not the gateway
		}
		res, err := c.SQLExecute(ctx, ref, "EXPLAIN "+op.SQL, nil, "")
		if err != nil {
			return 0, fmt.Errorf("EXPLAIN %s: %w", op.SQL, err)
		}
		total++
		if res.Set != nil {
			for _, row := range res.Set.Rows {
				if len(row) > 0 && strings.Contains(row[0].S, "vector") {
					vector++
					break
				}
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return vector / total, nil
}
