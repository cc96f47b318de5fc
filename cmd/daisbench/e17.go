package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/gateway"
	"dais/internal/loadgen"
	"dais/internal/resil"
	"dais/internal/service"
	"dais/internal/telemetry"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// What every E17 node hosts and what the knee is scored against.
const (
	sloP99       = 250 * time.Millisecond
	sqlResources = 8
	xmlResources = 3
	seedRows     = 1000
	// maxInFlight is the admission ceiling per node: past the knee the
	// system sheds with ServiceBusyFault instead of queuing without bound.
	maxInFlight = 64
)

// e17Config is what a run varies: the arrival-rate sweep, the seed that
// makes the offered load a pure function of the configuration, and the
// lifetime-churn cycle count (0 skips churn).
type e17Config struct {
	rates       []float64
	step        time.Duration
	seed        int64
	churnCycles int
}

// e17Report is what daisbench writes to BENCH_E17.json: one capacity
// curve per target plus the churn invariants.
type e17Report struct {
	Seed    int64                `json:"seed"`
	Single  *loadgen.Curve       `json:"single"`
	Cluster *loadgen.Curve       `json:"cluster"`
	Churn   *loadgen.ChurnReport `json:"churn,omitempty"`
}

// runE17 sweeps the standard multi-tenant mix open-loop over cfg.rates
// against (a) one daisd node and (b) a daisgw gateway sharding over three
// replicated backends, each point carrying client- and server-side
// p50/p99/p999 per op class, and runs the lifetime churn against the
// single node.
func runE17(cfg e17Config) (*e17Report, error) {
	rep := &e17Report{Seed: cfg.seed}
	if err := rep.runSingle(cfg); err != nil {
		return nil, err
	}
	if err := rep.runCluster(cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

func (rep *e17Report) runSingle(cfg e17Config) error {
	base, stop := node("e17-single")
	defer stop()
	curve, target, err := sweep(cfg, "daisd", base)
	if err != nil {
		return err
	}
	rep.Single = curve
	if cfg.churnCycles == 0 {
		return nil
	}
	rep.Churn, err = loadgen.RunChurn(context.Background(), loadgen.ChurnConfig{
		Client: target.Client,
		Source: target.SQLRefs[0],
		Cycles: cfg.churnCycles,
		TTL:    4 * time.Millisecond,
		Seed:   cfg.seed,
	})
	if err != nil {
		return fmt.Errorf("E17 churn: %w", err)
	}
	return nil
}

// runCluster fronts three replicated nodes with a gateway. Every backend
// hosts the full population under the same names, so the gateway's
// consistent-hash ring spreads the resource space across the shards while
// every route resolves.
func (rep *e17Report) runCluster(cfg e17Config) error {
	var backends []string
	for i := 0; i < 3; i++ {
		base, stop := node(fmt.Sprintf("e17-shard%d", i))
		defer stop()
		backends = append(backends, base)
	}
	obs := telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	gw := gateway.New(gateway.Config{
		Backends:   backends,
		Observer:   obs,
		Resilience: &resil.ClientConfig{}, // single attempt per proxy hop
		Admission: &resil.AdmissionConfig{
			MaxInFlight: 3 * maxInFlight,
			RetryAfter:  250 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(withMetrics(gw, obs))
	defer ts.Close()
	gw.SetAddress(ts.URL)
	gw.Probe(context.Background())
	curve, _, err := sweep(cfg, "daisgw-3", ts.URL)
	rep.Cluster = curve
	return err
}

// sweep offers the standard mix to the population at base, through a
// consumer with no resilience policy and no shared observer, so every
// shed and fault reaches the harness accounting exactly once.
func sweep(cfg e17Config, name, base string) (*loadgen.Curve, *loadgen.Target, error) {
	target := &loadgen.Target{
		Name:       name,
		Client:     client.NewResilient(nil, nil, resil.ClientConfig{}),
		MetricsURL: base + "/metrics",
	}
	for i := 0; i < sqlResources; i++ {
		target.SQLRefs = append(target.SQLRefs, client.Ref(base, fmt.Sprintf("urn:dais:load:sql-%03d", i)))
	}
	for i := 0; i < xmlResources; i++ {
		target.XMLRefs = append(target.XMLRefs, client.Ref(base, fmt.Sprintf("urn:dais:load:xml-%03d", i)))
	}
	pop, err := loadgen.NewPopularity(sqlResources, 1.2, 1.5)
	if err != nil {
		return nil, nil, err
	}
	curve, err := loadgen.Sweep(context.Background(), target, loadgen.StandardMix(target, pop), loadgen.SweepConfig{
		Rates:        cfg.rates,
		StepDuration: cfg.step,
		SLO:          sloP99,
		Seed:         cfg.seed,
		Timeout:      5 * time.Second,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("E17 %s sweep: %w", name, err)
	}
	return curve, target, nil
}

// node serves one daisd-shaped endpoint: the canonical loadgen data
// population, XML collections, WSRF lifetime management with a running
// reaper, admission control and a /metrics exposition — the operator
// deployment E17 claims to measure. Every node hosts the same resource
// names, so whichever backend a gateway picks resolves the route.
func node(name string) (base string, stop func()) {
	eng := loadgen.SeedEngine(name, seedRows)
	svc := core.NewDataService(name,
		core.WithConfigurationMap(dair.StandardConfigurationMaps()...),
		core.WithConfigurationMap(daix.StandardConfigurationMaps()...))
	obs := telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	ep := service.NewEndpoint(svc,
		service.WithWSRF(),
		service.WithTelemetry(obs),
		service.WithAdmission(resil.AdmissionConfig{
			MaxInFlight: maxInFlight,
			RetryAfter:  250 * time.Millisecond,
		}))
	for i := 0; i < sqlResources; i++ {
		res := dair.NewSQLDataResource(eng)
		res.Name = fmt.Sprintf("urn:dais:load:sql-%03d", i)
		ep.Register(res)
	}
	for i := 0; i < xmlResources; i++ {
		store := xmldb.NewStore(fmt.Sprintf("col-%03d", i))
		for j, text := range []string{
			`<book id="1"><title>Alpha</title><price>10</price></book>`,
			`<book id="2"><title>Beta</title><price>30</price></book>`,
			`<book id="3"><title>Gamma</title><price>45</price></book>`,
		} {
			doc, err := xmlutil.ParseString(text)
			if err == nil {
				err = store.AddDocument("", fmt.Sprintf("b%d.xml", j), doc)
			}
			if err != nil {
				panic(err)
			}
		}
		res := daix.NewXMLCollectionResource(store, "")
		res.Name = fmt.Sprintf("urn:dais:load:xml-%03d", i)
		ep.Register(res)
	}
	ts := httptest.NewServer(withMetrics(ep, obs))
	svc.SetAddress(ts.URL)
	stopReaper := ep.WSRF().StartReaper(5 * time.Millisecond)
	return ts.URL, func() { stopReaper(); ts.Close() }
}

// withMetrics serves h at / and the observer's registry at /metrics.
func withMetrics(h http.Handler, obs *telemetry.Observer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/metrics", obs.Registry.Handler())
	return mux
}
