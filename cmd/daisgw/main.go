// Command daisgw is the DAIS federation gateway: one SOAP endpoint
// that shards data resources across N backend daisd endpoints. It owns
// the cluster-wide CoreResourceList, routes operations by
// DataResourceAbstractName (recorded placement first, consistent-hash
// ring otherwise) and scatter-gathers alias-addressed GenericQuery calls
// across the member shards; a factory operation on an alias, whose
// derived resource would hold one shard's rows, is an
// InvalidResourceNameFault. Every backend call runs through the
// resilient client: idempotency-gated retries and a per-backend
// circuit breaker wired into the gateway's health board.
//
// Usage:
//
//	daisgw -backend http://h1:8090/sql -backend http://h2:8090/sql \
//	       [-addr :8088] [-alias 'urn:cluster:emp=urn:r1@http://h1:8090/sql,urn:r2@http://h2:8090/sql'] \
//	       [-fanout 4] [-probe 5s] [-max-inflight 0] [-per-resource-inflight 0]
//	       [-ops-addr 127.0.0.1:9088] [-pprof] [-log-level info] [-log-json]
//
// Observability lives on /metrics (gateway fan-out and per-backend
// counters in Prometheus text format), /healthz (aggregated backend
// health: 200 while at least one backend answers) and /spans — on the
// main listener and, when -ops-addr is set, on a separate ops listener
// that optionally adds net/http/pprof (the same pair of flags, with the
// same meaning, as daisd's).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dais/internal/gateway"
	"dais/internal/resil"
	"dais/internal/telemetry"
)

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// parseAlias decodes one -alias value:
//
//	name=resource@backendURL,resource@backendURL
//
// Member order is the scatter-gather merge order.
func parseAlias(v string) (gateway.Alias, error) {
	name, members, ok := strings.Cut(v, "=")
	if !ok || name == "" || members == "" {
		return gateway.Alias{}, fmt.Errorf("alias %q: want name=resource@backendURL[,...]", v)
	}
	a := gateway.Alias{Name: name}
	for _, m := range strings.Split(members, ",") {
		res, backend, ok := strings.Cut(m, "@")
		if !ok || res == "" || backend == "" {
			return gateway.Alias{}, fmt.Errorf("alias %q member %q: want resource@backendURL", v, m)
		}
		a.Members = append(a.Members, gateway.Member{Backend: backend, Resource: res})
	}
	return a, nil
}

func main() {
	var backends, aliasSpecs stringList
	addr := flag.String("addr", "127.0.0.1:8088", "listen address")
	flag.Var(&backends, "backend", "backend DAIS endpoint URL (repeatable, at least one)")
	flag.Var(&aliasSpecs, "alias", "cluster alias 'name=resource@backendURL[,resource@backendURL...]' (repeatable)")
	fanout := flag.Int("fanout", 4, "concurrent backend calls per scatter and per probe sweep")
	probe := flag.Duration("probe", 5*time.Second, "backend health-probe interval (0 probes once at startup)")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-backend probe deadline")
	maxInFlight := flag.Int("max-inflight", 0, "gateway-wide in-flight request cap; excess is shed with HTTP 503 + Retry-After (0 disables admission control)")
	perResource := flag.Int("per-resource-inflight", 0, "per-resource in-flight request cap (0 disables)")
	opsAddr := flag.String("ops-addr", "", "separate listener for /metrics, /healthz, /spans and pprof (empty serves them on the main listener only)")
	usePprof := flag.Bool("pprof", false, "expose net/http/pprof on the ops listener")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	logger := newLogger(os.Stderr, *logLevel, *logJSON)
	slog.SetDefault(logger)

	if len(backends) == 0 {
		fatal(logger, "no backends: pass -backend at least once")
	}
	var aliases []gateway.Alias
	for _, spec := range aliasSpecs {
		a, err := parseAlias(spec)
		if err != nil {
			fatal(logger, "bad alias", "err", err)
		}
		aliases = append(aliases, a)
	}

	obs := telemetry.NewObserver(telemetry.WithLogger(logger))
	cfg := gateway.Config{
		Backends:     backends,
		Aliases:      aliases,
		Fanout:       *fanout,
		Observer:     obs,
		ObserverSet:  true,
		ProbeTimeout: *probeTimeout,
	}
	if *maxInFlight > 0 || *perResource > 0 {
		global := *maxInFlight
		if global == 0 {
			global = -1 // only the per-resource cap was requested
		}
		cfg.Admission = &resil.AdmissionConfig{MaxInFlight: global, PerResource: *perResource}
	}
	gw := gateway.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen failed", "addr", *addr, "err", err)
	}
	base := "http://" + ln.Addr().String()
	gw.SetAddress(base)

	// First probe runs synchronously so routing state is warm before the
	// gateway accepts traffic.
	var stopProber func()
	if *probe > 0 {
		stopProber = gw.StartProber(*probe)
	} else {
		gw.Probe(context.Background())
		stopProber = func() {}
	}
	defer stopProber()

	mux := newMux(gw, obs)

	// Optional dedicated ops listener: the same observability surface as
	// the main mux, plus pprof, isolated from data-path traffic.
	opsSrv, _, err := obs.ServeOps(logger, *opsAddr, gw.Healthz(), *usePprof)
	if err != nil {
		fatal(logger, "ops listen failed", "addr", *opsAddr, "err", err)
	}

	logger.Info("daisgw listening", "base", base,
		"backends", len(gw.Backends()), "aliases", len(aliases), "fanout", *fanout)
	for _, b := range gw.Backends() {
		logger.Info("federating backend", "endpoint", b)
	}
	for _, a := range aliases {
		logger.Info("cluster alias", "name", a.Name, "members", len(a.Members))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	httpSrv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serve failed", "err", err)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		shutCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		if opsSrv != nil {
			opsSrv.Shutdown(shutCtx) //nolint:errcheck // best effort
		}
		<-errCh
	}
}

// newMux is the gateway's main listener: the SOAP front door at /, and
// beside it the observability endpoints every DAIS command serves.
func newMux(gw *gateway.Gateway, obs *telemetry.Observer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", gw)
	obs.MountOps(mux, gw.Healthz())
	return mux
}

// newLogger builds the process slog handler.
func newLogger(w *os.File, level string, asJSON bool) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if asJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// fatal logs and exits: the structured replacement for log.Fatalf.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
