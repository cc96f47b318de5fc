// Command daisd hosts DAIS data services over SOAP/HTTP: a relational
// data service (WS-DAIR) backed by the in-memory SQL engine and an XML
// data service (WS-DAIX) backed by the XML collection store, both with
// the optional WSRF layer.
//
// Usage:
//
//	daisd [-addr :8090] [-wsrf] [-seed-rows 1000] [-concurrent=true] [-reap 5s]
//	      [-ops-addr 127.0.0.1:9090] [-pprof] [-log-level info] [-log-json] [-slow 1s]
//	      [-max-inflight 0] [-per-resource-inflight 0] [-rowset-mem-cap 67108864]
//
// On startup it logs the endpoint URLs and the abstract names of the
// hosted resources; point daisql / daixq at them. Observability lives
// on /metrics (Prometheus text format), /healthz (JSON liveness of the
// registries and backends) and /spans (recent request spans) — on the
// main listener and, when -ops-addr is set, on a separate ops listener
// that optionally adds net/http/pprof.
//
// Every derived rowset (the factory chain of WS-DAIR) streams: GetTuples
// answers while the engine is still producing. -rowset-mem-cap bounds
// the bytes of rows one of them keeps in memory before its pages spill
// to a filestore; 0 never spills.
//
// -max-inflight bounds concurrent requests per endpoint and
// -per-resource-inflight bounds them per data resource; excess load is
// shed with a ServiceBusyFault carried on HTTP 503 + Retry-After,
// which resilient clients honour as retry pacing (DESIGN.md §5
// "Resilience architecture").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dais/internal/core"
	"dais/internal/daif"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/filestore"
	"dais/internal/resil"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/wsrf"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	useWSRF := flag.Bool("wsrf", true, "enable the WSRF layer (fine-grained properties + soft-state lifetime)")
	seedRows := flag.Int("seed-rows", 100, "rows to seed into the demo employees table")
	concurrent := flag.Bool("concurrent", true, "value of the ConcurrentAccess property")
	reap := flag.Duration("reap", 5*time.Second, "WSRF reaper interval (0 disables)")
	opsAddr := flag.String("ops-addr", "", "separate listener for /metrics, /healthz, /spans and pprof (empty serves them on the main listener only)")
	usePprof := flag.Bool("pprof", false, "expose net/http/pprof on the ops listener")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error (debug logs every request)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	slow := flag.Duration("slow", time.Second, "slow-call log threshold (0 disables)")
	maxInFlight := flag.Int("max-inflight", 0, "per-endpoint in-flight request cap; excess requests are shed with HTTP 503 + Retry-After (0 disables admission control)")
	perResource := flag.Int("per-resource-inflight", 0, "per-data-resource in-flight request cap (0 disables)")
	rowsetMemCap := flag.Int64("rowset-mem-cap", 64<<20, "bytes of result rows a derived rowset keeps in memory before its pages spill to disk (0 never spills)")
	flag.Parse()

	logger := newLogger(os.Stderr, *logLevel, *logJSON)
	slog.SetDefault(logger)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen failed", "addr", *addr, "err", err)
	}
	base := "http://" + ln.Addr().String()

	srv, stop := buildServer(base, config{
		wsrf:         *useWSRF,
		seedRows:     *seedRows,
		concurrent:   *concurrent,
		reap:         *reap,
		slow:         *slow,
		logger:       logger,
		logCalls:     logger.Enabled(context.Background(), slog.LevelDebug),
		maxInFlight:  *maxInFlight,
		perResource:  *perResource,
		rowsetMemCap: *rowsetMemCap,
	})
	defer stop()

	logger.Info("daisd listening", "base", base, "wsrf", *useWSRF, "concurrent", *concurrent)
	logger.Info("service ready", "kind", "relational", "endpoint", base+"/sql", "resource", srv.sqlRes.AbstractName())
	logger.Info("service ready", "kind", "xml", "endpoint", base+"/xml", "resource", srv.xmlRes.AbstractName())
	logger.Info("service ready", "kind", "files", "endpoint", base+"/files", "resource", srv.fileRes.AbstractName())

	// Optional dedicated ops listener: the same observability surface as
	// the main mux, plus pprof, isolated from data-path traffic.
	opsSrv, _, err := srv.obs.ServeOps(logger, *opsAddr, srv.health, *usePprof)
	if err != nil {
		fatal(logger, "ops listen failed", "addr", *opsAddr, "err", err)
	}

	// Serve until interrupted, then drain in-flight requests, stop the
	// WSRF reapers and flush a final telemetry summary.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	httpSrv := &http.Server{Handler: srv.mux}
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
	srv.flushTelemetry(logger)
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

// config collects the daisd settings.
type config struct {
	wsrf       bool
	seedRows   int
	concurrent bool
	reap       time.Duration
	slow       time.Duration // slow-call log threshold (0 disables)
	logger     *slog.Logger  // nil = slog.Default()
	logCalls   bool          // log every request at debug level
	// Admission control: in-flight caps per endpoint and per data
	// resource; both 0 = accept unbounded concurrency.
	maxInFlight int
	perResource int
	// In-memory byte cap per streamed result before its pages spill to
	// the filestore (0 never spills).
	rowsetMemCap int64
}

// server bundles the composed endpoints for main and for tests.
type server struct {
	mux     *http.ServeMux
	obs     *telemetry.Observer
	health  *healthChecker
	sqlEp   *service.Endpoint
	xmlEp   *service.Endpoint
	fileEp  *service.Endpoint
	sqlRes  *dair.SQLDataResource
	xmlRes  *daix.XMLCollectionResource
	fileRes *daif.FileDataResource
}

// buildServer assembles the relational, XML and file data services on a
// mux, instrumented by one shared observer. The returned stop function
// closes the WSRF registries, stopping their reaper goroutines.
func buildServer(base string, cfg config) (*server, func()) {
	logger := cfg.logger
	if logger == nil {
		logger = slog.Default()
	}
	obsOpts := []telemetry.ObserverOption{telemetry.WithLogger(logger), telemetry.WithSlowThreshold(cfg.slow)}
	obs := telemetry.NewObserver(obsOpts...)
	epOpts := func() []service.EndpointOption {
		out := []service.EndpointOption{service.WithTelemetry(obs)}
		if cfg.logCalls {
			out = append(out, service.WithServerInterceptors(logInterceptor(logger)))
		}
		if cfg.wsrf {
			out = append(out, service.WithWSRF())
		}
		if cfg.maxInFlight > 0 || cfg.perResource > 0 {
			global := cfg.maxInFlight
			if global == 0 {
				global = -1 // only the per-resource cap was requested
			}
			out = append(out, service.WithAdmission(resil.AdmissionConfig{
				MaxInFlight: global,
				PerResource: cfg.perResource,
			}))
		}
		return out
	}

	eng := sqlengine.New("hr")
	seedRelational(logger, eng, cfg.seedRows)
	// Plan-cache hit/miss/size counters land on /metrics, labelled by
	// engine.
	service.RegisterPlanCacheMetrics(obs.Registry, eng)
	// Columnar-execution counters: chunks evaluated by vector kernels
	// and chunks skipped outright via zone maps.
	service.RegisterVectorMetrics(obs.Registry, eng)
	// Derived rowsets answer GetTuples while the engine is still
	// producing, spilling past the memory cap into a dedicated
	// filestore; spill volume, rows produced and buffer depth land on
	// /metrics.
	sqlRes := dair.NewSQLDataResource(eng, dair.WithStreamDelivery(rowset.BufferConfig{
		MemCap: cfg.rowsetMemCap,
		Spill:  filestore.NewStore("rowset-spill"),
		Hooks:  service.RowsetStreamHooks(obs.Registry),
	}))
	sqlSvc := core.NewDataService("relational",
		core.WithConcurrentAccess(cfg.concurrent),
		core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	sqlEp := service.NewEndpoint(sqlSvc, epOpts()...)
	sqlEp.Register(sqlRes)
	sqlSvc.SetAddress(base + "/sql")

	store := xmldb.NewStore("library")
	seedXML(logger, store)
	xmlRes := daix.NewXMLCollectionResource(store, "")
	xmlSvc := core.NewDataService("xml",
		core.WithConcurrentAccess(cfg.concurrent),
		core.WithConfigurationMap(daix.StandardConfigurationMaps()...))
	xmlEp := service.NewEndpoint(xmlSvc, epOpts()...)
	xmlEp.Register(xmlRes)
	xmlSvc.SetAddress(base + "/xml")

	fstore := filestore.NewStore("archive")
	seedFiles(logger, fstore)
	fileRes := daif.NewFileDataResource(fstore)
	fileSvc := core.NewDataService("files",
		core.WithConcurrentAccess(cfg.concurrent),
		core.WithConfigurationMap(daif.StandardConfigurationMaps()...))
	fileEp := service.NewEndpoint(fileSvc, epOpts()...)
	fileEp.Register(fileRes)
	fileSvc.SetAddress(base + "/files")

	var regs []*wsrf.Registry
	if cfg.wsrf {
		for _, ep := range []*service.Endpoint{sqlEp, xmlEp, fileEp} {
			if reg := ep.WSRF(); reg != nil {
				regs = append(regs, reg)
				if cfg.reap > 0 {
					reg.StartReaper(cfg.reap)
				}
			}
		}
	}

	health := &healthChecker{started: time.Now()}
	health.add("relational", func(ctx context.Context) error {
		_, err := eng.Exec(`SELECT COUNT(*) FROM dept`)
		return err
	})
	health.add("xml", func(ctx context.Context) error {
		_, err := store.ListDocuments("")
		return err
	})
	health.add("files", func(ctx context.Context) error {
		_, err := fstore.List("**")
		return err
	})
	for i, reg := range regs {
		reg := reg
		health.add(fmt.Sprintf("wsrf-%d", i), func(ctx context.Context) error {
			reg.IDs() // proves the registry lock is not wedged
			return nil
		})
	}

	srv := &server{mux: http.NewServeMux(), obs: obs, health: health,
		sqlEp: sqlEp, xmlEp: xmlEp, fileEp: fileEp,
		sqlRes: sqlRes, xmlRes: xmlRes, fileRes: fileRes}
	srv.mux.Handle("/sql", sqlEp)
	srv.mux.Handle("/xml", xmlEp)
	srv.mux.Handle("/files", fileEp)
	obs.MountOps(srv.mux, health)
	return srv, func() {
		for _, r := range regs {
			r.Close()
		}
	}
}

// flushTelemetry logs a final request summary on graceful shutdown so
// short-lived runs leave their numbers in the log.
func (s *server) flushTelemetry(logger *slog.Logger) {
	var served, faults int64
	for _, sm := range s.obs.Registry.Snapshot() {
		switch sm.Name {
		case telemetry.MetricRequests:
			if sm.Label("side") == telemetry.SideServer {
				served += int64(sm.Value)
			}
		case telemetry.MetricFaults:
			if sm.Label("side") == telemetry.SideServer {
				faults += int64(sm.Value)
			}
		}
	}
	logger.Info("telemetry flush", "requests_served", served, "faults", faults,
		"spans_recorded", s.obs.Tracer.Total())
}

// logInterceptor logs every dispatched request with the request ID the
// pipeline interceptor put on the context, so log lines, spans and
// metrics all correlate on one key.
func logInterceptor(logger *slog.Logger) soap.Interceptor {
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		start := time.Now()
		resp, err := next(ctx, action, env)
		logger.Debug("request",
			"request_id", soap.RequestIDFromContext(ctx),
			"action", action,
			"duration", time.Since(start),
			"code", telemetry.FaultCode(err))
		return resp, err
	}
}

// healthChecker serves /healthz: every registered backend probe must
// pass for the service to report healthy.
type healthChecker struct {
	started time.Time
	checks  []struct {
		name  string
		check func(context.Context) error
	}
}

func (h *healthChecker) add(name string, check func(context.Context) error) {
	h.checks = append(h.checks, struct {
		name  string
		check func(context.Context) error
	}{name, check})
}

func (h *healthChecker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	status := "ok"
	results := map[string]string{}
	for _, c := range h.checks {
		if err := c.check(ctx); err != nil {
			status = "degraded"
			results[c.name] = err.Error()
		} else {
			results[c.name] = "ok"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // client went away
		"status":         status,
		"checks":         results,
		"uptime_seconds": int64(time.Since(h.started).Seconds()),
	})
}

func seedRelational(logger *slog.Logger, eng *sqlengine.Engine, rows int) {
	eng.MustExec(`CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR(32) NOT NULL)`)
	eng.MustExec(`INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'legal'), (4, 'ops')`)
	eng.MustExec(`CREATE TABLE emp (
		id INTEGER PRIMARY KEY,
		name VARCHAR(64) NOT NULL,
		dept_id INTEGER,
		salary DOUBLE,
		active BOOLEAN DEFAULT TRUE
	)`)
	sess := eng.NewSession()
	for i := 1; i <= rows; i++ {
		if _, err := sess.Execute(`INSERT INTO emp (id, name, dept_id, salary) VALUES (?, ?, ?, ?)`,
			sqlengine.NewInt(int64(i)),
			sqlengine.NewString(fmt.Sprintf("employee-%04d", i)),
			sqlengine.NewInt(int64(i%4+1)),
			sqlengine.NewDouble(50000+float64((i*937)%90000))); err != nil {
			fatal(logger, "seed relational", "err", err)
		}
	}
}

func seedXML(logger *slog.Logger, store *xmldb.Store) {
	docs := []string{
		`<book id="1" genre="db"><title>Principles of Distributed Database Systems</title><author>Ozsu</author><price>85</price></book>`,
		`<book id="2" genre="grid"><title>The Grid</title><author>Foster</author><price>60</price></book>`,
		`<book id="3" genre="db"><title>Transaction Processing</title><author>Gray</author><price>110</price></book>`,
	}
	for i, d := range docs {
		e, err := xmlutil.ParseString(d)
		if err != nil {
			fatal(logger, "seed xml", "err", err)
		}
		if err := store.AddDocument("", fmt.Sprintf("book%d.xml", i+1), e); err != nil {
			fatal(logger, "seed xml", "err", err)
		}
	}
}

func seedFiles(logger *slog.Logger, store *filestore.Store) {
	for name, data := range map[string]string{
		"runs/2005/run-001.dat": "evt-001;evt-002;evt-003;",
		"runs/2005/run-002.dat": "evt-101;evt-102;",
		"calib/atlas.cal":       "gain=1.07",
		"README":                "demo file archive",
	} {
		if err := store.Write(name, []byte(data)); err != nil {
			fatal(logger, "seed files", "err", err)
		}
	}
}
