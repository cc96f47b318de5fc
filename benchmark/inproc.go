package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/filestore"
	"dais/internal/gateway"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/xmldb"
)

// In-process hosting: the same endpoints cmd/daisd and cmd/daisgw
// compose, built here so that the traced run can wrap the server-side
// seams (http.Handler around the endpoint, interceptor inside the
// service) without touching any file outside benchmark/. The measured
// end-to-end numbers never come from here.

// node is one in-process daisd: the relational and XML services the
// workloads address, with the parts the layer probes call directly.
type node struct {
	base   string
	eng    *sqlengine.Engine
	store  *xmldb.Store
	sqlSvc *core.DataService
	sqlEp  *service.Endpoint
	xmlEp  *service.Endpoint
	sqlRes *dair.SQLDataResource
}

// inprocHost implements host over in-process servers. tr may be nil:
// the servers then run without trace seams (the smoke test).
type inprocHost struct {
	tr      *tracer
	nodes   []*node
	servers []*http.Server
}

// serve starts h on a free loopback port and returns its base URL.
func (ih *inprocHost) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	ih.servers = append(ih.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return "http://" + ln.Addr().String(), nil
}

// stopAll closes every server.
func (ih *inprocHost) stopAll() {
	for _, s := range ih.servers {
		s.Close()
	}
	for _, n := range ih.nodes {
		for _, ep := range []*service.Endpoint{n.sqlEp, n.xmlEp} {
			if reg := ep.WSRF(); reg != nil {
				reg.Close()
			}
		}
	}
}

// In process, the servers' CPU time and memory are this process's own.
func (ih *inprocHost) cpuMillis() float64 { return selfCPUMillis() }
func (ih *inprocHost) separate() bool     { return false }
func (ih *inprocHost) rssPeakMB() float64 { return rssPeakMB(os.Getpid()) }
func (ih *inprocHost) died() string       { return "" }

func (ih *inprocHost) daisd(_ context.Context, label string) (string, error) {
	obs := telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	epOpts := func() []service.EndpointOption {
		opts := []service.EndpointOption{service.WithTelemetry(obs), service.WithWSRF()}
		if ih.tr != nil {
			opts = append(opts, service.WithServerInterceptors(ih.tr.serviceSeam()))
		}
		return opts
	}
	n := &node{eng: sqlengine.New("hr", sqlengine.WithPlanCacheSize(256)), store: xmldb.NewStore("library")}
	service.RegisterPlanCacheMetrics(obs.Registry, n.eng)
	service.RegisterVectorMetrics(obs.Registry, n.eng)
	n.sqlRes = dair.NewSQLDataResource(n.eng, dair.WithStreamDelivery(rowset.BufferConfig{
		MemCap: 64 << 20,
		Spill:  filestore.NewStore("rowset-spill"),
		Hooks:  service.RowsetStreamHooks(obs.Registry),
	}))
	n.sqlSvc = core.NewDataService("relational", core.WithConcurrentAccess(true),
		core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	n.sqlEp = service.NewEndpoint(n.sqlSvc, epOpts()...)
	n.sqlEp.Register(n.sqlRes)

	xmlSvc := core.NewDataService("xml", core.WithConcurrentAccess(true),
		core.WithConfigurationMap(daix.StandardConfigurationMaps()...))
	n.xmlEp = service.NewEndpoint(xmlSvc, epOpts()...)
	n.xmlEp.Register(daix.NewXMLCollectionResource(n.store, ""))

	mux := http.NewServeMux()
	mux.Handle("/sql", ih.tr.handlerSeam("soap.server", n.sqlEp))
	mux.Handle("/xml", ih.tr.handlerSeam("soap.server", n.xmlEp))
	mux.Handle("/metrics", obs.Registry.Handler())
	base, err := ih.serve(mux)
	if err != nil {
		return "", fmt.Errorf("%s: %w", label, err)
	}
	n.base = base
	n.sqlSvc.SetAddress(base + "/sql")
	xmlSvc.SetAddress(base + "/xml")
	ih.nodes = append(ih.nodes, n)
	return base, nil
}

func (ih *inprocHost) daisgw(ctx context.Context, label string, backends []string, alias string) (string, error) {
	name, members, _ := strings.Cut(alias, "=")
	a := gateway.Alias{Name: name}
	for _, m := range strings.Split(members, ",") {
		res, backend, _ := strings.Cut(m, "@")
		a.Members = append(a.Members, gateway.Member{Backend: backend, Resource: res})
	}
	obs := telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	cfg := gateway.Config{Backends: backends, Aliases: []gateway.Alias{a}, Observer: obs, ObserverSet: true}
	if ih.tr != nil {
		cfg.HTTPClient = &http.Client{Transport: ih.tr.transportSeam(http.DefaultTransport)}
	}
	gw := gateway.New(cfg)
	mux := http.NewServeMux()
	mux.Handle("/", ih.tr.handlerSeam("gateway", gw))
	mux.Handle("/metrics", obs.Registry.Handler())
	base, err := ih.serve(mux)
	if err != nil {
		return "", fmt.Errorf("%s: %w", label, err)
	}
	gw.SetAddress(base)
	gw.Probe(ctx)
	return base, nil
}
