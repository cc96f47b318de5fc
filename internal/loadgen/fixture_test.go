package loadgen_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/loadgen"
	"dais/internal/resil"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/telemetry"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// fixtureOpt shapes the system under load.
type fixtureOpt struct {
	sqlResources int
	xmlResources int
	rows         int
	admission    *resil.AdmissionConfig
	// handlerDelay slows every dispatched request, giving the fixture a
	// known capacity ceiling for overload tests.
	handlerDelay time.Duration
	// hold, when set, parks every dispatched request until it is closed:
	// the admitted requests fill the admission gate for as long as the
	// test wants them to.
	hold chan struct{}
	reap time.Duration // reaper interval (0: no reaper)
}

// loadFixture is an in-process daisd-shaped endpoint hosting a
// population of relational resources (one shared engine) and XML
// collections, served with /metrics like an operator deployment.
type loadFixture struct {
	target *loadgen.Target
	ep     *service.Endpoint
	obs    *telemetry.Observer
}

func newLoadFixture(t testing.TB, opt fixtureOpt) *loadFixture {
	t.Helper()
	if opt.sqlResources <= 0 {
		opt.sqlResources = 8
	}
	if opt.rows <= 0 {
		opt.rows = 1000
	}
	eng := loadgen.SeedEngine("load", opt.rows)
	svc := core.NewDataService("load",
		core.WithConcurrentAccess(true),
		core.WithConfigurationMap(dair.StandardConfigurationMaps()...),
		core.WithConfigurationMap(daix.StandardConfigurationMaps()...))
	obs := telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	epOpts := []service.EndpointOption{service.WithWSRF(), service.WithTelemetry(obs)}
	if opt.admission != nil {
		epOpts = append(epOpts, service.WithAdmission(*opt.admission))
	}
	if opt.handlerDelay > 0 || opt.hold != nil {
		delay, hold := opt.handlerDelay, opt.hold
		epOpts = append(epOpts, service.WithServerInterceptors(
			func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
				var wait <-chan time.Time
				if hold == nil {
					wait = time.After(delay)
				}
				select {
				case <-wait:
				case <-hold:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return next(ctx, action, env)
			}))
	}
	ep := service.NewEndpoint(svc, epOpts...)

	var sqlRefs, xmlRefs []client.ResourceRef
	for i := 0; i < opt.sqlResources; i++ {
		res := dair.NewSQLDataResource(eng)
		res.Name = fmt.Sprintf("urn:dais:load:sql-%03d", i)
		ep.Register(res)
	}
	for i := 0; i < opt.xmlResources; i++ {
		store := xmldb.NewStore(fmt.Sprintf("col-%03d", i))
		seedBooks(t, store)
		res := daix.NewXMLCollectionResource(store, "")
		res.Name = fmt.Sprintf("urn:dais:load:xml-%03d", i)
		ep.Register(res)
	}

	mux := http.NewServeMux()
	mux.Handle("/", ep)
	mux.Handle("/metrics", obs.Registry.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	svc.SetAddress(ts.URL)

	if opt.reap > 0 {
		stop := ep.WSRF().StartReaper(opt.reap)
		t.Cleanup(stop)
	}

	for i := 0; i < opt.sqlResources; i++ {
		sqlRefs = append(sqlRefs, client.Ref(ts.URL, fmt.Sprintf("urn:dais:load:sql-%03d", i)))
	}
	for i := 0; i < opt.xmlResources; i++ {
		xmlRefs = append(xmlRefs, client.Ref(ts.URL, fmt.Sprintf("urn:dais:load:xml-%03d", i)))
	}
	return &loadFixture{
		target: &loadgen.Target{
			Name: "daisd",
			// Zero resilience policy: no retries, no circuit breaker. The
			// harness must see every shed and fault as-is — a retrying
			// client would hide the very overload behaviour under test.
			Client:     client.NewResilient(nil, nil, resil.ClientConfig{}),
			SQLRefs:    sqlRefs,
			XMLRefs:    xmlRefs,
			MetricsURL: ts.URL + "/metrics",
		},
		ep:  ep,
		obs: obs,
	}
}

func seedBooks(t testing.TB, store *xmldb.Store) {
	t.Helper()
	for i, doc := range []string{
		`<book id="1"><title>Alpha</title><price>10</price></book>`,
		`<book id="2"><title>Beta</title><price>30</price></book>`,
		`<book id="3"><title>Gamma</title><price>45</price></book>`,
	} {
		e, err := xmlutil.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddDocument("", fmt.Sprintf("b%d.xml", i), e); err != nil {
			t.Fatal(err)
		}
	}
}
