// Package gateway is the DAIS federation front door: one SOAP endpoint
// that owns the cluster-wide CoreResourceList (paper §4.3's optional
// interface) and proxies every ops-catalog operation onto one of N
// backend DAIS endpoints.
//
// Routing is by DataResourceAbstractName: a recorded placement (from a
// factory reply the gateway proxied, or a backend resource list the
// health prober collected) wins; otherwise a consistent-hash ring over
// the backend set decides, so every gateway instance routes a given
// name identically and backend churn moves only the keys it must.
// Cluster aliases name a list of per-backend resources that partition
// one table: GenericQuery on an alias scatter-gathers across the member
// resources with bounded fan-out and a deterministic merge. A factory
// operation on an alias is an InvalidResourceNameFault, since the
// resource it derives would hold one member's rows only.
//
// Every backend call runs through the resilient consumer client
// (internal/resil): idempotency-gated retries, and a per-backend
// circuit breaker whose transitions feed the gateway's health board so
// a dying backend leaves the routing rotation immediately. The gateway
// relays: a request goes to its backend as the consumer wrote it, and
// the reply comes back as the backend wrote it — faults included — with
// only an EPR reply's address text replaced, so consumers keep routing
// through the gateway. A scatter's answer is the first member's reply
// with the other members' rows appended as they wrote them. The gateway
// builds a tree only for what it answers itself: the resource list, an
// alias's Resolve and the faults it raises.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/telemetry"
	"dais/internal/wsaddr"
	"dais/internal/xmlutil"
)

// Member is one concrete backend resource an alias federates over.
type Member struct {
	Backend  string // backend endpoint URL
	Resource string // the resource's abstract name on that backend
}

// Alias is a cluster-wide resource name the gateway itself owns: it
// stands for one resource per backend, each holding a part of the
// alias's rows. Scatter-gather queries address the alias.
type Alias struct {
	Name    string
	Members []Member
}

// Config assembles a Gateway.
type Config struct {
	// Backends are the federated DAIS endpoint URLs (at least one).
	Backends []string
	// Aliases are the cluster-wide scatter names.
	Aliases []Alias
	// Fanout bounds concurrent backend calls per scatter (and per
	// probe sweep). 0 selects 4.
	Fanout int
	// Observer receives gateway metrics and spans; telemetry.Default
	// unless set, nil disables instrumentation.
	Observer    *telemetry.Observer
	ObserverSet bool // distinguishes explicit nil from unset
	// Resilience is the per-backend client policy; zero selects
	// resil.DefaultClientConfig. The gateway installs its own breaker
	// observer on top of any OnBreakerChange set here.
	Resilience *resil.ClientConfig
	// Admission bounds the concurrency the gateway accepts before
	// shedding (nil disables admission control).
	Admission *resil.AdmissionConfig
	// HTTPClient overrides the backend transport (nil = default
	// keep-alive pool).
	HTTPClient *http.Client
	// ProbeTimeout bounds one backend health probe (0 selects 2s).
	ProbeTimeout time.Duration
}

// Gateway is the federation front door. It implements http.Handler.
type Gateway struct {
	ring         *ring
	place        *placements
	aliases      map[string]*Alias
	client       *client.Client
	soapSrv      *soap.Server
	obs          *telemetry.Observer
	gm           *gwMetrics
	health       *healthBoard
	fanout       int
	probeTimeout time.Duration
	address      string
}

// New builds a gateway over the configured backends. Call SetAddress
// before serving so minted EPRs carry the gateway's public URL.
func New(cfg Config) *Gateway {
	obs := cfg.Observer
	if obs == nil && !cfg.ObserverSet {
		obs = telemetry.Default
	}
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = 4
	}
	probeTimeout := cfg.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 2 * time.Second
	}
	g := &Gateway{
		ring:         newRing(cfg.Backends),
		place:        newPlacements(),
		aliases:      make(map[string]*Alias),
		obs:          obs,
		fanout:       fanout,
		probeTimeout: probeTimeout,
	}
	if obs != nil {
		g.gm = gwMetricsFor(obs.Registry)
	}
	g.health = newHealthBoard(g.ring.Backends(), g.gm)
	for i := range cfg.Aliases {
		a := cfg.Aliases[i]
		g.aliases[a.Name] = &a
	}
	rcfg := resil.DefaultClientConfig()
	if cfg.Resilience != nil {
		rcfg = *cfg.Resilience
	}
	if rcfg.Observer == nil {
		rcfg.Observer = obs
	}
	if user := rcfg.OnBreakerChange; user != nil {
		rcfg.OnBreakerChange = func(endpoint, to string) {
			g.onBreakerChange(endpoint, to)
			user(endpoint, to)
		}
	} else {
		rcfg.OnBreakerChange = g.onBreakerChange
	}
	g.client = client.NewResilient(cfg.HTTPClient, obs, rcfg)
	ics := []soap.Interceptor{soap.ServerRequestID()}
	if obs != nil {
		ics = append(ics, obs.ServerInterceptor())
	}
	if cfg.Admission != nil {
		ics = append(ics, service.AdmissionInterceptor(resil.NewGate(*cfg.Admission), "gateway", obs))
	}
	g.soapSrv = soap.NewServer(ics...)
	if obs != nil {
		g.soapSrv.OnExchange(obs.ExchangeObserver(telemetry.SideServer))
	}
	for _, spec := range ops.Catalog() {
		spec := spec
		if spec.Action == ops.ActGetResourceList {
			g.soapSrv.Handle(spec.Action, g.handleList(spec))
			continue
		}
		g.soapSrv.Handle(spec.Action, g.handleProxy(spec))
	}
	return g
}

// SetAddress records the gateway's public endpoint URL, used in every
// EPR the gateway mints.
func (g *Gateway) SetAddress(addr string) { g.address = addr }

// Address returns the gateway's public endpoint URL.
func (g *Gateway) Address() string { return g.address }

// Backends returns the federated backend endpoints.
func (g *Gateway) Backends() []string { return g.ring.Backends() }

// ServeHTTP implements http.Handler: POST carries SOAP.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.soapSrv.ServeHTTP(w, r)
}

// EPRFor mints a gateway EPR for an abstract name: the gateway's
// address plus the name as a reference parameter, exactly the shape a
// backend endpoint mints for its own resources.
func (g *Gateway) EPRFor(abstractName string) *wsaddr.EndpointReference {
	epr := wsaddr.NewEPR(g.address)
	p := xmlutil.NewElement(core.NSDAI, "DataResourceAbstractName")
	p.SetText(abstractName)
	epr.AddReferenceParameter(p)
	return epr
}

// route resolves the backend owning an abstract name: recorded
// placements win, then the consistent-hash ring filtered to healthy
// backends.
func (g *Gateway) route(name string) string {
	if b, ok := g.place.lookup(name); ok {
		return b
	}
	return g.ring.Owner(name, g.health.isHealthy)
}

// handleProxy proxies one catalog operation: alias or name-based
// routing and the resilient backend call. The consumer's request goes
// to the backend as the consumer wrote it, and the backend's reply —
// fault or answer — comes back as the backend wrote it: the backend saw
// the consumer's MessageID, so its RelatesTo is already right. Only an
// EPR reply changes, in the text of its address, so consumers keep
// routing through the gateway.
func (g *Gateway) handleProxy(spec ops.Spec) soap.HandlerFunc {
	return func(ctx context.Context, _ string, env *soap.Envelope) (*soap.Envelope, error) {
		body := env.BodyEntry()
		if body == nil {
			return nil, soap.ClientFault("empty SOAP body")
		}
		ctx = ops.WithCallInfo(ctx, spec.Info())
		name := ops.AbstractNameText(body)
		var resp *soap.Envelope
		var err error
		if a, ok := g.aliases[name]; ok {
			resp, err = g.aliasOp(ctx, spec, a, env)
		} else {
			resp, err = g.namedOp(ctx, spec, name, env)
		}
		if err != nil {
			return nil, g.fault(ctx, err)
		}
		return resp, nil
	}
}

// namedOp relays an operation addressed to a concrete resource name to
// its owning backend. The name's placement goes with the resource: on
// a proxied Destroy, and when the backend answers that it knows no such
// resource (it was reaped or destroyed behind the gateway's back).
func (g *Gateway) namedOp(ctx context.Context, spec ops.Spec, name string, env *soap.Envelope) (*soap.Envelope, error) {
	backend := g.route(name)
	resp, err := g.relay(ctx, backend, spec, env)
	var unknown *core.InvalidResourceNameFault
	switch typed := service.DecodeFault(err); {
	case err == nil && (spec.Action == ops.ActDestroyDataResource || spec.Action == ops.ActWSRFDestroy),
		errors.As(typed, &unknown) && !ops.IsTypeFault(typed, name):
		g.place.forget(name)
	}
	if err == nil && spec.EPRReply {
		return g.rewriteEPR(resp, backend)
	}
	return resp, err
}

// aliasOp handles an operation addressed to a cluster alias: Resolve
// answers locally with a gateway EPR and GenericQuery scatter-gathers
// over the members. Anything else — a factory operation included, whose
// derived resource would hold one member's part — has no cluster-wide
// meaning.
func (g *Gateway) aliasOp(ctx context.Context, spec ops.Spec, a *Alias, env *soap.Envelope) (*soap.Envelope, error) {
	switch spec.Action {
	case ops.ActResolve:
		resp := spec.NewResponse()
		ops.AddResourceAddress(resp, g.EPRFor(a.Name))
		return reply(env, spec, resp), nil
	case ops.ActGenericQuery:
		return g.scatterQuery(ctx, spec, a, env)
	}
	return nil, &core.InvalidResourceNameFault{Name: a.Name + " (cluster alias: supports GenericQuery and Resolve)"}
}

// relay performs the resilient backend call, the reply handed back as
// the backend wrote it.
func (g *Gateway) relay(ctx context.Context, backend string, spec ops.Spec, req *soap.Envelope) (*soap.Envelope, error) {
	if backend == "" {
		return nil, &core.ServiceBusyFault{Reason: "no backend configured", RetryAfter: time.Second}
	}
	resp, err := g.client.Relay(ctx, backend, spec, req)
	g.gm.request(backend, spec.Op, telemetry.FaultCode(err))
	return resp, err
}

// rewriteEPR passes an EPR-bearing reply (factory responses, Resolve)
// on with the text of the EPR's address replaced by the gateway's, and
// records the placement of the resource the EPR names. The backend's
// own address never reaches the consumer; nothing else in the reply
// changes.
func (g *Gateway) rewriteEPR(resp *soap.Envelope, backend string) (*soap.Envelope, error) {
	t := soap.GetTokenizer()
	defer soap.PutTokenizer(t)
	var address xmlutil.Edit
	var name string
	found, addressed := false, false
	ok, err := soap.ReadToBody(t, resp.Wire, nil)
	if err == nil && ok {
		err = t.EachChild(func(t *xmlutil.Tokenizer) error {
			if found || !t.Name().Matches(core.NSDAI, "DataResourceAddress") {
				return t.Skip()
			}
			found = true
			return t.EachChild(func(t *xmlutil.Tokenizer) error {
				switch n := t.Name(); {
				case n.Matches(wsaddr.NS, "Address") && !addressed:
					addressed = true
					var err error
					address, err = t.ContentEdit(xmlutil.AppendEscaped(nil, g.address, false))
					return err
				case n.Matches(wsaddr.NS, "ReferenceParameters"):
					return t.EachChild(func(t *xmlutil.Tokenizer) error {
						if name != "" || !t.Name().Matches(core.NSDAI, "DataResourceAbstractName") {
							return t.Skip()
						}
						var err error
						name, err = t.ElementText()
						return err
					})
				}
				return t.Skip()
			})
		})
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("gateway: EPR reply: %w", err)
	case !found:
		return nil, errors.New("gateway: backend reply carries no DataResourceAddress")
	case !addressed:
		return nil, errors.New("gateway: backend EPR carries no Address")
	case name == "":
		return nil, errors.New("gateway: backend EPR carries no DataResourceAbstractName")
	}
	g.place.record(name, backend)
	return &soap.Envelope{Wire: xmlutil.ApplyEdits(resp.Wire, address)}, nil
}

// handleList serves the cluster-wide GetResourceList: the merged,
// sorted union of every healthy backend's resource list plus the
// gateway's own aliases. Unreachable backends are skipped (and marked
// unhealthy) — the list reflects what the federation can serve now.
func (g *Gateway) handleList(spec ops.Spec) soap.HandlerFunc {
	return func(ctx context.Context, _ string, env *soap.Envelope) (*soap.Envelope, error) {
		ctx = ops.WithCallInfo(ctx, spec.Info())
		names := g.collectResourceLists(ctx)
		for name := range g.aliases {
			names = append(names, name)
		}
		sort.Strings(names)
		names = dedupe(names)
		return reply(env, spec, ops.ResourceListResponse(names)), nil
	}
}

// collectResourceLists fans GetResourceList over the healthy backends
// (bounded), records discovered placements, and returns the union.
func (g *Gateway) collectResourceLists(ctx context.Context) []string {
	backends := g.ring.Backends()
	results := make([][]string, len(backends))
	sem := make(chan struct{}, g.fanout)
	done := make(chan int, len(backends))
	launched := 0
	for i, b := range backends {
		if !g.health.isHealthy(b) {
			continue
		}
		launched++
		go func(i int, backend string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			names, err := g.client.GetResourceList(ctx, backend)
			g.gm.request(backend, ops.GetResourceList.Op, telemetry.FaultCode(err))
			if err != nil {
				g.health.set(backend, false, "list failed: "+err.Error())
			} else {
				for _, n := range names {
					g.place.record(n, backend)
				}
				results[i] = names
			}
			done <- i
		}(i, b)
	}
	for ; launched > 0; launched-- {
		<-done
	}
	var out []string
	for _, names := range results {
		out = append(out, names...)
	}
	return out
}

// fault maps an error on the backend path to the fault the consumer
// gets: a backend's fault as the backend wrote it, and one the gateway
// writes otherwise (gwError).
func (g *Gateway) fault(ctx context.Context, err error) *soap.Fault {
	var f *soap.Fault
	if errors.As(err, &f) && f.Wire != nil {
		return f
	}
	return service.ToSOAPFault(g.gwError(ctx, err))
}

// gwError maps the errors the gateway answers for itself to the fault a
// consumer should see: typed DAIS faults and SOAP faults pass through
// untouched, circuit-open and transport failures become a
// ServiceBusyFault with pacing, and the caller's own expired context a
// RequestTimeoutFault.
func (g *Gateway) gwError(ctx context.Context, err error) error {
	if core.FaultName(err) != "" {
		return err
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		return f
	}
	if ctx.Err() != nil {
		return &core.RequestTimeoutFault{Detail: err.Error()}
	}
	var open *resil.CircuitOpenError
	if errors.As(err, &open) {
		return &core.ServiceBusyFault{
			Reason:     "backend circuit open: " + open.Endpoint,
			RetryAfter: time.Second,
		}
	}
	return &core.ServiceBusyFault{
		Reason:     "backend unavailable: " + err.Error(),
		RetryAfter: time.Second,
	}
}

// reply wraps a response body the gateway authors (the resource list,
// an alias's Resolve) with the WS-Addressing reply headers, mirroring
// the service layer's bind tail so gateway replies are shaped exactly
// like backend replies.
func reply(req *soap.Envelope, spec ops.Spec, body *xmlutil.Element) *soap.Envelope {
	out := soap.NewEnvelope(body)
	h := wsaddr.FromEnvelope(req)
	wsaddr.ReplyHeaders(h, spec.Action+"Response").Attach(out)
	return out
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
