package service

import (
	"context"
	"net/http"
	"strings"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/soap"
	"dais/internal/telemetry"
	"dais/internal/wsaddr"
	"dais/internal/wsrf"
	"dais/internal/xmlutil"
)

// Interfaces selects which DAIS port types an endpoint exposes. The
// flags live in the ops package (the operation catalog declares which
// interface class each operation belongs to); the service re-exports
// them for configuration.
type Interfaces = ops.Interfaces

// Interface flags, re-exported from the operation catalog.
const (
	CoreDataAccess      = ops.CoreDataAccess
	CoreResourceList    = ops.CoreResourceList
	SQLAccess           = ops.SQLAccess
	SQLFactory          = ops.SQLFactory
	SQLResponseAccess   = ops.SQLResponseAccess
	SQLResponseFactory  = ops.SQLResponseFactory
	SQLRowsetAccess     = ops.SQLRowsetAccess
	XMLCollectionAccess = ops.XMLCollectionAccess
	XMLQueryAccess      = ops.XMLQueryAccess
	XMLFactory          = ops.XMLFactory
	XMLSequenceAccess   = ops.XMLSequenceAccess
	FileAccess          = ops.FileAccess
	FileFactory         = ops.FileFactory
)

// AllInterfaces enables everything.
const AllInterfaces = ops.AllInterfaces

// Endpoint hosts one data service over SOAP/HTTP, optionally layered
// with WSRF. It implements http.Handler.
type Endpoint struct {
	svc        *core.DataService
	soapSrv    *soap.Server
	wsrfReg    *wsrf.Registry
	interfaces Interfaces
	// registry records the operation specs this endpoint exposes; the
	// SOAP dispatch, the WSDL generator and the completeness tests all
	// read it.
	registry *ops.Registry
	// target is where factory operations register derived resources;
	// defaults to this endpoint (paper Fig. 5 uses distinct services).
	target *Endpoint
	// obs records request metrics and spans; telemetry.Default unless
	// WithTelemetry overrides it (nil disables instrumentation).
	obs *telemetry.Observer
	// extraICs are the user-supplied interceptors, installed inside the
	// request-ID and telemetry interceptors.
	extraICs []soap.Interceptor
	// gate bounds the endpoint's concurrency when WithAdmission is set;
	// nil accepts unbounded concurrency.
	gate *resil.Gate
}

// EndpointOption configures an Endpoint.
type EndpointOption func(*Endpoint)

// WithWSRF layers WS-ResourceProperties and WS-ResourceLifetime over
// the endpoint (paper §5 / Fig. 7).
func WithWSRF() EndpointOption {
	return func(e *Endpoint) {
		e.wsrfReg = wsrf.NewRegistry(wsrf.WithDestroyCallback(func(id string) {
			// WSRF destroy tears down the DAIS relationship too. It may
			// fire from the reaper, long after any request context, so it
			// runs under the background context.
			e.svc.DestroyDataResource(context.Background(), id) //nolint:errcheck // already gone is fine
		}))
	}
}

// WithInterfaces restricts the exposed port types.
func WithInterfaces(i Interfaces) EndpointOption {
	return func(e *Endpoint) { e.interfaces = i }
}

// WithFactoryTarget directs factory-created resources to another
// endpoint (Fig. 5's Data Service 2 / 3 pattern).
func WithFactoryTarget(t *Endpoint) EndpointOption {
	return func(e *Endpoint) { e.target = t }
}

// WithServerInterceptors appends interceptors to the endpoint's SOAP
// dispatch chain (inside the default request-ID and telemetry
// interceptors, so telemetry observes their deadline/fault behaviour).
func WithServerInterceptors(ics ...soap.Interceptor) EndpointOption {
	return func(e *Endpoint) { e.extraICs = append(e.extraICs, ics...) }
}

// WithTelemetry selects the observer the endpoint records request
// metrics and spans into. The default is telemetry.Default; nil
// disables instrumentation entirely.
func WithTelemetry(o *telemetry.Observer) EndpointOption {
	return func(e *Endpoint) { e.obs = o }
}

// NewEndpoint builds an endpoint for a data service.
func NewEndpoint(svc *core.DataService, opts ...EndpointOption) *Endpoint {
	e := &Endpoint{
		svc:        svc,
		interfaces: AllInterfaces,
		registry:   ops.NewRegistry(),
		obs:        telemetry.Default,
	}
	for _, o := range opts {
		o(e)
	}
	// The dispatch chain composes outermost-first: every endpoint
	// adopts/echoes request IDs so consumers can correlate replies, the
	// telemetry interceptor observes everything inside that boundary
	// (user interceptors such as ServerTimeout included), and
	// WithServerInterceptors layers inside both.
	ics := []soap.Interceptor{soap.ServerRequestID()}
	if e.obs != nil {
		ics = append(ics, e.obs.ServerInterceptor())
	}
	// normalizeFaults maps typed faults thrown by the inner interceptors
	// (admission sheds, injected failures) to SOAP faults with 503 /
	// Retry-After transport hints; handler errors are mapped in bind.
	ics = append(ics, normalizeFaults())
	if e.gate != nil {
		ics = append(ics, AdmissionInterceptor(e.gate, e.svc.Name(), e.obs))
	}
	ics = append(ics, e.extraICs...)
	e.soapSrv = soap.NewServer(ics...)
	if e.obs != nil {
		e.soapSrv.OnExchange(e.obs.ExchangeObserver(telemetry.SideServer))
	}
	if e.target == nil {
		e.target = e
	}
	// Keep the WSRF registry in sync with plain-DAIS destroys.
	if e.wsrfReg != nil {
		reg := e.wsrfReg
		svc.OnDestroy(func(name string) { reg.Remove(name) })
	}
	e.registerCore()
	e.registerDAIR()
	e.registerDAIX()
	e.registerDAIF()
	e.registerWSRF()
	e.registerWSRFCollector()
	return e
}

// registerWSRFCollector exposes the endpoint's live service-managed
// resources (grouped by realisation kind) and its lifetime-termination
// count as scrape-time gauges on the observer's registry. Counting at
// scrape time keeps the resource registration path free of metric
// bookkeeping.
func (e *Endpoint) registerWSRFCollector() {
	if e.obs == nil || e.wsrfReg == nil {
		return
	}
	reg, name := e.wsrfReg, e.svc.Name()
	e.obs.Registry.RegisterCollector(func(emit func(telemetry.Sample)) {
		counts := map[string]int{}
		for _, id := range reg.IDs() {
			res, ok := reg.Get(id)
			if !ok {
				continue
			}
			kind := string(ops.KindData)
			if pr, ok := res.(*propertyResource); ok {
				kind = string(ops.KindOf(pr.res))
			}
			counts[kind]++
		}
		for kind, n := range counts {
			emit(telemetry.Sample{Name: telemetry.MetricWSRFLive,
				Labels: map[string]string{"service": name, "kind": kind}, Value: float64(n)})
		}
		emit(telemetry.Sample{Name: telemetry.MetricWSRFDead,
			Labels: map[string]string{"service": name}, Value: float64(reg.DestroyedCount())})
	})
}

// Service returns the hosted data service.
func (e *Endpoint) Service() *core.DataService { return e.svc }

// WSRF returns the WSRF registry, or nil when the layer is disabled.
func (e *Endpoint) WSRF() *wsrf.Registry { return e.wsrfReg }

// Operations returns the specs this endpoint exposes, sorted by action
// URI — the registry view the WSDL generator renders.
func (e *Endpoint) Operations() []ops.Spec { return e.registry.Specs() }

// ServeHTTP implements http.Handler. POST carries SOAP; GET with a
// ?wsdl query serves the generated interface description.
func (e *Endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		if _, ok := r.URL.Query()["wsdl"]; ok {
			e.serveWSDL(w)
			return
		}
		http.Error(w, "DAIS endpoint: POST SOAP requests here, or GET ?wsdl for the description", http.StatusBadRequest)
		return
	}
	e.soapSrv.ServeHTTP(w, r)
}

// Register adds a resource to the data service and, when WSRF is
// enabled, to the WSRF registry.
func (e *Endpoint) Register(r core.DataResource) {
	e.svc.AddResource(r)
	if e.wsrfReg != nil {
		e.wsrfReg.Add(r.AbstractName(), &propertyResource{svc: e.svc, res: r})
	}
}

// EPRFor mints an EPR for a resource hosted here: the service address
// plus the abstract name as a reference parameter (paper §3).
func (e *Endpoint) EPRFor(abstractName string) *wsaddr.EndpointReference {
	epr := wsaddr.NewEPR(e.svc.Address())
	p := xmlutil.NewElement(core.NSDAI, "DataResourceAbstractName")
	p.SetText(abstractName)
	epr.AddReferenceParameter(p)
	return epr
}

// propertyResource adapts a DAIS resource to the wsrf.Resource
// interface: its property document is the WS-DAI document the service
// builds.
type propertyResource struct {
	svc *core.DataService
	res core.DataResource
}

func (p *propertyResource) PropertyDocument() *xmlutil.Element {
	return p.svc.BuildPropertyDocument(p.res)
}

func (p *propertyResource) Property(space, local string) []*xmlutil.Element {
	return p.svc.ResourceProperty(p.res, space, local)
}

// has reports whether an interface flag is enabled.
func (e *Endpoint) has(i Interfaces) bool { return e.interfaces&i != 0 }

// ctxFault recognises handler errors caused by an expired or cancelled
// request context and converts them to the typed timeout fault; typed
// DAIS faults pass through untouched.
func ctxFault(ctx context.Context, err error) error {
	if core.FaultName(err) != "" {
		return err
	}
	if _, ok := err.(*soap.Fault); ok {
		return err
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return &core.RequestTimeoutFault{Detail: err.Error()}
	}
	return err
}

// ToSOAPFault maps DAIS typed faults to SOAP faults with structured
// detail; everything else becomes a Server fault. Exported because the
// federation gateway re-encodes backend typed faults onto its own wire
// with exactly the shape a directly-dialed endpoint would produce.
func ToSOAPFault(err error) *soap.Fault {
	if f, ok := err.(*soap.Fault); ok {
		return f
	}
	name := core.FaultName(err)
	if name == "" {
		return soap.ServerFault("%v", err)
	}
	detail := xmlutil.NewElement(core.NSDAI, name)
	detail.AddText(core.NSDAI, "Message", err.Error())
	detail.AddText(core.NSDAI, "Value", faultValue(err))
	f := soap.ClientFault("%v", err)
	f.Detail = detail
	// Overload sheds are a server condition with an explicit pacing
	// contract: HTTP 503 plus Retry-After, which consumer retry policies
	// (internal/resil) parse back out of the transport.
	if busy, ok := err.(*core.ServiceBusyFault); ok {
		f.Code = "Server"
		f.Status = http.StatusServiceUnavailable
		f.RetryAfter = busy.RetryAfter
	}
	return f
}

// faultValue extracts the typed payload of a DAIS fault so consumers
// can reconstruct the fault exactly.
func faultValue(err error) string {
	switch f := err.(type) {
	case *core.InvalidResourceNameFault:
		return f.Name
	case *core.InvalidLanguageFault:
		return f.Language
	case *core.InvalidDatasetFormatFault:
		return f.Format
	case *core.NotAuthorizedFault:
		return f.Reason
	case *core.InvalidExpressionFault:
		return f.Detail
	case *core.ServiceBusyFault:
		return f.Reason
	case *core.RequestTimeoutFault:
		return f.Detail
	}
	return ""
}

// DecodeFault converts a SOAP fault received by a consumer back into
// the matching DAIS typed fault when the detail identifies one.
func DecodeFault(err error) error {
	f, ok := err.(*soap.Fault)
	if !ok || f.Detail == nil {
		return err
	}
	value := f.Detail.FindText(core.NSDAI, "Value")
	if value == "" {
		value = f.Detail.FindText(core.NSDAI, "Message")
	}
	switch f.Detail.Name.Local {
	case "InvalidResourceNameFault":
		return &core.InvalidResourceNameFault{Name: value}
	case "InvalidLanguageFault":
		return &core.InvalidLanguageFault{Language: value}
	case "InvalidDatasetFormatFault":
		return &core.InvalidDatasetFormatFault{Format: value}
	case "NotAuthorizedFault":
		return &core.NotAuthorizedFault{Reason: value}
	case "InvalidExpressionFault":
		return &core.InvalidExpressionFault{Detail: value}
	case "ServiceBusyFault":
		// Reason comes from the Value element alone (the Message fallback
		// would double-wrap the error text); RetryAfter from the
		// transport hint the fault carried.
		return &core.ServiceBusyFault{
			Reason:     f.Detail.FindText(core.NSDAI, "Value"),
			RetryAfter: f.RetryAfter,
		}
	case "RequestTimeoutFault":
		return &core.RequestTimeoutFault{Detail: value}
	}
	return err
}

// trackDerived registers a factory-created resource with the endpoint's
// WSRF registry (the factory already registered it with the data
// service).
func (e *Endpoint) trackDerived(r core.DataResource) {
	if e.wsrfReg != nil {
		e.wsrfReg.Add(r.AbstractName(), &propertyResource{svc: e.svc, res: r})
	}
}

// splitQName separates an optional prefix from a QName string.
func localOfQName(q string) string {
	if i := strings.LastIndex(q, ":"); i >= 0 {
		return q[i+1:]
	}
	return q
}
