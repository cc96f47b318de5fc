package core

import (
	"context"
	"sort"
	"sync"

	"dais/internal/xmlutil"
)

// DataService is a service that "provides access to a data resource ...
// a data service may represent zero or more data resources" (paper §3).
// It owns the resource registry behind the WS-DAI core operations and
// the optional CoreResourceList interface.
type DataService struct {
	mu        sync.RWMutex
	name      string
	address   string // endpoint URL, used when minting EPRs
	resources map[string]DataResource
	// concurrent mirrors the ConcurrentAccess property. When false, a
	// semaphore serialises all operations through the service.
	concurrent bool
	gate       chan struct{}
	// configMaps advertises factory message -> interface associations.
	configMaps []ConfigurationMapEntry
	// onDestroy hooks observe resource destruction (the service layer
	// uses it to unregister WSRF resources).
	onDestroy []func(name string)
	// propCache holds the static portion of each resource's property
	// document (everything that cannot change after registration),
	// keyed by abstract name. Guarded by propMu, not mu, so cache fills
	// never contend with resource resolution.
	propMu    sync.Mutex
	propCache map[string][]*xmlutil.Element
}

// ServiceOption configures a DataService.
type ServiceOption func(*DataService)

// WithConcurrentAccess sets the ConcurrentAccess property. The default
// is true; with false the service serialises every request.
func WithConcurrentAccess(ok bool) ServiceOption {
	return func(s *DataService) { s.concurrent = ok }
}

// WithConfigurationMap appends ConfigurationMap property entries.
func WithConfigurationMap(entries ...ConfigurationMapEntry) ServiceOption {
	return func(s *DataService) { s.configMaps = append(s.configMaps, entries...) }
}

// NewDataService creates an empty data service.
func NewDataService(name string, opts ...ServiceOption) *DataService {
	s := &DataService{
		name:       name,
		resources:  map[string]DataResource{},
		concurrent: true,
		gate:       make(chan struct{}, 1),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the service name.
func (s *DataService) Name() string { return s.name }

// Address returns the service endpoint URL ("" when unset).
func (s *DataService) Address() string { return s.address }

// SetAddress updates the endpoint URL (set when the HTTP listener
// starts).
func (s *DataService) SetAddress(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.address = url
}

// ConcurrentAccess reports the ConcurrentAccess property.
func (s *DataService) ConcurrentAccess() bool { return s.concurrent }

// OnDestroy registers a destruction observer.
func (s *DataService) OnDestroy(f func(name string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onDestroy = append(s.onDestroy, f)
}

// Enter acquires the service for one operation; the returned func
// releases it. With ConcurrentAccess=true both are no-ops. This models
// the §4.2 ConcurrentAccess property: "a boolean indicating whether the
// data service supports concurrent access or not". When the context is
// cancelled (or its deadline expires) while waiting for the gate, Enter
// returns a ServiceBusyFault.
func (s *DataService) Enter(ctx context.Context) (func(), error) {
	if s.concurrent {
		return func() {}, nil
	}
	select {
	case s.gate <- struct{}{}:
		return func() { <-s.gate }, nil
	case <-ctx.Done():
		return nil, &ServiceBusyFault{}
	}
}

// AddResource registers a data resource with the service.
func (s *DataService) AddResource(r DataResource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resources[r.AbstractName()] = r
}

// Resolve implements the CoreResourceList Resolve operation at the
// model level: it checks that the abstract name is known. The service
// layer wraps the result in an EPR whose reference parameters carry the
// name (paper §3).
func (s *DataService) Resolve(abstractName string) (DataResource, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.resources[abstractName]
	if !ok {
		return nil, &InvalidResourceNameFault{Name: abstractName}
	}
	return r, nil
}

// GetResourceList implements the CoreResourceList GetResourceList
// operation: "the list of data resources known to a data service"
// (paper §4.3), sorted for determinism.
func (s *DataService) GetResourceList() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.resources))
	for n := range s.resources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DestroyDataResource implements the WS-DAI operation of the same name:
// it "destroys the relationship between the data service and the data
// resource" (paper §4.3). Service-managed resources release their data;
// externally managed data remains in place.
func (s *DataService) DestroyDataResource(ctx context.Context, abstractName string) error {
	if err := ctx.Err(); err != nil {
		return &RequestTimeoutFault{Detail: err.Error()}
	}
	s.mu.Lock()
	r, ok := s.resources[abstractName]
	if !ok {
		s.mu.Unlock()
		return &InvalidResourceNameFault{Name: abstractName}
	}
	delete(s.resources, abstractName)
	observers := append([]func(string){}, s.onDestroy...)
	s.mu.Unlock()
	s.InvalidatePropertyDocument(abstractName)

	var err error
	if r.Management() == ServiceManaged {
		err = r.Release()
	}
	for _, f := range observers {
		f(abstractName)
	}
	return err
}

// GenericQuery implements the WS-DAI GenericQuery operation: it
// validates the language against the resource's GenericQueryLanguage
// properties and delegates to the resource.
func (s *DataService) GenericQuery(ctx context.Context, abstractName, languageURI, expression string) (*xmlutil.Element, error) {
	r, err := s.Resolve(abstractName)
	if err != nil {
		return nil, err
	}
	if err := CheckLanguage(r, languageURI); err != nil {
		return nil, err
	}
	if err := CheckReadable(r); err != nil {
		return nil, err
	}
	return r.GenericQuery(ctx, languageURI, expression)
}

// GetDataResourcePropertyDocument implements the WS-DAI operation: the
// whole property document for the named resource (paper §4.3 — finer
// granularity requires WSRF, see internal/wsrf).
func (s *DataService) GetDataResourcePropertyDocument(abstractName string) (*xmlutil.Element, error) {
	r, err := s.Resolve(abstractName)
	if err != nil {
		return nil, err
	}
	return s.BuildPropertyDocument(r), nil
}

// BuildPropertyDocument assembles the WS-DAI property document for a
// resource as Fig. 4 lays it out: the static properties
// (DataResourceAbstractName, ParentDataResource,
// DataResourceManagement, ConcurrentAccess, DatasetMap,
// ConfigurationMap, GenericQueryLanguage) followed by the configurable
// ones (DataResourceDescription, Readable, Writeable,
// TransactionInitiation, TransactionIsolation, Sensitivity) and any
// realisation extensions. It is the one whole-document builder, and the
// oracle ResourceProperty is tested against.
func (s *DataService) BuildPropertyDocument(r DataResource) *xmlutil.Element {
	doc := xmlutil.NewElement(NSDAI, "DataResourcePropertyDocument")
	// Static properties come from the per-resource cache. The cached
	// elements are shared read-only across documents and linked through
	// the Children slice directly (not AppendChild) so they are never
	// reparented — serialisation walks Children and ignores parents.
	for _, e := range s.staticPropertyElements(r) {
		doc.Children = append(doc.Children, e)
	}
	cfg := r.Configuration()
	for _, local := range configurableNames {
		if v, ok := configurableProperty(cfg, local); ok {
			doc.AddText(NSDAI, local, v)
		}
	}
	// Realisation extensions.
	for _, e := range r.ExtendedProperties() {
		doc.AppendChild(e.Clone())
	}
	return doc
}

// ResourceProperty returns the properties of r named (space, local; an
// empty space matches any namespace): the elements FindAll finds in
// BuildPropertyDocument(r), in its order, without building the
// document. Static properties are the cached elements themselves and
// everything else is rendered singly — a PropertyProvider is asked for
// the one extension, not for all of them. The result is read-only: the
// cached elements are shared with every other reader, so a caller links
// them into a reply through Children (as BuildPropertyDocument does) and
// never writes to them, parent pointers included.
func (s *DataService) ResourceProperty(r DataResource, space, local string) []*xmlutil.Element {
	var out []*xmlutil.Element
	for _, e := range s.staticPropertyElements(r) {
		if e.Name.Matches(space, local) {
			out = append(out, e)
		}
	}
	if space == "" || space == NSDAI {
		if v, ok := configurableProperty(r.Configuration(), local); ok {
			out = append(out, xmlutil.NewElement(NSDAI, local).SetText(v))
		}
	}
	if pp, ok := r.(PropertyProvider); ok {
		return append(out, pp.ExtendedProperty(space, local)...)
	}
	for _, e := range r.ExtendedProperties() {
		if e.Name.Matches(space, local) {
			out = append(out, e)
		}
	}
	return out
}

// configurableNames are the configurable WS-DAI properties in document
// order.
var configurableNames = [...]string{"DataResourceDescription", "Readable", "Writeable",
	"TransactionInitiation", "TransactionIsolation", "Sensitivity"}

// configurableProperty renders one configurable property's value. An
// empty description is no property at all.
func configurableProperty(cfg Configuration, local string) (value string, ok bool) {
	switch local {
	case "DataResourceDescription":
		return cfg.Description, cfg.Description != ""
	case "Readable":
		return boolStr(cfg.Readable), true
	case "Writeable":
		return boolStr(cfg.Writeable), true
	case "TransactionInitiation":
		return cfg.TransactionInitiation.String(), true
	case "TransactionIsolation":
		return cfg.TransactionIsolation, true
	case "Sensitivity":
		return cfg.Sensitivity.String(), true
	}
	return "", false
}

// staticPropertyElements returns the cached static portion of the
// property document for r, building and caching it on first use.
func (s *DataService) staticPropertyElements(r DataResource) []*xmlutil.Element {
	name := r.AbstractName()
	s.propMu.Lock()
	if els, ok := s.propCache[name]; ok {
		s.propMu.Unlock()
		return els
	}
	s.propMu.Unlock()
	els := s.buildStaticPropertyElements(r)
	s.propMu.Lock()
	if s.propCache == nil {
		s.propCache = map[string][]*xmlutil.Element{}
	}
	s.propCache[name] = els
	s.propMu.Unlock()
	return els
}

// buildStaticPropertyElements renders the static properties in the
// Fig. 4 order BuildPropertyDocument documents.
func (s *DataService) buildStaticPropertyElements(r DataResource) []*xmlutil.Element {
	var els []*xmlutil.Element
	text := func(local, value string) {
		e := xmlutil.NewElement(NSDAI, local)
		e.SetText(value)
		els = append(els, e)
	}
	text("DataResourceAbstractName", r.AbstractName())
	parent := xmlutil.NewElement(NSDAI, "ParentDataResource")
	if p := r.ParentName(); p != "" {
		parent.SetText(p)
	}
	els = append(els, parent)
	text("DataResourceManagement", r.Management().String())
	text("ConcurrentAccess", boolStr(s.concurrent))
	for _, f := range r.DatasetFormats() {
		dm := xmlutil.NewElement(NSDAI, "DatasetMap")
		dm.AddText(NSDAI, "MessageFormat", f)
		els = append(els, dm)
	}
	for _, m := range s.configMaps {
		els = append(els, m.Element())
	}
	for _, l := range r.QueryLanguages() {
		text("GenericQueryLanguage", l)
	}
	return els
}

// InvalidatePropertyDocument drops the cached static property elements
// for the named resource. The WSRF property-write path and resource
// destruction call it so a rebuilt document never serves stale state.
func (s *DataService) InvalidatePropertyDocument(abstractName string) {
	s.propMu.Lock()
	delete(s.propCache, abstractName)
	s.propMu.Unlock()
}
