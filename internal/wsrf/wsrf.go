// Package wsrf implements the Web Services Resource Framework pieces
// the DAIS specifications layer on top of plain SOAP services (paper
// §5): WS-ResourceProperties for fine-grained access to a resource's
// property document, and WS-ResourceLifetime for soft-state lifetime
// management (scheduled termination plus explicit destroy).
//
// Without WSRF a DAIS consumer "can only retrieve the whole property
// document" and must destroy resources explicitly; with it, individual
// properties can be fetched or queried with XPath, and service-managed
// resources are reaped when their termination time passes. The paper's
// caveat — the data resource abstract name stays in the SOAP body
// either way — is enforced by the service layer, not here.
package wsrf

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// Namespace URIs for the WSRF specifications.
const (
	NSRP = "http://docs.oasis-open.org/wsrf/rp-2"
	NSRL = "http://docs.oasis-open.org/wsrf/rl-2"
)

func init() {
	xmlutil.RegisterVocabulary(NSRP, "ResourceProperty", "QueryExpression", "QueryResult", "Update",
		NSRL, "CurrentTime", "TerminationTime", "RequestedTerminationTime", "NewTerminationTime", "nil")
}

// Resource is any entity exposing a WSRF property document. The
// returned element's children are the individual resource properties.
type Resource interface {
	PropertyDocument() *xmlutil.Element
	// Property returns the properties named (space, local) — what
	// FindAll finds among PropertyDocument's children, in that order —
	// without the resource having to build the others. The elements may
	// be shared with other readers: nobody writes to them.
	Property(space, local string) []*xmlutil.Element
}

// Clock abstracts time for lifetime tests.
type Clock func() time.Time

// Registry tracks WS-Resources keyed by identifier (DAIS uses the data
// resource abstract name) and manages their lifetimes.
type Registry struct {
	mu        sync.Mutex
	entries   map[string]*entry
	clock     Clock
	onDestroy func(id string)
	created   int64
	destroyed int64
	// reaping holds the ids a sweep has unregistered and is still
	// releasing through the destroy callback; the channel closes when the
	// sweep's callbacks have all returned.
	reaping map[string]chan struct{}

	reaperMu    sync.Mutex
	reaperStops []func()
	closeOnce   sync.Once
}

type entry struct {
	res         Resource
	created     time.Time
	termination *time.Time // nil: no scheduled termination
}

// Option configures a Registry.
type Option func(*Registry)

// WithClock substitutes the time source (tests).
func WithClock(c Clock) Option { return func(r *Registry) { r.clock = c } }

// WithDestroyCallback registers a hook invoked (outside the registry
// lock) whenever a resource is destroyed, explicitly or by the reaper.
func WithDestroyCallback(f func(id string)) Option {
	return func(r *Registry) { r.onDestroy = f }
}

// NewRegistry returns an empty registry.
func NewRegistry(opts ...Option) *Registry {
	r := &Registry{entries: map[string]*entry{}, clock: time.Now}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Add registers a resource. Adding an existing id replaces it but
// preserves nothing from the prior registration.
func (r *Registry) Add(id string, res Resource) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[id] = &entry{res: res, created: r.clock()}
	r.created++
}

// AddWithTermination registers a resource with its soft-state
// termination already scheduled, atomically. Lifetime-churn producers
// (factories minting short-TTL resources while the reaper runs) need
// this: a separate Add + SetTerminationTime pair has a window in which
// the resource is registered with infinite lifetime, so a producer
// crash mid-pair would leak it forever.
func (r *Registry) AddWithTermination(id string, res Resource, term time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[id] = &entry{res: res, created: r.clock(), termination: &term}
	r.created++
}

// LiveCount reports the number of currently registered resources —
// the churn-test gauge that must return to baseline after every
// create/destroy cycle has resolved.
func (r *Registry) LiveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// CreatedCount reports how many registrations the registry has ever
// accepted (Add and AddWithTermination, including replacements).
// CreatedCount − DestroyedCount − LiveCount is the number of resources
// that left through Remove; churn tests assert the balance.
func (r *Registry) CreatedCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.created
}

// Remove unregisters a resource without firing the destroy callback or
// counting a destruction. The service layer uses it to keep the
// registry in sync when a resource is destroyed through the plain DAIS
// DestroyDataResource path rather than through WSRF.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, id)
}

// Get returns the resource for an id.
func (r *Registry) Get(id string) (Resource, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	return e.res, true
}

// IDs returns the registered identifiers, sorted.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for id := range r.entries {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// DestroyedCount reports how many resources have been destroyed over
// the registry's lifetime (explicitly or by the reaper).
func (r *Registry) DestroyedCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.destroyed
}

// lookup returns what a property read needs of a registration, and the
// time of the read.
func (r *Registry) lookup(id string) (res Resource, term *time.Time, now time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, nil, now, &UnknownResourceError{ID: id}
	}
	return e.res, e.termination, r.clock(), nil
}

// currentTime and terminationTime render the two WS-ResourceLifetime
// properties.
func currentTime(now time.Time) *xmlutil.Element {
	return xmlutil.NewElement(NSRL, "CurrentTime").SetText(now.UTC().Format(time.RFC3339Nano))
}

func terminationTime(term *time.Time) *xmlutil.Element {
	tt := xmlutil.NewElement(NSRL, "TerminationTime")
	if term == nil {
		return tt.SetAttr("", "nil", "true")
	}
	return tt.SetText(term.UTC().Format(time.RFC3339Nano))
}

// propertyDocumentWithLifetime returns the resource's property document
// with the WS-ResourceLifetime CurrentTime and TerminationTime
// properties appended.
func (r *Registry) propertyDocumentWithLifetime(id string) (*xmlutil.Element, error) {
	res, term, now, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	doc := res.PropertyDocument().Clone()
	doc.AppendChild(currentTime(now))
	doc.AppendChild(terminationTime(term))
	return doc, nil
}

// UnknownResourceError identifies requests for unregistered resources.
type UnknownResourceError struct{ ID string }

func (e *UnknownResourceError) Error() string {
	return fmt.Sprintf("wsrf: unknown resource %q", e.ID)
}

// GetResourcePropertyDocument implements wsrf:GetResourcePropertyDocument.
func (r *Registry) GetResourcePropertyDocument(id string) (*xmlutil.Element, error) {
	return r.propertyDocumentWithLifetime(id)
}

// GetResourceProperty implements wsrf:GetResourceProperty — it returns
// every property child matching the qualified name.
func (r *Registry) GetResourceProperty(id string, space, local string) ([]*xmlutil.Element, error) {
	return r.GetMultipleResourceProperties(id, []xmlutil.Name{{Space: space, Local: local}})
}

// GetMultipleResourceProperties implements the batched variant. Like
// GetResourceProperty it resolves each name on its own — the property
// document is never built, so asking for one cheap property costs one
// cheap property (paper §5) — and returns what FindAll over
// GetResourcePropertyDocument would, as read-only elements that may be
// shared with other readers: link them into a reply through Children,
// never AppendChild, which writes the child's parent pointer.
func (r *Registry) GetMultipleResourceProperties(id string, names []xmlutil.Name) ([]*xmlutil.Element, error) {
	res, term, now, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	var out []*xmlutil.Element
	for _, n := range names {
		out = append(out, res.Property(n.Space, n.Local)...)
		if n.Space != "" && n.Space != NSRL {
			continue
		}
		switch n.Local {
		case "CurrentTime":
			out = append(out, currentTime(now))
		case "TerminationTime":
			out = append(out, terminationTime(term))
		}
	}
	return out, nil
}

// QueryResourceProperties implements the XPath query dialect of
// wsrf:QueryResourceProperties against the property document.
func (r *Registry) QueryResourceProperties(id, expr string) ([]*xmlutil.Element, error) {
	doc, err := r.propertyDocumentWithLifetime(id)
	if err != nil {
		return nil, err
	}
	xp, err := xmldb.CompileXPath(expr)
	if err != nil {
		return nil, err
	}
	v, err := xp.Eval(doc)
	if err != nil {
		return nil, err
	}
	if v.Kind == xmldb.KindNodeSet {
		out := make([]*xmlutil.Element, len(v.Nodes))
		for i, n := range v.Nodes {
			out[i] = n.Clone()
		}
		return out, nil
	}
	// Scalar result: wrap it so callers always receive elements.
	res := xmlutil.NewElement(NSRP, "QueryResult")
	res.SetText(v.AsString())
	return []*xmlutil.Element{res}, nil
}

// SetTerminationTime implements wsrfl:SetTerminationTime. A nil
// requested time clears any scheduled termination (infinite lifetime).
// It returns the new termination time (nil for infinite) and the
// current time, as the response message requires.
func (r *Registry) SetTerminationTime(id string, requested *time.Time) (*time.Time, time.Time, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, time.Time{}, &UnknownResourceError{ID: id}
	}
	now := r.clock()
	if requested == nil {
		e.termination = nil
		return nil, now, nil
	}
	// A time already past is stored like any other — the zero time.Time,
	// 0001-01-01T00:00:00Z, too: what makes it an immediate-destruction
	// request is the next SweepExpired, which reaps every resource whose
	// termination time is not after its clock.
	t, out := *requested, *requested
	e.termination = &t
	return &out, now, nil
}

// TerminationTime reports the scheduled termination for an id: nil when
// none, as SetTerminationTime takes and returns it, so a termination
// scheduled at the zero time.Time is told apart from none.
func (r *Registry) TerminationTime(id string) (*time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok || e.termination == nil {
		return nil, ok
	}
	t := *e.termination
	return &t, true
}

// Destroy implements wsrfl:Destroy: it unregisters the resource and
// fires the destroy callback.
func (r *Registry) Destroy(id string) error {
	r.mu.Lock()
	_, ok := r.entries[id]
	if !ok {
		released := r.reaping[id]
		r.mu.Unlock()
		if released != nil {
			// The reaper won, but has not released the resource yet: a
			// consumer told "unknown" must find it gone everywhere, so the
			// answer waits for the release.
			<-released
		}
		return &UnknownResourceError{ID: id}
	}
	delete(r.entries, id)
	r.destroyed++
	cb := r.onDestroy
	r.mu.Unlock()
	if cb != nil {
		cb(id)
	}
	return nil
}

// SweepExpired destroys every resource whose termination time has
// passed, returning the ids destroyed. The reaper calls this
// periodically; tests call it directly with a fake clock. Between
// unregistering a resource and the destroy callback releasing it, a
// Destroy of the same id waits (see reaping): the reaper has won, and
// the loser is told so only once the resource is gone for readers too.
func (r *Registry) SweepExpired() []string {
	now := r.clock()
	r.mu.Lock()
	var doomed []string
	for id, e := range r.entries {
		if e.termination != nil && !e.termination.After(now) {
			doomed = append(doomed, id)
		}
	}
	cb := r.onDestroy
	if len(doomed) == 0 || cb == nil {
		for _, id := range doomed {
			delete(r.entries, id)
			r.destroyed++
		}
		r.mu.Unlock()
		sort.Strings(doomed)
		return doomed
	}
	released := make(chan struct{})
	if r.reaping == nil {
		r.reaping = map[string]chan struct{}{}
	}
	for _, id := range doomed {
		delete(r.entries, id)
		r.destroyed++
		r.reaping[id] = released
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		for _, id := range doomed {
			delete(r.reaping, id)
		}
		r.mu.Unlock()
		close(released)
	}()
	sort.Strings(doomed)
	for _, id := range doomed {
		cb(id)
	}
	return doomed
}

// StartReaper launches a goroutine sweeping expired resources every
// interval. The returned stop function terminates it and waits for the
// final sweep to finish; it is idempotent. Close stops every reaper
// started this way.
func (r *Registry) StartReaper(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				r.SweepExpired()
			}
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
	r.reaperMu.Lock()
	r.reaperStops = append(r.reaperStops, stop)
	r.reaperMu.Unlock()
	return stop
}

// Close shuts the registry's background machinery down: every reaper
// goroutine is stopped and waited for. Safe to call more than once and
// concurrently with StartReaper.
func (r *Registry) Close() {
	r.closeOnce.Do(func() {
		r.reaperMu.Lock()
		stops := append([]func(){}, r.reaperStops...)
		r.reaperStops = nil
		r.reaperMu.Unlock()
		for _, stop := range stops {
			stop()
		}
	})
}
