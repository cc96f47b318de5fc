package ops

import (
	"fmt"
	"sort"
)

// Registry is the set of operations one endpoint actually exposes (the
// catalog filtered by the endpoint's enabled interfaces and WSRF
// layering). It is the single source the SOAP dispatcher, the WSDL
// generator and the completeness tests read.
type Registry struct {
	byAction map[string]Spec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byAction: make(map[string]Spec)}
}

// Add registers a spec. A duplicate wsa:Action is a programming error
// in the catalog — two operations would be indistinguishable on the
// wire — so it panics.
func (r *Registry) Add(s Spec) {
	if _, dup := r.byAction[s.Action]; dup {
		panic(fmt.Sprintf("ops: duplicate action %q in registry", s.Action))
	}
	r.byAction[s.Action] = s
}

// Lookup returns the spec registered for an action.
func (r *Registry) Lookup(action string) (Spec, bool) {
	s, ok := r.byAction[action]
	return s, ok
}

// Len reports how many operations are registered.
func (r *Registry) Len() int { return len(r.byAction) }

// Specs returns every registered spec, sorted by action URI (the
// stable order the WSDL generator emits).
func (r *Registry) Specs() []Spec {
	out := make([]Spec, 0, len(r.byAction))
	for _, s := range r.byAction {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Action < out[j].Action })
	return out
}
