// Package ops is the declarative operation registry for the DAIS
// interface surface. The paper's Fig. 6 presents DAIS as a table of
// operations grouped into composable interface classes; this package
// *is* that table. Each operation is described once by a Spec — its
// interface class, wsa:Action URI, the realisation kind of resource it
// addresses, and whether its response carries an EPR — and everything
// else is derived from it: the service layer binds handlers per spec,
// the consumer client builds requests per spec, the generated WSDL
// enumerates the registered specs, and the canonical type-mismatch
// fault comes from the spec's resource kind. Adding an operation means
// adding one Spec to the catalog plus its handler and client method;
// dispatch, WSDL and fault mapping follow automatically.
package ops

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"dais/internal/core"
	"dais/internal/xmlutil"
)

// Interfaces selects which DAIS port types an endpoint exposes. The
// paper (§4.3) notes "DAIS does not prescribe how these operations are
// to be combined to form services; the proposed interfaces may be used
// in isolation or in conjunction with others" — Fig. 5's three data
// services expose three different combinations.
type Interfaces uint32

// Interface flags, one per Fig. 6 interface class.
const (
	CoreDataAccess Interfaces = 1 << iota
	CoreResourceList
	SQLAccess
	SQLFactory
	SQLResponseAccess
	SQLResponseFactory
	SQLRowsetAccess
	XMLCollectionAccess
	XMLQueryAccess
	XMLFactory
	XMLSequenceAccess
	FileAccess
	FileFactory
)

// AllInterfaces enables everything.
const AllInterfaces = CoreDataAccess | CoreResourceList | SQLAccess | SQLFactory |
	SQLResponseAccess | SQLResponseFactory | SQLRowsetAccess |
	XMLCollectionAccess | XMLQueryAccess | XMLFactory | XMLSequenceAccess |
	FileAccess | FileFactory

// Kind names the realisation a resource must belong to for an
// operation to apply. It doubles as the canonical label in the
// InvalidResourceNameFault raised on a kind mismatch, so every
// realisation reports wrong-type resources identically.
type Kind string

// Resource kinds.
const (
	// KindNone marks operations that address the service, not a
	// resource (GetResourceList).
	KindNone Kind = ""
	// KindData accepts any data resource (the WS-DAI core operations).
	KindData          Kind = "data"
	KindSQL           Kind = "SQL"
	KindSQLResponse   Kind = "SQLResponse"
	KindSQLRowset     Kind = "SQLRowset"
	KindXMLCollection Kind = "XMLCollection"
	KindXMLSequence   Kind = "XMLSequence"
	// KindFile is a writable base file resource; KindFileReader also
	// accepts read-only staged snapshots. Both report the canonical
	// "File" label on mismatch.
	KindFile       Kind = "File"
	KindFileReader Kind = "FileReader"
)

// faultLabel is the realisation name used in type-mismatch faults.
func (k Kind) faultLabel() string {
	if k == KindFileReader {
		return string(KindFile)
	}
	return string(k)
}

// TypeFault is the one canonical fault for a resource of the wrong
// realisation. Every resolver path emits exactly this detail format.
func TypeFault(name string, kind Kind) error {
	return &core.InvalidResourceNameFault{
		Name: fmt.Sprintf("%s (not a %s resource)", name, kind.faultLabel())}
}

// IsTypeFault reports whether err is TypeFault for name: the resource
// exists, but is not of the realisation the operation needs.
func IsTypeFault(err error, name string) bool {
	var f *core.InvalidResourceNameFault
	return errors.As(err, &f) && strings.HasPrefix(f.Name, name+" (not a ")
}

// Resolve maps an abstract name to a resource of the realisation type
// T, replacing the per-realisation resolveSQL/resolveResponse/...
// helpers: unknown names surface the service's InvalidResourceNameFault
// and type mismatches the canonical TypeFault for the spec's kind.
func Resolve[T core.DataResource](svc *core.DataService, name string, kind Kind) (T, error) {
	var zero T
	r, err := svc.Resolve(name)
	if err != nil {
		return zero, err
	}
	t, ok := r.(T)
	if !ok {
		return zero, TypeFault(name, kind)
	}
	return t, nil
}

// Spec declares one DAIS operation: the single source of truth that
// dispatch, client construction, WSDL generation and fault mapping all
// read. Action is always NS + "/" + Op.
type Spec struct {
	Action   string     // wsa:Action URI the SOAP dispatcher routes on
	NS       string     // namespace of the request/response elements
	Op       string     // operation name (one Fig. 6 row)
	Class    string     // Fig. 6 interface class the operation belongs to
	Iface    Interfaces // endpoint gate flag; 0 = layered outside the flags (WSRF)
	Resource Kind       // realisation the addressed resource must have
	NoName   bool       // request carries no DataResourceAbstractName (GetResourceList)
	EPRReply bool       // response carries a DataResourceAddress EPR
	PortType string     // PortTypeQName advertised in factory requests ("" = none)
	Bare     bool       // request element is named Op, not Op+"Request" (WSRF style)
	// Idempotent marks operations that are safe to replay when the
	// outcome of an attempt is unknown (transport error, shed request):
	// pure reads of service or resource state. Factories, destroys and
	// anything that can mutate backend state stay false, and the
	// resilience layer derives its per-operation retry policy from this
	// flag — non-idempotent operations are never retried.
	Idempotent bool
}

// RequestElement is the local name of the request body element.
func (s Spec) RequestElement() string {
	if s.Bare {
		return s.Op
	}
	return s.Op + "Request"
}

// ResponseElement is the local name of the response body element.
func (s Spec) ResponseElement() string { return s.Op + "Response" }

// NewRequest builds the operation's request element with the mandatory
// DataResourceAbstractName child (paper §3: "DAIS mandates the
// inclusion of the data resource's abstract name in the body of the
// message"). Consumers and the completeness tests share this
// constructor, so the framing rule holds by construction.
func (s Spec) NewRequest(abstractName string) *xmlutil.Element {
	e := xmlutil.NewElement(s.NS, s.RequestElement())
	if !s.NoName {
		e.AddText(core.NSDAI, "DataResourceAbstractName", abstractName)
	}
	if s.PortType != "" {
		e.AddText(core.NSDAI, "PortTypeQName", s.PortType)
	}
	return e
}

// NewResponse builds the operation's empty response element, fixing the
// response name to Op+"Response" on every path.
func (s Spec) NewResponse() *xmlutil.Element {
	return xmlutil.NewElement(s.NS, s.ResponseElement())
}

// Info is the spec's interceptor-visible call metadata.
func (s Spec) Info() CallInfo {
	return CallInfo{Action: s.Action, Op: s.Op, Class: s.Class, Resource: s.Resource,
		Idempotent: s.Idempotent}
}

// CallInfo is the operation metadata the registry attaches to the
// request context on both the client and server paths, so interceptors
// (and future metrics/observability layers) can label an exchange
// without re-parsing the envelope.
type CallInfo struct {
	Action     string
	Op         string
	Class      string
	Resource   Kind
	Idempotent bool
}

// callInfoKey is the context key carrying CallInfo.
type callInfoKey struct{}

// WithCallInfo annotates a context with the operation metadata.
func WithCallInfo(ctx context.Context, info CallInfo) context.Context {
	return context.WithValue(ctx, callInfoKey{}, info)
}

// CallInfoFromContext returns the operation metadata attached by the
// dispatch or client path, and whether any was attached.
func CallInfoFromContext(ctx context.Context) (CallInfo, bool) {
	info, ok := ctx.Value(callInfoKey{}).(CallInfo)
	return info, ok
}
