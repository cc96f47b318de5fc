package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"

	"dais/internal/xmlutil"
)

// DataResource is "any entity that can act as a source or sink of data"
// (paper §3) as seen by a data service. Realisations (relational, XML,
// response, rowset, sequence, ...) implement it and add their own
// operations.
type DataResource interface {
	// AbstractName is the resource's unique, persistent URI name.
	AbstractName() string
	// ParentName is the abstract name of the resource this one was
	// derived from, or "" for non-derived resources.
	ParentName() string
	// Management classifies the resource as externally or service
	// managed.
	Management() Management
	// Configuration returns the resource's configurable properties.
	Configuration() Configuration
	// QueryLanguages lists the language URIs GenericQuery accepts.
	QueryLanguages() []string
	// DatasetFormats lists the DataFormatURIs the resource can return
	// data in (the DatasetMap property).
	DatasetFormats() []string
	// GenericQuery runs a query in one of the advertised languages and
	// returns the result as an XML element. It backs the WS-DAI
	// GenericQuery operation. Implementations observe ctx cancellation
	// at row/document granularity.
	GenericQuery(ctx context.Context, languageURI, expression string) (*xmlutil.Element, error)
	// ExtendedProperties returns realisation-specific property elements
	// appended to the WS-DAI property document (e.g. WS-DAIR's
	// CIMDescription and NumberOfRows).
	ExtendedProperties() []*xmlutil.Element
	// Release frees resources held by a service-managed resource when
	// its service relationship is destroyed. Externally managed
	// resources treat it as a no-op: "the data will probably remain in
	// place" (paper §4.3).
	Release() error
}

// PropertyProvider is implemented by a realisation that can render one
// of its extension properties without the others — WS-DAIR's
// CIMDescription describes every table of the database, and a consumer
// asking for NumberOfTables should not pay for it.
type PropertyProvider interface {
	// ExtendedProperty returns the elements ExtendedProperties would
	// that are named (space, local), an empty space matching any.
	ExtendedProperty(space, local string) []*xmlutil.Element
}

// nameCounter disambiguates generated names within a process.
var nameCounter atomic.Int64

// NewAbstractName mints a unique, persistent URI abstract name. DAIS
// "uses a URI to represent data resource's abstract names" (paper §3)
// pending the OGSA naming standardisation.
func NewAbstractName(kind string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("core: rand: " + err.Error())
	}
	return fmt.Sprintf("urn:dais:%s:%x-%d", kind, b, nameCounter.Add(1))
}

// Configurable is implemented by resources whose configurable WS-DAI
// properties may be changed after creation — the paper notes some
// properties "may be changed and may thus affect the behaviour of the
// service" (§3). The WSRF SetResourceProperties operation uses it.
type Configurable interface {
	UpdateConfiguration(func(*Configuration))
}

// BaseResource supplies the bookkeeping shared by every resource
// implementation; embed it and override what differs.
type BaseResource struct {
	Name   string
	Parent string
	Mgmt   Management
	Config Configuration

	cfgMu sync.RWMutex
}

// AbstractName implements DataResource.
func (b *BaseResource) AbstractName() string { return b.Name }

// ParentName implements DataResource.
func (b *BaseResource) ParentName() string { return b.Parent }

// Management implements DataResource.
func (b *BaseResource) Management() Management { return b.Mgmt }

// Configuration implements DataResource.
func (b *BaseResource) Configuration() Configuration {
	b.cfgMu.RLock()
	defer b.cfgMu.RUnlock()
	return b.Config
}

// UpdateConfiguration implements Configurable: f mutates the
// configuration under the resource's lock.
func (b *BaseResource) UpdateConfiguration(f func(*Configuration)) {
	b.cfgMu.Lock()
	defer b.cfgMu.Unlock()
	f(&b.Config)
}

// ExtendedProperties implements DataResource with no extensions.
func (b *BaseResource) ExtendedProperties() []*xmlutil.Element { return nil }

// Release implements DataResource as a no-op.
func (b *BaseResource) Release() error { return nil }

// CheckReadable returns a NotAuthorizedFault when the resource's
// configuration forbids reads.
func CheckReadable(r DataResource) error {
	if !r.Configuration().Readable {
		return &NotAuthorizedFault{Reason: fmt.Sprintf("data resource %s is not readable", r.AbstractName())}
	}
	return nil
}

// CheckWriteable returns a NotAuthorizedFault when the resource's
// configuration forbids writes.
func CheckWriteable(r DataResource) error {
	if !r.Configuration().Writeable {
		return &NotAuthorizedFault{Reason: fmt.Sprintf("data resource %s is not writeable", r.AbstractName())}
	}
	return nil
}

// CheckLanguage validates a GenericQuery language URI against the
// resource's advertised GenericQueryLanguage properties.
func CheckLanguage(r DataResource, languageURI string) error {
	for _, l := range r.QueryLanguages() {
		if l == languageURI {
			return nil
		}
	}
	return &InvalidLanguageFault{Language: languageURI}
}
