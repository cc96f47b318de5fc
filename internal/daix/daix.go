// Package daix implements the WS-DAIX XML realisation: XML collection
// data resources backed by the xmldb substrate, the
// XMLCollectionAccess operations (document and sub-collection
// management), XPathAccess / XQueryAccess / XUpdateAccess query
// interfaces, and the XPathFactory / XQueryFactory / CollectionFactory
// indirect-access operations that create derived sequence and
// collection resources (paper §4.3: "The XML extensions follow the
// same principles and provide support for querying XML data resources
// using XQuery, XPath, XUpdate as well as operations that manipulate
// collections").
package daix

import (
	"context"
	"fmt"
	"strings"

	"dais/internal/core"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// NSDAIX is the WS-DAIX namespace.
const NSDAIX = "http://www.ggf.org/namespaces/2005/12/WS-DAIX"

func init() {
	xmlutil.RegisterVocabulary(NSDAIX, "XMLSequence", "Item", "Value", "document",
		"NumberOfDocuments", "NumberOfSubCollections", "NumberOfItems", "UpdateLanguage")
}

// Query language URIs advertised through GenericQueryLanguage.
const (
	LanguageXPath  = "http://www.w3.org/TR/xpath"
	LanguageXQuery = "http://www.w3.org/TR/xquery"
)

// FormatXML is the single dataset format XML resources return.
const FormatXML = "http://www.w3.org/TR/REC-xml"

// XMLCollectionResource is an externally managed XML data resource: a
// collection (possibly nested) in an xmldb store.
type XMLCollectionResource struct {
	core.BaseResource
	store *xmldb.Store
	path  string // collection path within the store; "" = root
}

// CollectionOption configures an XMLCollectionResource.
type CollectionOption func(*XMLCollectionResource)

// WithCollectionConfiguration overrides the default configuration.
func WithCollectionConfiguration(c core.Configuration) CollectionOption {
	return func(r *XMLCollectionResource) { r.Config = c }
}

// NewXMLCollectionResource wraps a store collection as a data resource.
func NewXMLCollectionResource(store *xmldb.Store, path string, opts ...CollectionOption) *XMLCollectionResource {
	r := &XMLCollectionResource{
		BaseResource: core.BaseResource{
			Name: core.NewAbstractName("xmlcol"),
			Mgmt: core.ExternallyManaged,
			Config: core.Configuration{
				Description:          "XML collection " + store.Name() + "/" + path,
				Readable:             true,
				Writeable:            true,
				TransactionIsolation: "READ COMMITTED",
			},
		},
		store: store,
		path:  path,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Store exposes the underlying store.
func (r *XMLCollectionResource) Store() *xmldb.Store { return r.store }

// Path returns the collection path this resource wraps.
func (r *XMLCollectionResource) Path() string { return r.path }

// QueryLanguages implements core.DataResource.
func (r *XMLCollectionResource) QueryLanguages() []string {
	return []string{LanguageXPath, LanguageXQuery}
}

// DatasetFormats implements core.DataResource.
func (r *XMLCollectionResource) DatasetFormats() []string { return []string{FormatXML} }

// GenericQuery implements core.DataResource, dispatching on language.
func (r *XMLCollectionResource) GenericQuery(ctx context.Context, languageURI, expression string) (*xmlutil.Element, error) {
	var results []xmldb.QueryResult
	var err error
	switch languageURI {
	case LanguageXPath:
		results, err = r.XPathExecute(ctx, expression)
	case LanguageXQuery:
		results, err = r.XQueryExecute(ctx, expression)
	default:
		return nil, &core.InvalidLanguageFault{Language: languageURI}
	}
	if err != nil {
		return nil, err
	}
	return WrapResults(results), nil
}

// ExtendedProperties implements core.DataResource with the WS-DAIX
// collection extensions: document and sub-collection counts and the
// supported update language.
func (r *XMLCollectionResource) ExtendedProperties() []*xmlutil.Element {
	var out []*xmlutil.Element
	if n, err := r.store.DocumentCount(r.path); err == nil {
		e := xmlutil.NewElement(NSDAIX, "NumberOfDocuments")
		e.SetText(fmt.Sprintf("%d", n))
		out = append(out, e)
	}
	if subs, err := r.store.ListCollections(r.path); err == nil {
		e := xmlutil.NewElement(NSDAIX, "NumberOfSubCollections")
		e.SetText(fmt.Sprintf("%d", len(subs)))
		out = append(out, e)
	}
	ul := xmlutil.NewElement(NSDAIX, "UpdateLanguage")
	ul.SetText(xmldb.NSXUpdate)
	out = append(out, ul)
	return out
}

// Release implements core.DataResource. Externally managed collections
// persist; a service-managed derived collection (CollectionFactory) is
// removed from the store with its documents.
func (r *XMLCollectionResource) Release() error {
	if r.Mgmt == core.ServiceManaged && r.path != "" {
		return r.store.RemoveCollection(r.path)
	}
	return nil
}

// --- XMLCollectionAccess operations ---

// AddDocument implements XMLCollectionAccess.AddDocument.
func (r *XMLCollectionResource) AddDocument(name string, doc *xmlutil.Element) error {
	if err := core.CheckWriteable(r); err != nil {
		return err
	}
	return r.store.AddDocument(r.path, name, doc)
}

// AddDocuments adds a batch, failing on the first error and reporting
// how many were added.
func (r *XMLCollectionResource) AddDocuments(docs map[string]*xmlutil.Element, order []string) (int, error) {
	if err := core.CheckWriteable(r); err != nil {
		return 0, err
	}
	added := 0
	for _, name := range order {
		if err := r.store.AddDocument(r.path, name, docs[name]); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// GetDocument implements XMLCollectionAccess.GetDocument.
func (r *XMLCollectionResource) GetDocument(name string) (*xmlutil.Element, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	return r.store.GetDocument(r.path, name)
}

// RemoveDocument implements XMLCollectionAccess.RemoveDocument.
func (r *XMLCollectionResource) RemoveDocument(name string) error {
	if err := core.CheckWriteable(r); err != nil {
		return err
	}
	return r.store.RemoveDocument(r.path, name)
}

// ListDocuments implements XMLCollectionAccess.ListDocuments.
func (r *XMLCollectionResource) ListDocuments() ([]string, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	return r.store.ListDocuments(r.path)
}

// CreateSubcollection implements XMLCollectionAccess.CreateSubcollection.
func (r *XMLCollectionResource) CreateSubcollection(name string) error {
	if err := core.CheckWriteable(r); err != nil {
		return err
	}
	return r.store.CreateCollection(joinPath(r.path, name))
}

// RemoveSubcollection implements XMLCollectionAccess.RemoveSubcollection.
func (r *XMLCollectionResource) RemoveSubcollection(name string) error {
	if err := core.CheckWriteable(r); err != nil {
		return err
	}
	return r.store.RemoveCollection(joinPath(r.path, name))
}

// ListSubcollections implements XMLCollectionAccess.ListSubcollections.
func (r *XMLCollectionResource) ListSubcollections() ([]string, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	return r.store.ListCollections(r.path)
}

// --- query interfaces ---

// XPathExecute implements XPathAccess.XPathExecute across the
// collection's documents.
func (r *XMLCollectionResource) XPathExecute(ctx context.Context, expr string) ([]xmldb.QueryResult, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	res, err := r.store.XPathQueryContext(ctx, r.path, expr)
	if err != nil {
		return nil, core.QueryFault(ctx, err)
	}
	return res, nil
}

// XQueryExecute implements XQueryAccess.XQueryExecute.
func (r *XMLCollectionResource) XQueryExecute(ctx context.Context, query string) ([]xmldb.QueryResult, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	res, err := r.store.XQueryExecuteContext(ctx, r.path, query)
	if err != nil {
		return nil, core.QueryFault(ctx, err)
	}
	return res, nil
}

// XUpdateExecute implements XUpdateAccess.XUpdateExecute against one
// document of the collection.
func (r *XMLCollectionResource) XUpdateExecute(ctx context.Context, document string, modifications *xmlutil.Element) (int, error) {
	if err := core.CheckWriteable(r); err != nil {
		return 0, err
	}
	if err := core.TimeoutFault(ctx); err != nil {
		return 0, err
	}
	n, err := r.store.XUpdate(r.path, document, modifications)
	if err != nil {
		return 0, core.QueryFault(ctx, err)
	}
	return n, nil
}

// WrapResults renders query results as a single XMLSequence element for
// transport.
func WrapResults(results []xmldb.QueryResult) *xmlutil.Element {
	seq := xmlutil.NewElement(NSDAIX, "XMLSequence")
	for _, qr := range results {
		item := seq.Add(NSDAIX, "Item")
		item.SetAttr("", "document", qr.Document)
		if qr.IsNode {
			item.AppendChild(qr.Node.Clone())
		} else {
			item.SetAttr("", "document", qr.Document)
			item.AddText(NSDAIX, "Value", qr.Value)
		}
	}
	return seq
}

func joinPath(base, name string) string {
	if base == "" {
		return name
	}
	return strings.TrimSuffix(base, "/") + "/" + name
}
