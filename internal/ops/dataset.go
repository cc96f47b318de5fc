package ops

import (
	"bytes"

	"dais/internal/core"
	"dais/internal/rowset"
	"dais/internal/soap"
	"dais/internal/wsaddr"
	"dais/internal/xmlutil"
)

// A Dataset's content is a document in its dataset format, decoded by
// that format's codec (or forwarded unread by a gateway), so envelope
// parsing keeps it as verbatim bytes rather than a tree.
func init() { soap.RegisterOpaquePayload(core.NSDAI, "Dataset") }

// The catalogue's own words: every operation's request and response
// element, and the message parts msg.go reads and writes.
func init() {
	for _, s := range Catalog() {
		xmlutil.RegisterVocabulary(s.NS, s.RequestElement(), s.ResponseElement())
	}
	xmlutil.RegisterVocabulary("Dataset", "DatasetFormatURI", "formatURI", "DataResourceAddress",
		"SQLExpression", "Expression", "Parameter", "ParameterName", "type", "isNull", "Index",
		"StartPosition", "Count", "CollectionName", "Document", "DocumentName", "modifications", "NodesModified",
		"FileName", "Offset", "Pattern", "Data", "encoding")
}

// DatasetElement embeds encoded data in a response: XML formats are
// embedded as element trees, others (CSV, binary) as text. The element
// takes data over — it may hold the bytes themselves, not a copy — so
// the caller must not write to data afterwards.
//
// Payloads produced by the registered XML codecs (SQLRowset, WebRowSet)
// are embedded verbatim as a Raw node: the codec just rendered a
// well-formed standalone fragment, so re-parsing it into a tree only to
// serialise it again inside the envelope would buy nothing but
// allocations. Other XML-looking payloads still take the parse path,
// which also validates them before they can corrupt the envelope.
func DatasetElement(formatURI string, data []byte) *xmlutil.Element {
	e := xmlutil.NewElement(core.NSDAI, "Dataset")
	e.SetAttr("", "formatURI", formatURI)
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '<' {
		if formatURI == rowset.FormatSQLRowset || formatURI == rowset.FormatWebRowSet {
			e.Children = append(e.Children, xmlutil.RawBytes(trimmed))
			return e
		}
		if parsed, err := xmlutil.ParseBytes(trimmed); err == nil {
			e.AppendChild(parsed)
			return e
		}
	}
	e.SetText(string(data))
	return e
}

// WindowDatasetElement is DatasetElement for a rowset window that has
// been resolved but not rendered yet: render appends it, in the given
// format. In the XML formats the element holds it as a Lazy node, and
// the window is rendered into the reply's own buffer as the envelope is
// written; any other format is text, which the envelope has to escape,
// so it is rendered here.
func WindowDatasetElement(formatURI string, render func(dst []byte) []byte) *xmlutil.Element {
	if formatURI != rowset.FormatSQLRowset && formatURI != rowset.FormatWebRowSet {
		return DatasetElement(formatURI, render(nil))
	}
	e := xmlutil.NewElement(core.NSDAI, "Dataset")
	e.SetAttr("", "formatURI", formatURI)
	e.Children = append(e.Children, xmlutil.Lazy(render))
	return e
}

// DatasetPayload extracts the raw bytes and format URI from a Dataset
// element: one built by DatasetElement, or one received in an envelope,
// whose content arrives as a verbatim Raw span (the bytes the producer
// sent) unless the fragment leaned on namespace declarations outside
// itself, in which case its subtree is re-marshalled. The bytes are the
// element's own, lent for reading, not a copy.
func DatasetPayload(e *xmlutil.Element) ([]byte, string) {
	if e == nil {
		return nil, ""
	}
	format := e.AttrValue("", "formatURI")
	for _, c := range e.Children {
		switch n := c.(type) {
		case xmlutil.Raw:
			return n.Bytes(), format
		case xmlutil.Lazy:
			return n(nil), format
		}
	}
	if kids := e.ChildElements(); len(kids) == 1 {
		return xmlutil.Marshal(kids[0]), format
	}
	return []byte(e.Text()), format
}

// AddResourceAddress appends the factory-response EPR (paper Fig. 3:
// indirect access returns an address to the derived resource).
func AddResourceAddress(resp *xmlutil.Element, epr *wsaddr.EndpointReference) {
	resp.AppendChild(epr.Element(core.NSDAI, "DataResourceAddress"))
}

// ResourceAddress extracts the DataResourceAddress EPR from a factory
// response.
func ResourceAddress(resp *xmlutil.Element) (*wsaddr.EndpointReference, error) {
	return wsaddr.ParseEPR(resp.Find(core.NSDAI, "DataResourceAddress"))
}
