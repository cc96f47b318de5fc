// Package rowset implements the dataset representations a WS-DAIR
// service can return and the DatasetMap machinery that advertises them.
//
// The WS-DAI DatasetMap property "provides a means of specifying the
// valid return formats supported by a data service, there will be one
// of these elements for each possible supported return type" (paper
// §4.2); consumers pick one by sending its DataFormatURI in the request
// (paper §4.1). Three formats ship: an XML SQLRowset (the WS-DAIR
// native rendering), the WebRowSet rendering referenced in the paper's
// Fig. 5 pipeline, and CSV for lightweight consumers.
package rowset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// Format URIs advertised through DatasetMap properties.
const (
	FormatSQLRowset = "http://www.ggf.org/namespaces/2005/12/WS-DAIR/SQLRowset"
	FormatWebRowSet = "http://java.sun.com/xml/ns/jdbc/webrowset"
	FormatCSV       = "http://www.ggf.org/namespaces/2005/12/WS-DAIR/CSV"
)

// Codec encodes and decodes a materialised result set in one dataset
// format.
type Codec interface {
	// FormatURI is the DataFormatURI identifying this codec.
	FormatURI() string
	// Encode renders the result set.
	Encode(rs *sqlengine.ResultSet) ([]byte, error)
	// AppendWindow is the form a codec encodes in: a window — its rows
	// given as the pages that hold them, in order, under the header cols
	// — rendered after dst, which is returned grown. Encode is this with
	// nothing before the window and one page; a producer that owns a
	// buffer (a reply being written) appends to it and a window costs no
	// allocation of its own.
	AppendWindow(dst []byte, cols []sqlengine.ResultColumn, pages ...[][]sqlengine.Value) []byte
	// Decode parses a rendering produced by Encode.
	Decode(data []byte) (*sqlengine.ResultSet, error)
}

// Registry maps format URIs to codecs; it backs a data service's
// DatasetMap property.
type Registry struct {
	mu     sync.RWMutex
	codecs map[string]Codec
}

// NewRegistry returns a registry preloaded with the three standard
// codecs.
func NewRegistry() *Registry {
	r := &Registry{codecs: map[string]Codec{}}
	r.Register(SQLRowsetCodec{})
	r.Register(WebRowSetCodec{})
	r.Register(CSVCodec{})
	return r
}

// Register adds (or replaces) a codec.
func (r *Registry) Register(c Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.codecs[c.FormatURI()] = c
}

// Lookup resolves a format URI. An empty URI selects the SQLRowset
// default, matching the WS-DAI rule that DataFormatURI is optional.
func (r *Registry) Lookup(uri string) (Codec, error) {
	if uri == "" {
		uri = FormatSQLRowset
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.codecs[uri]
	if !ok {
		return nil, fmt.Errorf("rowset: unsupported dataset format %q", uri)
	}
	return c, nil
}

// URIs lists the registered format URIs, sorted, for DatasetMap
// property rendering.
func (r *Registry) URIs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.codecs))
	for u := range r.codecs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// typeName/TypeFromName serialise column types.
func typeName(t sqlengine.Type) string { return t.String() }

// effectiveColumns resolves untyped (computed) columns by inferring the
// type from the first non-null value in that column, so expressions
// like AVG(x) round-trip with their runtime type instead of decaying to
// VARCHAR. Inference scans only the rows a window holds — pages, in
// order — which keeps windowed output byte-identical to encoding a
// materialised page. A fully typed header is returned as it stands.
func effectiveColumns(cols []sqlengine.ResultColumn, pages [][][]sqlengine.Value) []sqlengine.ResultColumn {
	copied := false
	for i := range cols {
		if cols[i].Type != sqlengine.TypeNull {
			continue
		}
		if !copied {
			cols, copied = slices.Clone(cols), true
		}
		cols[i].Type = sqlengine.TypeVarchar
	infer:
		for _, page := range pages {
			for _, row := range page {
				if !row[i].IsNull() {
					cols[i].Type = row[i].Type
					break infer
				}
			}
		}
	}
	return cols
}

// effectiveColumnsRange is effectiveColumns for the window [from, to) of
// a materialised set.
func effectiveColumnsRange(rs *sqlengine.ResultSet, from, to int) []sqlengine.ResultColumn {
	return effectiveColumns(rs.Columns, [][][]sqlengine.Value{rs.Rows[from:to]})
}

// TypeFromName reads a column type as the renderings name it: an
// unknown name is VARCHAR.
func TypeFromName(s string) sqlengine.Type {
	t, err := sqlengine.TypeFromName(s)
	if err != nil {
		return sqlengine.TypeVarchar
	}
	return t
}

// valueFromText reconstructs a typed value from its string rendering.
func valueFromText(t sqlengine.Type, text string, isNull bool) (sqlengine.Value, error) {
	if isNull {
		return sqlengine.Null, nil
	}
	return sqlengine.NewString(text).Coerce(t)
}

// appendCell appends the text of a non-NULL cell: the one renderer all
// three encoders share. A VARCHAR goes through str, the format's
// escaping of arbitrary text; every other type renders to digits,
// letters and punctuation that no format needs to escape.
func appendCell(dst []byte, v sqlengine.Value, str func(dst []byte, s string) []byte) []byte {
	if v.Type == sqlengine.TypeVarchar {
		return str(dst, v.S)
	}
	return v.AppendText(dst)
}

func appendXMLText(dst []byte, s string) []byte { return xmlutil.AppendEscaped(dst, s, false) }

// sampleRows is how many rows of a window an encoder renders before it
// sizes the buffer for the rest.
const sampleRows = 16

// reserve grows dst for the rows still to come, once sampleRows of
// them have been rendered into dst[start:], at the sample's bytes per
// row and an eighth more — so a window costs one allocation of about
// its size, where appending alone would reallocate its way up and a
// per-column guess reserved half as much again as a window needs.
func reserve(dst []byte, start, rowsLeft int) []byte {
	return slices.Grow(dst, (len(dst)-start)/sampleRows*rowsLeft*9/8+64)
}

// firstWindow is the room an encoder asks for before it writes a
// window's header and its first rows — up to twice sampleRows of them,
// so that a reply that short is one allocation of about its size and
// reserve finds nothing to grow, where appending from nothing doubled
// its way to three times that. A longer window is measured after
// sampleRows and reserved for as before. rowBytes is what the format
// spends on a row with every cell's value guessed at 16 bytes.
func firstWindow(header, rowBytes, rows int) int {
	return header + min(rows, 2*sampleRows)*rowBytes
}

func countRows(pages [][][]sqlengine.Value) (n int) {
	for _, page := range pages {
		n += len(page)
	}
	return n
}

// appendRows renders the rows of pages, total of them, after b with
// row, reserving for the rest once sampleRows have been measured.
func appendRows(b []byte, pages [][][]sqlengine.Value, total int, row func([]byte, []sqlengine.Value) []byte) []byte {
	start, done := len(b), 0
	for _, page := range pages {
		for _, r := range page {
			if done == sampleRows {
				b = reserve(b, start, total-done)
			}
			done++
			b = row(b, r)
		}
	}
	return b
}

// --- SQLRowset XML ---

// NSDAIR is the WS-DAIR namespace used by the SQLRowset rendering.
const NSDAIR = "http://www.ggf.org/namespaces/2005/12/WS-DAIR"

func init() {
	xmlutil.RegisterVocabulary(NSDAIR, "SQLRowset", "Metadata", "Column", "Row", "Value",
		"name", "type", "table", "isNull",
		NSWebRowSet, "webRowSet", "properties", "concurrency", "metadata", "data", "currentRow", "columnValue", "null")
}

// SQLRowsetCodec is the WS-DAIR native XML rendering: column metadata
// followed by row elements.
type SQLRowsetCodec struct{}

// FormatURI identifies the SQLRowset format.
func (SQLRowsetCodec) FormatURI() string { return FormatSQLRowset }

// Encode renders the result set as an SQLRowset element.
func (c SQLRowsetCodec) Encode(rs *sqlengine.ResultSet) ([]byte, error) {
	return c.AppendWindow(nil, rs.Columns, rs.Rows), nil
}

// AppendWindow implements Codec. It writes the bytes straight from
// the values — no element tree — and its output is byte-identical to
// marshalling SQLRowsetElement (pinned by test), so consumers cannot
// tell which path produced a page.
func (SQLRowsetCodec) AppendWindow(dst []byte, cols []sqlengine.ResultColumn, pages ...[][]sqlengine.Value) []byte {
	// Header: the root and Metadata tags, ~64 bytes a Column; a row is
	// 19 bytes of Row tags and 23 of Value tags a cell.
	rows, n := countRows(pages), len(cols)
	b := append(slices.Grow(dst, firstWindow(160+64*n, 19+n*(23+16), rows)),
		`<ns0:SQLRowset xmlns:ns0="`+NSDAIR+`"><ns0:Metadata>`...)
	for _, c := range effectiveColumns(cols, pages) {
		b = append(b, `<ns0:Column name="`...)
		b = xmlutil.AppendEscaped(b, c.Name, true)
		b = append(b, `" type="`...)
		b = xmlutil.AppendEscaped(b, typeName(c.Type), true)
		if c.Table != "" {
			b = append(b, `" table="`...)
			b = xmlutil.AppendEscaped(b, c.Table, true)
		}
		b = append(b, `"/>`...)
	}
	b = append(b, `</ns0:Metadata>`...)
	b = appendRows(b, pages, rows, appendSQLRowsetRow)
	return append(b, `</ns0:SQLRowset>`...)
}

func appendSQLRowsetRow(b []byte, row []sqlengine.Value) []byte {
	b = append(b, `<ns0:Row>`...)
	for _, v := range row {
		if v.IsNull() {
			b = append(b, `<ns0:Value isNull="true"/>`...)
			continue
		}
		// "" takes this shape too (SetText("") leaves a text node, so
		// the tree path never emits <Value/> here either).
		b = append(b, `<ns0:Value>`...)
		b = appendCell(b, v, appendXMLText)
		b = append(b, `</ns0:Value>`...)
	}
	return append(b, `</ns0:Row>`...)
}

// SQLRowsetElement builds the XML tree without serialising, for callers
// that embed the rowset inside a SOAP response.
func SQLRowsetElement(rs *sqlengine.ResultSet) *xmlutil.Element {
	return sqlRowsetRangeElement(rs, 0, len(rs.Rows))
}

func sqlRowsetRangeElement(rs *sqlengine.ResultSet, from, to int) *xmlutil.Element {
	root := xmlutil.NewElement(NSDAIR, "SQLRowset")
	meta := root.Add(NSDAIR, "Metadata")
	for _, c := range effectiveColumnsRange(rs, from, to) {
		col := meta.Add(NSDAIR, "Column")
		col.SetAttr("", "name", c.Name)
		col.SetAttr("", "type", typeName(c.Type))
		if c.Table != "" {
			col.SetAttr("", "table", c.Table)
		}
	}
	for _, row := range rs.Rows[from:to] {
		re := root.Add(NSDAIR, "Row")
		for _, v := range row {
			ce := re.Add(NSDAIR, "Value")
			if v.IsNull() {
				ce.SetAttr("", "isNull", "true")
			} else {
				ce.SetText(v.String())
			}
		}
	}
	return root
}

// Decode parses an SQLRowset rendering: in one pass over the bytes
// where that suffices, through DecodeSQLRowsetElement otherwise (see
// decode.go).
func (SQLRowsetCodec) Decode(data []byte) (*sqlengine.ResultSet, error) {
	if rs, ok := decodeSQLRowsetStream(data); ok {
		return rs, nil
	}
	return decodeViaTree(data, DecodeSQLRowsetElement)
}

// decodeViaTree parses a rendering into an element tree and hands it to
// the format's tree decoder.
func decodeViaTree(data []byte, decode func(*xmlutil.Element) (*sqlengine.ResultSet, error)) (*sqlengine.ResultSet, error) {
	root, err := xmlutil.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("rowset: %w", err)
	}
	return decode(root)
}

// DecodeSQLRowsetElement reconstructs a result set from an SQLRowset
// element tree.
func DecodeSQLRowsetElement(root *xmlutil.Element) (*sqlengine.ResultSet, error) {
	if root.Name.Local != "SQLRowset" {
		return nil, fmt.Errorf("rowset: root element %s is not SQLRowset", root.Name)
	}
	rs := &sqlengine.ResultSet{}
	meta := root.Find(NSDAIR, "Metadata")
	if meta == nil {
		return nil, fmt.Errorf("rowset: SQLRowset missing Metadata")
	}
	for _, c := range meta.FindAll(NSDAIR, "Column") {
		rs.Columns = append(rs.Columns, sqlengine.ResultColumn{
			Name:  c.AttrValue("", "name"),
			Type:  TypeFromName(c.AttrValue("", "type")),
			Table: c.AttrValue("", "table"),
		})
	}
	for _, re := range root.FindAll(NSDAIR, "Row") {
		vals := re.FindAll(NSDAIR, "Value")
		if len(vals) != len(rs.Columns) {
			return nil, fmt.Errorf("rowset: row has %d values for %d columns", len(vals), len(rs.Columns))
		}
		row := make([]sqlengine.Value, len(vals))
		for i, ve := range vals {
			v, err := valueFromText(rs.Columns[i].Type, ve.Text(), ve.AttrValue("", "isNull") == "true")
			if err != nil {
				return nil, fmt.Errorf("rowset: column %s: %w", rs.Columns[i].Name, err)
			}
			row[i] = v
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, nil
}

// --- WebRowSet ---

// NSWebRowSet is the Sun WebRowSet schema namespace.
const NSWebRowSet = "http://java.sun.com/xml/ns/jdbc"

// WebRowSetCodec renders results in the JDBC WebRowSet XML dialect the
// paper's Fig. 5 pipeline converts into (properties/metadata/data with
// currentRow/columnValue entries).
type WebRowSetCodec struct{}

// FormatURI identifies the WebRowSet format.
func (WebRowSetCodec) FormatURI() string { return FormatWebRowSet }

// Encode renders the result set as a webRowSet document.
func (c WebRowSetCodec) Encode(rs *sqlengine.ResultSet) ([]byte, error) {
	return c.AppendWindow(nil, rs.Columns, rs.Rows), nil
}

// AppendWindow implements Codec. Like the SQLRowset encoder it
// writes the bytes straight from the values, byte-identical to
// marshalling the equivalent element tree (pinned by test).
func (WebRowSetCodec) AppendWindow(dst []byte, cols []sqlengine.ResultColumn, pages ...[][]sqlengine.Value) []byte {
	// Header: root, properties and metadata tags, ~224 bytes a
	// column-definition; a row is 33 bytes of currentRow tags and 47 of
	// columnValue tags a cell.
	rows, n := countRows(pages), len(cols)
	b := append(slices.Grow(dst, firstWindow(384+224*n, 33+n*(47+16), rows)),
		`<ns0:webRowSet xmlns:ns0="`+NSWebRowSet+`"><ns0:properties>`+
			`<ns0:concurrency>1007</ns0:concurrency>`+
			`<ns0:rowset-type>ResultSet.TYPE_SCROLL_INSENSITIVE</ns0:rowset-type></ns0:properties>`+
			`<ns0:metadata><ns0:column-count>`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `</ns0:column-count>`...)
	for i, c := range effectiveColumns(cols, pages) {
		b = append(b, `<ns0:column-definition><ns0:column-index>`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `</ns0:column-index><ns0:column-name>`...)
		b = appendXMLText(b, c.Name)
		b = append(b, `</ns0:column-name><ns0:column-type-name>`...)
		b = appendXMLText(b, typeName(c.Type))
		b = append(b, `</ns0:column-type-name>`...)
		if c.Table != "" {
			b = append(b, `<ns0:table-name>`...)
			b = appendXMLText(b, c.Table)
			b = append(b, `</ns0:table-name>`...)
		}
		b = append(b, `</ns0:column-definition>`...)
	}
	if rows == 0 {
		return append(b, `</ns0:metadata><ns0:data/></ns0:webRowSet>`...)
	}
	b = append(b, `</ns0:metadata><ns0:data>`...)
	b = appendRows(b, pages, rows, appendWebRowSetRow)
	return append(b, `</ns0:data></ns0:webRowSet>`...)
}

func appendWebRowSetRow(b []byte, row []sqlengine.Value) []byte {
	if len(row) == 0 {
		return append(b, `<ns0:currentRow/>`...)
	}
	b = append(b, `<ns0:currentRow>`...)
	for _, v := range row {
		if v.IsNull() {
			b = append(b, `<ns0:columnValue><ns0:null/></ns0:columnValue>`...)
			continue
		}
		b = append(b, `<ns0:columnValue>`...)
		b = appendCell(b, v, appendXMLText)
		b = append(b, `</ns0:columnValue>`...)
	}
	return append(b, `</ns0:currentRow>`...)
}

// Decode parses a webRowSet document: in one pass over the bytes where
// that suffices, through the element tree otherwise (see decode.go).
func (WebRowSetCodec) Decode(data []byte) (*sqlengine.ResultSet, error) {
	if rs, ok := decodeWebRowSetStream(data); ok {
		return rs, nil
	}
	return decodeViaTree(data, decodeWebRowSetElement)
}

// decodeWebRowSetElement reconstructs a result set from a webRowSet
// element tree.
func decodeWebRowSetElement(root *xmlutil.Element) (*sqlengine.ResultSet, error) {
	if root.Name.Local != "webRowSet" {
		return nil, fmt.Errorf("rowset: root element %s is not webRowSet", root.Name)
	}
	rs := &sqlengine.ResultSet{}
	meta := root.Find(NSWebRowSet, "metadata")
	if meta == nil {
		return nil, fmt.Errorf("rowset: webRowSet missing metadata")
	}
	for _, cd := range meta.FindAll(NSWebRowSet, "column-definition") {
		rs.Columns = append(rs.Columns, sqlengine.ResultColumn{
			Name:  cd.FindText(NSWebRowSet, "column-name"),
			Type:  TypeFromName(cd.FindText(NSWebRowSet, "column-type-name")),
			Table: cd.FindText(NSWebRowSet, "table-name"),
		})
	}
	dataEl := root.Find(NSWebRowSet, "data")
	if dataEl == nil {
		return nil, fmt.Errorf("rowset: webRowSet missing data")
	}
	for _, cr := range dataEl.FindAll(NSWebRowSet, "currentRow") {
		cvs := cr.FindAll(NSWebRowSet, "columnValue")
		if len(cvs) != len(rs.Columns) {
			return nil, fmt.Errorf("rowset: row has %d values for %d columns", len(cvs), len(rs.Columns))
		}
		row := make([]sqlengine.Value, len(cvs))
		for i, cv := range cvs {
			isNull := cv.Find(NSWebRowSet, "null") != nil
			v, err := valueFromText(rs.Columns[i].Type, cv.Text(), isNull)
			if err != nil {
				return nil, fmt.Errorf("rowset: column %s: %w", rs.Columns[i].Name, err)
			}
			row[i] = v
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, nil
}

// --- CSV ---

// CSVCodec renders results as RFC 4180 CSV. The first line carries
// "name:TYPE" headers; NULL is encoded as an empty unquoted field with
// a sentinel, so it survives round trips for VARCHAR columns too.
type CSVCodec struct{}

// nullSentinel marks SQL NULL in CSV output and emptySentinel marks the
// empty string (a row of empty fields would otherwise serialise as a
// blank line, which csv.Reader skips). Literal fields starting with a
// backslash are escaped by doubling it.
const (
	nullSentinel  = `\N`
	emptySentinel = `\E`
)

// FormatURI identifies the CSV format.
func (CSVCodec) FormatURI() string { return FormatCSV }

// Encode renders the result set as CSV with a typed header row.
func (c CSVCodec) Encode(rs *sqlengine.ResultSet) ([]byte, error) {
	return c.AppendWindow(nil, rs.Columns, rs.Rows), nil
}

// AppendWindow implements Codec: the bytes a csv.Writer would
// produce for the same records (pinned by test).
func (CSVCodec) AppendWindow(dst []byte, cols []sqlengine.ResultColumn, pages ...[][]sqlengine.Value) []byte {
	// Header: ~32 bytes of name:type a column; a row is a separator a cell.
	rows, n := countRows(pages), len(cols)
	b := slices.Grow(dst, firstWindow(32*n, n*(1+16), rows))
	for i, c := range effectiveColumns(cols, pages) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, "", c.Name+":"+typeName(c.Type))
	}
	b = append(b, '\n')
	return appendRows(b, pages, rows, appendCSVRow)
}

func appendCSVRow(b []byte, row []sqlengine.Value) []byte {
	for j, v := range row {
		if j > 0 {
			b = append(b, ',')
		}
		if v.IsNull() {
			b = append(b, nullSentinel...)
			continue
		}
		b = appendCell(b, v, appendCSVText)
	}
	return append(b, '\n')
}

// appendCSVText appends a VARCHAR cell: the empty string as its
// sentinel, a leading backslash doubled so that no cell reads as one.
func appendCSVText(dst []byte, s string) []byte {
	switch {
	case s == "":
		return append(dst, emptySentinel...)
	case s[0] == '\\':
		return appendCSVField(dst, `\`, s)
	}
	return appendCSVField(dst, "", s)
}

// appendCSVField appends lead+s as one field under csv.Writer's rules:
// quoted when it holds a comma, a quote or a line break or starts with
// a space, with quotes doubled inside. lead is empty or the escaping
// backslash before an s that starts with one, so looking at s decides
// for both. (The writer also quotes the field `\.`, which is neither a
// header nor, with the backslash doubled, a cell.)
func appendCSVField(dst []byte, lead, s string) []byte {
	r, _ := utf8.DecodeRuneInString(s)
	if !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(r) {
		return append(append(dst, lead...), s...)
	}
	dst = append(append(dst, '"'), lead...)
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return append(append(dst, s...), '"')
		}
		dst = append(append(dst, s[:i]...), `""`...)
		s = s[i+1:]
	}
}

// Decode parses CSV produced by Encode.
func (CSVCodec) Decode(data []byte) (*sqlengine.ResultSet, error) {
	r := csv.NewReader(bytes.NewReader(data))
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("rowset: csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("rowset: csv missing header")
	}
	rs := &sqlengine.ResultSet{}
	for _, h := range records[0] {
		name, tname := h, "VARCHAR"
		if i := strings.LastIndex(h, ":"); i >= 0 {
			name, tname = h[:i], h[i+1:]
		}
		rs.Columns = append(rs.Columns, sqlengine.ResultColumn{Name: name, Type: TypeFromName(tname)})
	}
	for _, rec := range records[1:] {
		if len(rec) != len(rs.Columns) {
			return nil, fmt.Errorf("rowset: csv row has %d fields for %d columns", len(rec), len(rs.Columns))
		}
		row := make([]sqlengine.Value, len(rec))
		for i, f := range rec {
			switch {
			case f == nullSentinel:
				row[i] = sqlengine.Null
			case f == emptySentinel:
				row[i] = sqlengine.NewString("")
			default:
				if strings.HasPrefix(f, `\\`) {
					f = f[1:]
				}
				v, err := valueFromText(rs.Columns[i].Type, f, false)
				if err != nil {
					return nil, fmt.Errorf("rowset: column %s: %w", rs.Columns[i].Name, err)
				}
				row[i] = v
			}
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, nil
}

// windowRange clamps the 1-based WS-DAIR (StartPosition, Count) pair to
// the 0-based half-open range [from, to) of n rows: the GetTuples
// window semantics, which Buffer.Pages resolves every window through. A
// Count of any size, math.MaxInt included, reaches the last row and no
// further.
func windowRange(n, startPosition, count int) (from, to int) {
	from = max(startPosition, 1) - 1
	if from >= n || count <= 0 {
		return 0, 0
	}
	return from, from + min(count, n-from)
}
