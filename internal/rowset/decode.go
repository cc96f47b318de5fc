package rowset

import (
	"bytes"
	"slices"
	"strconv"
	"unsafe"

	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// This file holds the one-pass decoders behind SQLRowsetCodec.Decode
// and WebRowSetCodec.Decode: they read a rendering token by token and
// write typed values as they go — no element tree. A 4 096-row window
// is ~16 000 elements; building and walking that tree was most of what
// a consumer paid to pull a rowset.
//
// The tree decoders (DecodeSQLRowsetElement, decodeWebRowSetElement)
// define the formats' semantics, including every error. A one-pass
// decoder handles the shapes whose meaning needs no lookahead and
// reports ok = false for the rest — malformed XML, a cell that does not
// coerce, a wrong column count, rows ahead of their metadata, child
// elements inside a cell — and Decode then takes the tree path, so the
// result and the error text are the tree decoder's by construction
// (decode_test.go fuzzes the equivalence).
//
// Tokens are for finding out what a rendering looks like, not for every
// row of it: a producer repeats the same markup around every row's
// values, and the first row read by tokens whose cells are each one run
// of plain text becomes a template — that row's bytes, cut at the cell
// texts. A following row that repeats the template byte for byte around
// texts with nothing in them to decode is the same tokens in the same
// namespace context (rows are siblings: what is in scope at the start
// of one is in scope at the start of all), so it is read by comparing
// the pieces and taking what lies between them, and the tokenizer is
// moved past it. Any row that departs from that — another prefix, a
// NULL or empty cell, an entity, a comment, white space between tags, a
// text that does not coerce — is left, whole, to the tokenizer, which
// decides what it means as before; the row after it is tried against
// the template again.
//
// A one-pass decoder does not need the rendering to be a document of
// its own: it reads from whatever tokenizer has reached the rendering's
// root start tag. A consumer that expects a dataset inside an envelope
// lends it the envelope's tokenizer (TokenDecoder), and the window is
// tokenized once, where it lies, instead of being scanned to find its
// end, copied out and tokenized again.

// TokenDecoder is implemented by the codecs whose rendering is XML. t
// is a tokenizer standing on the rendering's root start tag;
// DecodeTokens reads through the matching end tag. ok = false is the
// one-pass decoders' "not mine", wherever in the element it came up:
// the caller rewinds t and decodes the element's bytes with Decode.
// Nothing in the result aliases the document t reads.
type TokenDecoder interface {
	DecodeTokens(t *xmlutil.Tokenizer) (rs *sqlengine.ResultSet, ok bool)
}

// streamDecoder is the state the one-pass decoders share: the
// tokenizer and the result set under construction.
type streamDecoder struct {
	tok  *xmlutil.Tokenizer
	cols []sqlengine.ResultColumn
	rows [][]sqlengine.Value

	// slab is the current block of cells, of which used are taken; rows
	// are carved from it so a window costs a handful of allocations, not
	// one per row. (A count, not a shorter slab: a pointer written per
	// row is a write barrier per row while the collector marks.)
	slab []sqlengine.Value
	used int

	// text collects the VARCHAR cells — their lengths parked in Value.I
	// — until result turns it into one string and slices every cell from
	// it. Its tail is scratch for text that arrives in pieces.
	text     []byte
	varchars []int // the VARCHAR columns

	rowsAt int // where in the document the first row starts

	// tmpl is the row template: the bytes of the first row that was read
	// by tokens with every cell one run of plain text, cut at the cell
	// texts — a piece before each cell and one after the last, the first
	// starting at the row's '<', the last ending with its end tag. Until
	// there is one, spans collects where the texts of the row being read
	// lie. matched counts the rows read by the template.
	tmpl    [][]byte
	spans   []int
	matched int
}

// next returns the next token, or TokenEOF when the document is
// malformed — which no caller expects where it asks, so malformed input
// always ends in ok = false.
func (d *streamDecoder) next() xmlutil.TokenKind {
	kind, err := d.tok.Next()
	if err != nil {
		return xmlutil.TokenEOF
	}
	return kind
}

// is reports whether the current start tag has the given name.
func (d *streamDecoder) is(space, local string) bool {
	n := d.tok.Name()
	return n.Local == local && n.Space == space
}

func (d *streamDecoder) skip() bool { return d.tok.Skip() == nil }

// leafText reads the rest of the current element, which must hold
// nothing but text, and returns that text.
func (d *streamDecoder) leafText() (string, bool) {
	mark := len(d.text)
	for {
		switch d.next() {
		case xmlutil.TokenText:
			d.text = append(d.text, d.tok.Text()...)
		case xmlutil.TokenEnd:
			text := string(d.text[mark:])
			d.text = d.text[:mark]
			return text, true
		default:
			return "", false
		}
	}
}

func (d *streamDecoder) addColumn(name, typeName, table string) {
	t := TypeFromName(typeName)
	if t == sqlengine.TypeVarchar {
		d.varchars = append(d.varchars, len(d.cols))
	}
	d.cols = append(d.cols, sqlengine.ResultColumn{Name: name, Type: t, Table: table})
}

// newRow returns an empty row over the next len(d.cols) cells of the
// slab, which are zero; addRow takes them. Blocks grow with the row
// count, so a 20-row reply does not pay for a bulk window.
func (d *streamDecoder) newRow() []sqlengine.Value {
	n := len(d.cols)
	if len(d.slab)-d.used < n {
		d.slab, d.used = make([]sqlengine.Value, n*min(max(16, len(d.rows)), 4096)), 0
	}
	return d.slab[d.used : d.used : d.used+n]
}

// addRow adds the row newRow handed out, now filled, which ends at off
// in the document.
func (d *streamDecoder) addRow(row []sqlengine.Value, off int) {
	d.used += len(row)
	d.rows = append(d.rows, row)
	if len(d.rows) == sampleRows {
		// Size the row list and the text arena once, taking the rest of
		// the document for rows like these — it is, but for closing tags
		// and an envelope's tail — where appending alone would reallocate
		// its way up through several times the final size. A document that
		// goes on differently costs capacity in proportion to its length.
		more := (d.tok.Size()-off)/max((off-d.rowsAt)/sampleRows, 1) + 1
		d.rows = slices.Grow(d.rows, more)
		d.text = slices.Grow(d.text, len(d.text)/sampleRows*more)
	}
}

// cell reads the rest of the current cell element and appends its
// value to row. A child element fails the read — the tree decoders'
// rules for mixed content need the whole element — except that, where
// nullChild, a webRowSet null marker is skipped and makes the cell NULL.
func (d *streamDecoder) cell(row []sqlengine.Value, isNull, nullChild bool) ([]sqlengine.Value, bool) {
	mark := len(d.text)
	for {
		switch d.next() {
		case xmlutil.TokenText:
			text := d.tok.Text()
			if len(d.text) == mark && d.tok.PeekEnd() {
				// Nearly every cell: one run of text, coerced where the
				// tokenizer found it.
				if off := d.tok.TextOffset(); d.tmpl == nil && !isNull && off >= 0 {
					d.spans = append(d.spans, off, off+len(text))
				}
				row, ok := d.appendValue(row, text, isNull)
				return row, ok && d.next() == xmlutil.TokenEnd
			}
			d.text = append(d.text, text...)
		case xmlutil.TokenEnd:
			text := d.text[mark:]
			d.text = d.text[:mark]
			return d.appendValue(row, text, isNull)
		case xmlutil.TokenStart:
			if !nullChild || !d.is(NSWebRowSet, "null") || !d.skip() {
				return nil, false
			}
			isNull = true
		default:
			return nil, false
		}
	}
}

// appendValue coerces a cell's text to the type of the row's next
// column, exactly as valueFromText does. The cell is filled in place,
// field by field: the slab is zeroed, and a whole-Value store would
// cost a write barrier for pointers that are nil anyway.
func (d *streamDecoder) appendValue(row []sqlengine.Value, text []byte, isNull bool) ([]sqlengine.Value, bool) {
	if len(row) == len(d.cols) {
		return nil, false
	}
	row = row[:len(row)+1]
	v := &row[len(row)-1]
	switch t := d.cols[len(row)-1].Type; {
	case isNull:
	case t == sqlengine.TypeVarchar:
		d.text = append(d.text, text...) // where finish looks for it
		v.Type, v.I = t, int64(len(text))
	case t == sqlengine.TypeInteger || t == sqlengine.TypeBigint:
		i, plain := plainInt(text)
		if !plain {
			// string(...) of a short cell stays on the stack: strconv
			// copies its argument before putting it in an error.
			var err error
			if i, err = strconv.ParseInt(string(bytes.TrimSpace(text)), 10, 64); err != nil {
				return nil, false
			}
		}
		v.Type, v.I = t, i
	case t == sqlengine.TypeDouble:
		f, plain := plainFloat(text)
		if !plain {
			var err error
			if f, err = strconv.ParseFloat(string(bytes.TrimSpace(text)), 64); err != nil {
				return nil, false
			}
		}
		v.Type, v.F = t, f
	default:
		var err error
		if *v, err = sqlengine.NewString(string(text)).Coerce(t); err != nil {
			return nil, false
		}
	}
	return row, true
}

// plainInt reads text that is an optional '-' and up to eighteen digits
// — nearly every integer cell, and too few digits to overflow.
func plainInt(text []byte) (i int64, ok bool) {
	neg := len(text) > 0 && text[0] == '-'
	if neg {
		text = text[1:]
	}
	if len(text) == 0 || len(text) > 18 {
		return 0, false
	}
	for _, c := range text {
		if c -= '0'; c > 9 {
			return 0, false
		}
		i = i*10 + int64(c)
	}
	if neg {
		i = -i
	}
	return i, true
}

// plainFloat reads text that is an optional '-' and at most fifteen
// digits, with at most one '.' between two of them — nearly every DOUBLE
// cell — as m / 10^k: m, below 10^15, and 10^k, k below 15, are exact
// doubles, so the division rounds the decimal's value once, to nearest,
// which is what ParseFloat returns. A '-' before a zero makes -0, as it
// does there.
func plainFloat(text []byte) (f float64, ok bool) {
	neg := len(text) > 0 && text[0] == '-'
	if neg {
		text = text[1:]
	}
	if len(text) == 0 || len(text) > 16 {
		return 0, false
	}
	var m uint64
	point := -1
	for i, c := range text {
		if c == '.' && point < 0 && i > 0 && i < len(text)-1 {
			point = i
			continue
		}
		if c -= '0'; c > 9 {
			return 0, false
		}
		m = m*10 + uint64(c)
	}
	k := 0
	if point >= 0 {
		k = len(text) - 1 - point
	} else if len(text) > 15 {
		return 0, false
	}
	if f = float64(m) / pow10f[k]; neg {
		f = -f
	}
	return f, true
}

var pow10f = [15]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14}

// decodeDocument runs a one-pass decoder over data as a document of its
// own: root reads the root element, after which the document must end.
func decodeDocument(data []byte, root func(*streamDecoder) bool) (*sqlengine.ResultSet, bool) {
	var tok xmlutil.Tokenizer
	tok.Reset(data)
	d := streamDecoder{tok: &tok}
	if d.next() != xmlutil.TokenStart || !root(&d) {
		return nil, false
	}
	if kind, err := tok.Next(); err != nil || kind != xmlutil.TokenEOF {
		return nil, false
	}
	return d.result(), true
}

// decodeTokens runs a one-pass decoder over the element t stands on.
func decodeTokens(t *xmlutil.Tokenizer, root func(*streamDecoder) bool) (*sqlengine.ResultSet, bool) {
	d := streamDecoder{tok: t}
	if !root(&d) {
		return nil, false
	}
	return d.result(), true
}

// result hands out the result set, giving every VARCHAR cell its slice
// of the one string the window's text becomes: the arena itself, which
// is not written again.
func (d *streamDecoder) result() *sqlengine.ResultSet {
	if len(d.varchars) > 0 {
		text := unsafe.String(unsafe.SliceData(d.text), len(d.text))
		for _, row := range d.rows {
			for _, c := range d.varchars {
				if v := &row[c]; v.Type == sqlengine.TypeVarchar { // not NULL
					n := int(v.I)
					v.I, v.S = 0, text[:n]
					text = text[n:]
				}
			}
		}
	}
	return &sqlengine.ResultSet{Columns: d.cols, Rows: d.rows}
}

// children reads the rest of the current element, calling each for
// every child element with the given name and skipping everything else
// — which is all the tree decoders' Find and FindAll look at.
func (d *streamDecoder) children(space, local string, each func() bool) bool {
	// Names are interned, so once the wanted one has been seen, testing
	// for it again compares pointers, not namespace URIs.
	var seen xmlutil.Name
	for {
		switch d.next() {
		case xmlutil.TokenText:
		case xmlutil.TokenEnd:
			return true
		case xmlutil.TokenStart:
			if n := d.tok.Name(); n == seen || n.Local == local && n.Space == space {
				seen = n
				if !each() {
					return false
				}
			} else if !d.skip() {
				return false
			}
		default:
			return false
		}
	}
}

// row decodes the current row element, whose cells are its children
// of the given name, and then the rows after it for as long as they
// repeat the template. A cell is NULL by its isNull attribute or, when
// nullChild, by a webRowSet null marker inside it.
func (d *streamDecoder) row(space, local string, nullChild bool) bool {
	at := d.tok.TagOffset()
	if d.rows == nil {
		d.rowsAt = at
	}
	d.spans = d.spans[:0]
	row := d.newRow()
	ok := d.children(space, local, func() bool {
		isNull := false
		if !nullChild {
			null, _ := d.tok.Attr("", "isNull")
			isNull = string(null) == "true"
		}
		var ok bool
		row, ok = d.cell(row, isNull, nullChild)
		return ok
	})
	if !ok || len(row) != len(d.cols) {
		return false
	}
	data, end := d.tok.Bytes(), d.tok.Offset()
	d.addRow(row, end)
	if d.tmpl == nil && len(d.spans) == 2*len(d.cols) {
		d.tmpl = make([][]byte, 0, len(d.cols)+1)
		for i := 0; i < len(d.spans); i += 2 {
			d.tmpl, at = append(d.tmpl, data[at:d.spans[i]]), d.spans[i+1]
		}
		d.tmpl = append(d.tmpl, data[at:end])
	}
	if d.tmpl != nil {
		d.tok.Seek(d.templateRows(data, end))
	}
	return true
}

// templateRows reads the rows that start at data[pos] and repeat the
// template, and returns where the first thing that does not stands. A
// cell text counts if the tokenizer would hand it over as it stands —
// not empty, nothing in it to decode — and coerces; a row that departs
// from that anywhere is left, whole, to the tokenizer.
func (d *streamDecoder) templateRows(data []byte, pos int) int {
	for bytes.HasPrefix(data[pos:], d.tmpl[0]) {
		row, mark, p := d.newRow(), len(d.text), pos+len(d.tmpl[0])
		ok := true
		for _, piece := range d.tmpl[1:] { // a cell's text, then the piece after it
			end, clean := xmlutil.ScanText(data, p)
			if ok = clean && end > p; !ok {
				break
			}
			if row, ok = d.appendValue(row, data[p:end], false); !ok {
				break
			}
			if ok = bytes.HasPrefix(data[end:], piece); !ok {
				break
			}
			p = end + len(piece)
		}
		if !ok {
			clear(d.slab[d.used : d.used+len(d.cols)]) // the cells newRow lent, zero again
			d.text = d.text[:mark]
			break
		}
		pos = p
		d.addRow(row, pos)
		d.matched++
	}
	return pos
}

// decodeSQLRowsetStream is the one-pass DecodeSQLRowsetElement.
func decodeSQLRowsetStream(data []byte) (*sqlengine.ResultSet, bool) {
	return decodeDocument(data, (*streamDecoder).sqlRowset)
}

// DecodeTokens implements TokenDecoder.
func (SQLRowsetCodec) DecodeTokens(t *xmlutil.Tokenizer) (*sqlengine.ResultSet, bool) {
	return decodeTokens(t, (*streamDecoder).sqlRowset)
}

// sqlRowset reads an SQLRowset from its root start tag through its end
// tag.
func (d *streamDecoder) sqlRowset() bool {
	if d.tok.Name().Local != "SQLRowset" {
		return false
	}
	for {
		switch d.next() {
		case xmlutil.TokenText:
		case xmlutil.TokenEnd:
			return d.cols != nil
		case xmlutil.TokenStart:
			var ok bool
			switch {
			case d.is(NSDAIR, "Metadata") && d.cols == nil:
				// The first Metadata counts. One without columns leaves
				// the tree decoder to say what rows may then hold.
				ok = d.children(NSDAIR, "Column", d.sqlRowsetColumn) && d.cols != nil
			case d.is(NSDAIR, "Row"):
				ok = d.cols != nil && d.row(NSDAIR, "Value", false)
			default:
				ok = d.skip()
			}
			if !ok {
				return false
			}
		default:
			return false
		}
	}
}

func (d *streamDecoder) sqlRowsetColumn() bool {
	name, _ := d.tok.Attr("", "name")
	typeName, _ := d.tok.Attr("", "type")
	table, _ := d.tok.Attr("", "table")
	d.addColumn(string(name), string(typeName), string(table))
	return d.skip()
}

// decodeWebRowSetStream is the one-pass decodeWebRowSetElement.
func decodeWebRowSetStream(data []byte) (*sqlengine.ResultSet, bool) {
	return decodeDocument(data, (*streamDecoder).webRowSet)
}

// DecodeTokens implements TokenDecoder.
func (WebRowSetCodec) DecodeTokens(t *xmlutil.Tokenizer) (*sqlengine.ResultSet, bool) {
	return decodeTokens(t, (*streamDecoder).webRowSet)
}

// webRowSet reads a webRowSet from its root start tag through its end
// tag.
func (d *streamDecoder) webRowSet() bool {
	if d.tok.Name().Local != "webRowSet" {
		return false
	}
	haveData := false
	for {
		switch d.next() {
		case xmlutil.TokenText:
		case xmlutil.TokenEnd:
			return haveData
		case xmlutil.TokenStart:
			var ok bool
			switch {
			case d.is(NSWebRowSet, "metadata") && d.cols == nil:
				ok = d.children(NSWebRowSet, "column-definition", d.webRowSetColumn) && d.cols != nil
			case d.is(NSWebRowSet, "data") && !haveData:
				haveData = true
				ok = d.cols != nil && d.children(NSWebRowSet, "currentRow", func() bool {
					return d.row(NSWebRowSet, "columnValue", true)
				})
			default:
				ok = d.skip()
			}
			if !ok {
				return false
			}
		default:
			return false
		}
	}
}

// webRowSetColumn decodes one column-definition. As with FindText, the
// first child of each name counts.
func (d *streamDecoder) webRowSetColumn() bool {
	fields := [...]string{"column-name", "column-type-name", "table-name"}
	var value [len(fields)]string
	var seen [len(fields)]bool
	for {
		switch d.next() {
		case xmlutil.TokenText:
		case xmlutil.TokenEnd:
			d.addColumn(value[0], value[1], value[2])
			return true
		case xmlutil.TokenStart:
			i := -1
			if n := d.tok.Name(); n.Space == NSWebRowSet {
				i = slices.Index(fields[:], n.Local)
			}
			if i < 0 || seen[i] {
				if !d.skip() {
					return false
				}
				continue
			}
			seen[i] = true
			var ok bool
			if value[i], ok = d.leafText(); !ok {
				return false
			}
		default:
			return false
		}
	}
}
