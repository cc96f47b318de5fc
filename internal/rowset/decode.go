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

	// slab is the unused tail of the current block of cells; rows are
	// carved from it so a window costs a handful of allocations, not one
	// per row.
	slab []sqlengine.Value

	// text collects the VARCHAR cells — their lengths parked in Value.I
	// — until result turns it into one string and slices every cell from
	// it. Its tail is scratch for text that arrives in pieces.
	text     []byte
	varchars []int // the VARCHAR columns

	rowsAt int // where in the document the first row starts
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
	t := typeFromName(typeName)
	if t == sqlengine.TypeVarchar {
		d.varchars = append(d.varchars, len(d.cols))
	}
	d.cols = append(d.cols, sqlengine.ResultColumn{Name: name, Type: t, Table: table})
}

// newRow carves an empty row of len(d.cols) cells. Blocks grow with
// the row count, so a 20-row reply does not pay for a bulk window.
func (d *streamDecoder) newRow() []sqlengine.Value {
	n := len(d.cols)
	if len(d.slab) < n {
		d.slab = make([]sqlengine.Value, n*min(max(16, len(d.rows)), 4096))
	}
	row := d.slab[:0:n]
	d.slab = d.slab[n:]
	return row
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
		// string(...) of a short cell stays on the stack: strconv copies
		// its argument before putting it in an error.
		i, err := strconv.ParseInt(string(bytes.TrimSpace(text)), 10, 64)
		if err != nil {
			return nil, false
		}
		v.Type, v.I = t, i
	case t == sqlengine.TypeDouble:
		f, err := strconv.ParseFloat(string(bytes.TrimSpace(text)), 64)
		if err != nil {
			return nil, false
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
// of the given name. A cell is NULL by its isNull attribute or, when
// nullChild, by a webRowSet null marker inside it.
func (d *streamDecoder) row(space, local string, nullChild bool) bool {
	if d.rows == nil {
		d.rowsAt = d.tok.Offset()
	}
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
	d.rows = append(d.rows, row)
	if len(d.rows) == sampleRows {
		// Size the row list and the text arena once, taking the rest of
		// the document for rows like these — it is, but for closing tags
		// and an envelope's tail — where appending alone would reallocate
		// its way up through several times the final size. A document that
		// goes on differently costs capacity in proportion to its length.
		more := (d.tok.Size()-d.tok.Offset())/max((d.tok.Offset()-d.rowsAt)/sampleRows, 1) + 1
		d.rows = slices.Grow(d.rows, more)
		d.text = slices.Grow(d.text, len(d.text)/sampleRows*more)
	}
	return true
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
