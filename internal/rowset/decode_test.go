package rowset

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// The one-pass decoders are held to the tree decoders: for any input,
// Decode(b) must equal the tree decode of ParseBytes(b) — the same
// result set, or an error on exactly the same inputs.

type decodeFuncs struct {
	codec  Codec
	stream func([]byte) (*sqlengine.ResultSet, bool)
	tree   func(*xmlutil.Element) (*sqlengine.ResultSet, error)
	root   func(*streamDecoder) bool
}

var (
	sqlRowsetDecode = decodeFuncs{SQLRowsetCodec{}, decodeSQLRowsetStream, DecodeSQLRowsetElement, (*streamDecoder).sqlRowset}
	webRowSetDecode = decodeFuncs{WebRowSetCodec{}, decodeWebRowSetStream, decodeWebRowSetElement, (*streamDecoder).webRowSet}
)

func (f decodeFuncs) treeDecode(data []byte) (*sqlengine.ResultSet, error) {
	return decodeViaTree(data, f.tree)
}

// identical is stricter than the round-trip tests' equalValue: every
// field of every cell, floats by bit pattern (NaN, -0), and nil-ness of
// the slices, since the two decoders must be indistinguishable.
func identical(a, b *sqlengine.ResultSet) error {
	if (a.Columns == nil) != (b.Columns == nil) || len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("columns: %v vs %v", a.Columns, b.Columns)
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d: %+v vs %+v", i, a.Columns[i], b.Columns[i])
		}
	}
	if (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("rows: %d (nil %v) vs %d (nil %v)", len(a.Rows), a.Rows == nil, len(b.Rows), b.Rows == nil)
	}
	for r := range a.Rows {
		if (a.Rows[r] == nil) != (b.Rows[r] == nil) || len(a.Rows[r]) != len(b.Rows[r]) {
			return fmt.Errorf("row %d: %v vs %v", r, a.Rows[r], b.Rows[r])
		}
		for c := range a.Rows[r] {
			x, y := a.Rows[r][c], b.Rows[r][c]
			if x.Type != y.Type || x.I != y.I || x.S != y.S || x.B != y.B ||
				math.Float64bits(x.F) != math.Float64bits(y.F) || !x.Time().Equal(y.Time()) {
				return fmt.Errorf("cell [%d][%d]: %+v vs %+v", r, c, x, y)
			}
		}
	}
	return nil
}

// check asserts the equivalence on one input and reports whether the
// one-pass decoder took it.
func (f decodeFuncs) check(t *testing.T, data []byte) (streamed bool) {
	t.Helper()
	want, wantErr := f.treeDecode(data)
	got, gotErr := f.codec.Decode(data)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("Decode err = %v, tree decode err = %v\ninput: %q", gotErr, wantErr, data)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("Decode err = %q, tree decode err = %q\ninput: %q", gotErr, wantErr, data)
		}
		if _, ok := f.stream(data); ok {
			t.Fatalf("one-pass decoder accepted what the tree decoder rejects (%v)\ninput: %q", wantErr, data)
		}
		return false
	}
	if err := identical(got, want); err != nil {
		t.Fatalf("Decode differs from tree decode: %v\ninput: %q", err, data)
	}
	rs, ok := f.stream(data)
	if ok {
		if err := identical(rs, want); err != nil {
			t.Fatalf("one-pass decode differs from tree decode: %v\ninput: %q", err, data)
		}
	}
	return ok
}

// encodedCorpus renders the property tests' generated result sets
// (NULL / empty / non-ASCII / backslash / 8 KB cells, every type).
func encodedCorpus(t testing.TB, c Codec, seeds int) [][]byte {
	var out [][]byte
	for seed := int64(0); seed < int64(seeds); seed++ {
		data, err := c.Encode(randomResultSet(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, data)
	}
	return out
}

const (
	sqlOpen = `<r:SQLRowset xmlns:r="` + NSDAIR + `">`
	sqlMeta = `<r:Metadata><r:Column name="id" type="INTEGER"/><r:Column name="s" type="VARCHAR" table="t"/></r:Metadata>`
	webOpen = `<webRowSet xmlns="` + NSWebRowSet + `">`
	webMeta = `<metadata><column-count>2</column-count>` +
		`<column-definition><column-index>1</column-index><column-name>id</column-name><column-type-name>INTEGER</column-type-name></column-definition>` +
		`<column-definition><column-name>s</column-name><column-type-name>VARCHAR</column-type-name><table-name>t</table-name></column-definition></metadata>`
)

// Handwritten shapes: the ones the one-pass decoders take (true) and
// the ones they must leave to the tree (false), errors included.
type shape struct {
	doc      string
	streamed bool
}

var sqlRowsetShapes = []shape{
	{sqlOpen + sqlMeta + `<r:Row><r:Value>1</r:Value><r:Value>a</r:Value></r:Row></r:SQLRowset>`, true},
	{sqlOpen + sqlMeta + `</r:SQLRowset>`, true},
	// entity, character-reference and CDATA cells; text split by a comment
	{sqlOpen + sqlMeta + `<r:Row><r:Value>&#49;2</r:Value><r:Value>a &amp; b &lt;c&gt;<![CDATA[<raw> &amp; ]]>tail<!-- c -->end</r:Value></r:Row></r:SQLRowset>`, true},
	// line ends normalise; numeric cells trim, text cells do not
	{sqlOpen + sqlMeta + "<r:Row>\r\n<r:Value> 7\r\n</r:Value><r:Value> one\r\ntwo\rthree </r:Value>\r\n</r:Row></r:SQLRowset>", true},
	// NULLs: the attribute wins over any text, and must read exactly "true"
	{sqlOpen + sqlMeta + `<r:Row><r:Value isNull="true">junk</r:Value><r:Value isNull="true"/></r:Row><r:Row><r:Value isNull="false">3</r:Value><r:Value isNull="TRUE">x</r:Value></r:Row></r:SQLRowset>`, true},
	// empty cells, self-closing and not
	{sqlOpen + sqlMeta + `<r:Row><r:Value>0</r:Value><r:Value/></r:Row><r:Row><r:Value>0</r:Value><r:Value></r:Value></r:Row></r:SQLRowset>`, true},
	// unknown type name decays to VARCHAR; missing attributes read ""
	{sqlOpen + `<r:Metadata><r:Column name="x" type="GEOMETRY"/><r:Column/></r:Metadata><r:Row><r:Value>p</r:Value><r:Value>q</r:Value></r:Row></r:SQLRowset>`, true},
	// every coercion: boolean spellings, timestamp layouts, float forms
	{sqlOpen + `<r:Metadata><r:Column name="b" type="BOOLEAN"/><r:Column name="t" type="TIMESTAMP"/><r:Column name="d" type="DOUBLE"/><r:Column name="n" type="BIGINT"/></r:Metadata>` +
		`<r:Row><r:Value> TRUE </r:Value><r:Value>2024-02-29 12:00:00</r:Value><r:Value>-0</r:Value><r:Value>-9223372036854775808</r:Value></r:Row>` +
		`<r:Row><r:Value>f</r:Value><r:Value>2024-02-29T12:00:00.5Z</r:Value><r:Value>NaN</r:Value><r:Value>+5</r:Value></r:Row>` +
		`<r:Row><r:Value>0</r:Value><r:Value> 2024-02-29 </r:Value><r:Value>1e-3</r:Value><r:Value>007</r:Value></r:Row></r:SQLRowset>`, true},
	// what the tree decoder ignores: foreign elements and attributes,
	// text between elements, a second Metadata, content inside Column
	{sqlOpen + `junk<x:note xmlns:x="urn:x"><r:Row/></x:note>` + `<r:Metadata q="1"><r:Column name="id" type="INTEGER" x:y="z">text<z/></r:Column><other/></r:Metadata>` +
		`<r:Row>stray<r:Value>1</r:Value><skip><r:Value>9</r:Value></skip></r:Row><r:Metadata><r:Column name="late" type="VARCHAR"/></r:Metadata></r:SQLRowset>`, true},
	// any root namespace, default-namespace children, prolog and trailer
	{`<?xml version="1.0"?><!-- c --><SQLRowset xmlns="` + NSDAIR + `"><Metadata><Column name="id" type="INT"/></Metadata><Row><Value>1</Value></Row></SQLRowset><!-- end -->` + "\n", true},
	{`<x:SQLRowset xmlns:x="urn:other" xmlns:r="` + NSDAIR + `">` + sqlMeta + `</x:SQLRowset>`, true},
	// a long cell, beyond any small-string path
	{sqlOpen + sqlMeta + `<r:Row><r:Value>` + strings.Repeat(" ", 40) + `12` + `</r:Value><r:Value>` + strings.Repeat("数", 4096) + `</r:Value></r:Row></r:SQLRowset>`, true},

	// left to the tree: same answer, by the other path
	{sqlOpen + `<r:Row><r:Value>1</r:Value><r:Value>a</r:Value></r:Row>` + sqlMeta + `</r:SQLRowset>`, false},                            // rows ahead of metadata
	{sqlOpen + sqlMeta + `<r:Row><r:Value> <b>1</b> </r:Value><r:Value>a<i>b</i> c</r:Value></r:Row></r:SQLRowset>`, false},              // mixed content in a cell
	{sqlOpen + `<r:Metadata/><r:Row/></r:SQLRowset>`, false},                                                                             // no columns
	{sqlOpen + `<r:Metadata/><r:Metadata><r:Column name="id" type="INT"/></r:Metadata><r:Row/></r:SQLRowset>`, false},                    // first Metadata counts
	{sqlOpen + sqlMeta + `<r:Row><r:Value>1</r:Value></r:Row></r:SQLRowset>`, false},                                                     // too few values
	{sqlOpen + sqlMeta + `<r:Row><r:Value>1</r:Value><r:Value>a</r:Value><r:Value>b</r:Value></r:Row></r:SQLRowset>`, false},             // too many
	{sqlOpen + sqlMeta + `<r:Row><r:Value>one</r:Value><r:Value>a</r:Value></r:Row></r:SQLRowset>`, false},                               // does not coerce
	{sqlOpen + sqlMeta + `<r:Row><r:Value></r:Value><r:Value>a</r:Value></r:Row></r:SQLRowset>`, false},                                  // empty INTEGER
	{sqlOpen + sqlMeta + `<r:Row><r:Value>99999999999999999999</r:Value><r:Value>a</r:Value></r:Row></r:SQLRowset>`, false},              // out of range
	{sqlOpen + `<r:Metadata><r:Column name="b" type="BOOLEAN"/></r:Metadata><r:Row><r:Value>yes</r:Value></r:Row></r:SQLRowset>`, false}, // bad boolean
	{sqlOpen + `</r:SQLRowset>`, false},                                                                        // no Metadata
	{`<r:Rowset xmlns:r="` + NSDAIR + `">` + sqlMeta + `</r:Rowset>`, false},                                   // wrong root
	{sqlOpen + sqlMeta + `<r:Row><r:Value>1</r:Value><r:Value>&bogus;</r:Value></r:Row></r:SQLRowset>`, false}, // bad entity
	{sqlOpen + sqlMeta + `<r:Row><r:Value>1</r:Value><r:Value>a</r:Value></r:Row>`, false},                     // truncated
	{sqlOpen + sqlMeta + `</r:SQLRowset><again/>`, false},                                                      // second root
	{sqlOpen + sqlMeta + `<r:Row><r:Value>1</r:Value><r:Value>a</r:Row></r:Value></r:SQLRowset>`, false},       // mismatched tags
	{``, false},
}

var webRowSetShapes = []shape{
	{webOpen + `<properties><concurrency>1007</concurrency></properties>` + webMeta + `<data><currentRow><columnValue>1</columnValue><columnValue>a</columnValue></currentRow></data></webRowSet>`, true},
	{webOpen + webMeta + `<data/></webRowSet>`, true},
	// NULL markers, with text around them or content inside them
	{webOpen + webMeta + `<data><currentRow><columnValue><null/></columnValue><columnValue> <null>x<y/></null> text</columnValue></currentRow></data></webRowSet>`, true},
	// an isNull attribute means nothing here
	{webOpen + webMeta + `<data><currentRow><columnValue isNull="true">4</columnValue><columnValue isNull="true">v</columnValue></currentRow></data></webRowSet>`, true},
	// entities, CDATA, line ends, trimming of numeric cells only
	{webOpen + webMeta + "<data>\r\n<currentRow><columnValue> &#55;\r\n</columnValue><columnValue> a &amp; <![CDATA[<b>]]>\r\n</columnValue></currentRow></data></webRowSet>", true},
	// first column-name counts; foreign elements everywhere; second data and metadata ignored
	{webOpen + `x<metadata>y<column-definition><column-name>id</column-name><column-name>other</column-name><column-type-name>BIGINT</column-type-name><f:x xmlns:f="urn:f"><column-name>deep</column-name></f:x></column-definition><z/></metadata>` +
		`<data><other><currentRow/></other><currentRow>t<columnValue>5</columnValue><w><columnValue>6</columnValue></w></currentRow></data>` +
		`<data><currentRow/></data><metadata/></webRowSet>`, true},
	// unknown type name, missing names
	{webOpen + `<metadata><column-definition><column-type-name>BLOB</column-type-name></column-definition></metadata><data><currentRow><columnValue>v</columnValue></currentRow></data></webRowSet>`, true},
	{`<w:webRowSet xmlns:w="urn:other" xmlns="` + NSWebRowSet + `">` + webMeta + `<data/></w:webRowSet>`, true},

	{webOpen + `<data><currentRow><columnValue>1</columnValue><columnValue>a</columnValue></currentRow></data>` + webMeta + `</webRowSet>`, false},   // data ahead of metadata
	{webOpen + webMeta + `<data><currentRow><columnValue><b>1</b></columnValue><columnValue>a</columnValue></currentRow></data></webRowSet>`, false}, // element in a cell
	{webOpen + `<metadata><column-definition><column-name>i<b>d</b></column-name><column-type-name>INT</column-type-name></column-definition></metadata><data/></webRowSet>`, false},
	{webOpen + `<metadata/><data><currentRow/></data></webRowSet>`, false},
	{webOpen + webMeta + `<data><currentRow><columnValue>1</columnValue></currentRow></data></webRowSet>`, false},
	{webOpen + webMeta + `<data><currentRow><columnValue>x</columnValue><columnValue>a</columnValue></currentRow></data></webRowSet>`, false},
	{webOpen + webMeta + `</webRowSet>`, false},             // no data
	{webOpen + `<data/></webRowSet>`, false},                // no metadata
	{`<rowSet xmlns="` + NSWebRowSet + `"/>`, false},        // wrong root
	{webOpen + webMeta + `<data><currentRow>`, false},       // truncated
	{webOpen + webMeta + `<data/></webRowSet>junk<`, false}, // trailing markup
}

// A window's rows after the first are read against a template of the
// first (decode.go). These windows leave it part-way — a later row that
// is not the template's bytes around plain text — and go on: the
// tokenizer must take exactly that row, whatever it holds, and the rows
// after it must come out as if nothing had happened.
type dialect struct {
	open, close       string // around the rows, metadata (INTEGER id, VARCHAR s) included
	rowOpen, rowClose string
	cellOpen, cellEnd string
	null              string
	aliasRow          string // a row under another prefix for the same namespace: %s, %s are its texts
	foreignRow        string // the row's name in another namespace: not a row
}

var (
	sqlDialect = dialect{sqlOpen + sqlMeta, `</r:SQLRowset>`, `<r:Row>`, `</r:Row>`, `<r:Value>`, `</r:Value>`, `<r:Value isNull="true"/>`,
		`<q:Row xmlns:q="` + NSDAIR + `"><q:Value>%s</q:Value><q:Value>%s</q:Value></q:Row>`,
		`<r:Row xmlns:r="urn:other"><r:Value>%s</r:Value><r:Value>%s</r:Value></r:Row>`}
	webDialect = dialect{webOpen + webMeta + `<data>`, `</data></webRowSet>`, `<currentRow>`, `</currentRow>`, `<columnValue>`, `</columnValue>`, `<columnValue><null/></columnValue>`,
		`<w:currentRow xmlns:w="` + NSWebRowSet + `"><w:columnValue>%s</w:columnValue><w:columnValue>%s</w:columnValue></w:currentRow>`,
		`<currentRow xmlns="urn:other"><columnValue>%s</columnValue><columnValue>%s</columnValue></currentRow>`}
)

func (d dialect) cell(text string) string { return d.cellOpen + text + d.cellEnd }
func (d dialect) row(cells ...string) string {
	return d.rowOpen + strings.Join(cells, "") + d.rowClose
}
func (d dialect) plain(i int) string {
	return d.row(d.cell(fmt.Sprint(i)), d.cell(fmt.Sprintf("v%d", i)))
}
func (d dialect) doc(rows ...string) string { return d.open + strings.Join(rows, "") + d.close }

// around puts a row between two template rows before it and two after.
func (d dialect) around(row string) string {
	return d.doc(d.plain(1), d.plain(2), row, d.plain(4), d.plain(5))
}

func (d dialect) templateShapes() []shape {
	id, text := d.cell("3"), d.cell("c")
	shapes := []shape{
		{d.doc(d.plain(1)), true}, // a one-row window: a template nobody uses
		{d.doc(d.plain(1), d.plain(2), d.plain(3)), true},
		{d.around(d.row(id, d.cell("a &amp; b &lt;"))), true},
		{d.around(d.row(d.cell("&#51;"), text)), true},
		{d.around(d.row(id, d.cell("<![CDATA[x<y]]>"))), true},
		{d.around(d.row(d.cell("3<!-- c -->"), text) + "<!-- between rows -->"), true},
		{d.around(d.row(id, d.null)), true},
		{d.around(d.row(d.null, d.null) + d.row(d.null, text)), true},
		{d.doc(d.row(d.null, text), d.plain(2), d.plain(3), d.plain(4)), true}, // learnt from the second row
		{d.doc(d.plain(1), "\n", d.plain(2), " ", d.row(" ", id, "\n", text), d.plain(4)), true},
		{d.around(fmt.Sprintf(d.aliasRow, "3", "c")), true},
		{d.around(fmt.Sprintf(d.foreignRow, "3", "c")), true},
		{d.doc(fmt.Sprintf(d.aliasRow, "1", "a"), fmt.Sprintf(d.aliasRow, "2", "b"), d.plain(3), d.plain(4), fmt.Sprintf(d.aliasRow, "5", "e")), true},
		{d.around(d.row(id, d.cell(""))), true},
		{d.around(d.row(id, strings.Replace(d.cellOpen, ">", "/>", 1))), true},
		{d.around(d.row(d.cell(""), text)), false}, // an empty INTEGER
		{d.around(d.row(id)), false},               // a cell short
		{d.around(d.row(id, text, text)), false},   // a cell over
		{d.around(d.row(id, d.cell("a\rb\r\nc"))), true},
		{d.around(d.row(id, d.cell("a>b]]>\x00\xff"))), true},
		{d.around(d.row(d.cell(" 3 "), text) + d.row(d.cell("+3"), text) + d.row(d.cell("003"), text) + d.row(d.cell("-3"), text)), true},
		{d.around(d.row(d.cell("-9223372036854775808"), text) + d.row(d.cell("999999999999999999"), text)), true},
		{d.around(d.row(d.cell("9223372036854775808"), text)), false},
		{d.around(d.row(d.cell("x"), text)), false},
		{d.around(d.row(d.cell("-"), text)), false},
		{d.around(d.row(d.cell("3.0"), text)), false},
		{d.around(d.row(id, d.cell("&bogus;"))), false},
		{d.around(d.row(id, d.cell("<b>c</b>"))), false},
	}
	whole := d.around(d.plain(3))
	for _, cut := range []string{d.plain(3), d.cell("v4"), "v5", d.close} { // truncated in a later row
		shapes = append(shapes, shape{whole[:strings.Index(whole, cut)+len(cut)-1], false})
	}
	return shapes
}

// Numeric cells the hand-written readers take, and the ones they must
// leave to strconv, in rows read by the template.
var sqlNumberShapes = func() []shape {
	open := sqlOpen + `<r:Metadata><r:Column name="d" type="DOUBLE"/><r:Column name="n" type="BIGINT"/></r:Metadata>`
	row := func(d, n string) string { return sqlDialect.row(sqlDialect.cell(d), sqlDialect.cell(n)) }
	var rows []string
	for _, d := range []string{"0.25", "12499.75", "-0", "-0.0", "0", "5", "5.", ".5", "1e3", "1E-3", "NaN", "-Inf", " 1.5 ", "+1.5",
		"123456789012345", "1234567890123456", "999999999999999.9", "0.1234567890123456", "0.12345678901234567", "12345678901234.5",
		"0.000000000000001", "0.1", "0.3", "2.675", "1.0000000000000002", "0x1p-2", "1_0"} {
		rows = append(rows, row(d, "1"))
	}
	return []shape{
		{open + strings.Join(rows, "") + `</r:SQLRowset>`, true},
		{open + row("1.5", "1") + row("1.2.3", "1") + `</r:SQLRowset>`, false},
		{open + row("1.5", "1") + row("1.5", "1.5") + `</r:SQLRowset>`, false},
	}
}()

var (
	allSQLRowsetShapes = slices.Concat(sqlRowsetShapes, sqlDialect.templateShapes(), sqlNumberShapes)
	allWebRowSetShapes = slices.Concat(webRowSetShapes, webDialect.templateShapes())
)

func TestStreamDecodeShapes(t *testing.T) {
	for i, s := range allSQLRowsetShapes {
		if got := sqlRowsetDecode.check(t, []byte(s.doc)); got != s.streamed {
			t.Errorf("SQLRowset shape %d: one-pass decoder took it = %v, want %v\n%s", i, got, s.streamed, s.doc)
		}
	}
	for i, s := range allWebRowSetShapes {
		if got := webRowSetDecode.check(t, []byte(s.doc)); got != s.streamed {
			t.Errorf("webRowSet shape %d: one-pass decoder took it = %v, want %v\n%s", i, got, s.streamed, s.doc)
		}
	}
}

// TestStreamDecodeTakesEncoderOutput: everything the encoders emit is
// decoded in one pass — the tree path is for foreign or broken input.
func TestStreamDecodeTakesEncoderOutput(t *testing.T) {
	for _, f := range []decodeFuncs{sqlRowsetDecode, webRowSetDecode} {
		for seed, data := range encodedCorpus(t, f.codec, 200) {
			if !f.check(t, data) {
				t.Fatalf("%s seed %d: encoder output fell back to the tree decoder\n%s", f.codec.FormatURI(), seed, data)
			}
		}
	}
}

// TestStreamDecodeMutations: random single-byte damage to encoder
// output — mostly broken XML, sometimes a changed cell or name — must
// come out the same from both decoders.
func TestStreamDecodeMutations(t *testing.T) {
	for _, f := range []decodeFuncs{sqlRowsetDecode, webRowSetDecode} {
		rng := rand.New(rand.NewSource(42))
		for _, data := range encodedCorpus(t, f.codec, 40) {
			for trial := 0; trial < 50; trial++ {
				mut := append([]byte(nil), data...)
				switch pos := rng.Intn(len(mut)); rng.Intn(3) {
				case 0:
					const damage = "<>&/\"= \r;:x0"
					mut[pos] = damage[rng.Intn(len(damage))]
				case 1:
					mut = append(mut[:pos], mut[pos+1:]...)
				default:
					mut = mut[:pos]
				}
				f.check(t, mut)
			}
		}
	}
}

// fuzz seeds a target with encoder output and the handwritten shapes.
func (fn decodeFuncs) fuzz(f *testing.F, shapes []shape) {
	for _, data := range encodedCorpus(f, fn.codec, 12) {
		f.Add(data)
	}
	for _, s := range shapes {
		f.Add([]byte(s.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { fn.check(t, data) })
}

func FuzzDecodeSQLRowset(f *testing.F) { sqlRowsetDecode.fuzz(f, allSQLRowsetShapes) }
func FuzzDecodeWebRowSet(f *testing.F) { webRowSetDecode.fuzz(f, allWebRowSetShapes) }

// plainDecimal is the text plainFloat must take: an optional '-', then
// digits with at most one '.' between two of them, fifteen digits at most.
var plainDecimal = regexp.MustCompile(`^-?[0-9]+(\.[0-9]+)?$`)

// FuzzPlainFloat holds plainFloat to ParseFloat, bit for bit, on all it
// takes, and to plainDecimal on what it takes: everything else is
// ParseFloat's.
func FuzzPlainFloat(f *testing.F) {
	for _, s := range []string{"0", "-0", "-0.000", "007", "0.1", "-0.1", ".5", "5.", "-", "", "1..2", "1.2.3",
		"123456789012345", "1234567890123456", "1.23456789012345", "12345678901234.5", "1.234567890123456",
		"0.00000000000001", "999999999999999", "9007199254740993", "0.3", "73500.5", "2.675", "1e5", "+1", " 1",
		"1 ", "1_0", "0x1p-2", "Inf", "NaN", "-.5", "5.e1", "1.5\r"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := plainFloat([]byte(s))
		digits := len(s) - strings.Count(s, "-") - strings.Count(s, ".")
		if want := plainDecimal.MatchString(s) && digits <= 15; ok != want {
			t.Fatalf("plainFloat(%q) takes it: %v, want %v", s, ok, want)
		}
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("plainFloat(%q) = %b; ParseFloat says %b, %v", s, got, want, err)
		}
	})
}

// templateStats runs the one-pass decoder and reports how many rows it
// read, and how many of them by the template.
func (f decodeFuncs) templateStats(t *testing.T, data []byte) (rows, matched int) {
	t.Helper()
	var tok xmlutil.Tokenizer
	tok.Reset(data)
	d := streamDecoder{tok: &tok}
	if d.next() != xmlutil.TokenStart || !f.root(&d) {
		t.Fatalf("one-pass decoder turned down %.200q", data)
	}
	return len(d.rows), d.matched
}

// TestTemplateReadsEncoderOutput: of what the encoders write, tokens
// read one row — the one the template is learnt from — and the template
// the rest, in a bulk window and in a point reply's twenty rows alike;
// and a row the template cannot read costs tokens for that row only.
func TestTemplateReadsEncoderOutput(t *testing.T) {
	for _, f := range []decodeFuncs{sqlRowsetDecode, webRowSetDecode} {
		for _, n := range []int{4096, 20} {
			data, err := f.codec.Encode(bulkWindow(n))
			if err != nil {
				t.Fatal(err)
			}
			f.check(t, data)
			if rows, matched := f.templateStats(t, data); rows != n || matched != n-1 {
				t.Errorf("%s, %d rows: %d decoded, %d by the template, want all but the first", f.codec.FormatURI(), n, rows, matched)
			}
		}
		// Every tenth row holds what the template leaves alone: a NULL,
		// an empty string, text to escape.
		set := bulkWindow(1000)
		for i := 5; i < len(set.Rows); i += 10 {
			set.Rows[i][1] = []sqlengine.Value{sqlengine.Null, sqlengine.NewString(""), sqlengine.NewString("a<&>b")}[i/10%3]
		}
		data, _ := f.codec.Encode(set)
		f.check(t, data)
		if rows, matched := f.templateStats(t, data); rows != 1000 || matched != 899 {
			t.Errorf("%s: %d rows decoded, %d by the template, want 1000 and 899: a fallback row must re-arm it", f.codec.FormatURI(), rows, matched)
		}
	}
	for _, s := range []struct {
		f       decodeFuncs
		d       dialect
		matched int
	}{{sqlRowsetDecode, sqlDialect, 3}, {webRowSetDecode, webDialect, 3}} {
		doc := s.d.around(s.d.row(s.d.cell("3"), s.d.cell("a &amp; b")))
		if rows, matched := s.f.templateStats(t, []byte(doc)); rows != 5 || matched != s.matched {
			t.Errorf("%s: %d rows, %d by the template, want 5 and %d", s.f.codec.FormatURI(), rows, matched, s.matched)
		}
	}
}

// TestPlainInt holds the hand-written integer reader to strconv on what
// it accepts.
func TestPlainInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const alphabet = "0123456789012345678901234567890123456789.--+e "
	accepted := 0
	for trial := 0; trial < 200000; trial++ {
		text := make([]byte, 1+rng.Intn(19))
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		got, ok := plainInt(text)
		if !ok {
			continue
		}
		accepted++
		if want, err := strconv.ParseInt(string(text), 10, 64); err != nil || got != want {
			t.Fatalf("plainInt(%q) = %d, strconv says %d, %v", text, got, want, err)
		}
	}
	if accepted < 1000 {
		t.Fatalf("only %d texts accepted: the alphabet no longer exercises plainInt", accepted)
	}
}

// TestStreamDecodeOwnsItsMemory: nothing in a decoded set may point
// into the input, which callers hand back to a buffer pool.
func TestStreamDecodeOwnsItsMemory(t *testing.T) {
	for _, f := range []decodeFuncs{sqlRowsetDecode, webRowSetDecode} {
		for _, data := range encodedCorpus(t, f.codec, 20) {
			want, err := f.treeDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := f.stream(data)
			if !ok {
				t.Fatal("encoder output not streamed")
			}
			for i := range data {
				data[i] = 'X'
			}
			if err := identical(got, want); err != nil {
				t.Fatalf("%s: decoded set changed with its input: %v", f.codec.FormatURI(), err)
			}
		}
	}
}

func bulkWindow(rows int) *sqlengine.ResultSet {
	rs := &sqlengine.ResultSet{Columns: []sqlengine.ResultColumn{
		{Name: "id", Type: sqlengine.TypeInteger, Table: "data"},
		{Name: "payload", Type: sqlengine.TypeVarchar, Table: "data"},
		{Name: "num", Type: sqlengine.TypeDouble, Table: "data"},
	}}
	for i := 0; i < rows; i++ {
		rs.Rows = append(rs.Rows, []sqlengine.Value{
			sqlengine.NewInt(int64(i)),
			sqlengine.NewString(fmt.Sprintf("payload-%06d", i)),
			sqlengine.NewDouble(float64(i) * 0.25),
		})
	}
	return rs
}

func BenchmarkDecodeWindow(b *testing.B) {
	for _, f := range []decodeFuncs{sqlRowsetDecode, webRowSetDecode} {
		data, err := f.codec.Encode(bulkWindow(4096))
		if err != nil {
			b.Fatal(err)
		}
		name := f.codec.FormatURI()[strings.LastIndex(f.codec.FormatURI(), "/")+1:]
		b.Run(name+"/onepass", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := f.codec.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/tree", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := f.treeDecode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
