package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/rowset"
	"dais/internal/soap"
	"dais/internal/sqlengine"
)

// A typed call that wants a result set decodes its reply's dataset in
// the envelope parser's own token pass (GetTuplesSet); the bytes API
// keeps the dataset's verbatim span for the caller to decode (GetTuples
// + Decode). The first is held to the second: the same result set, or
// an error with the same text, whatever the dataset holds.

// cannedReply is a transport that answers every request with one body.
type cannedReply []byte

func (body cannedReply) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), Request: req}, nil
}

// tuplesReply is the GetTuples reply a service would send for a dataset
// with the given content, built with the service's own helpers: an XML
// rendering in an XML format goes in verbatim, anything else as text.
func tuplesReply(format string, fragment []byte) cannedReply {
	resp := ops.GetTuples.NewResponse()
	resp.AppendChild(ops.DatasetElement(format, bytes.Clone(fragment)))
	return cannedReply(soap.NewEnvelope(resp).Marshal())
}

var canned = Ref("http://dais.invalid/rowset", "urn:dais:canned")

// cannedClient never retries: a malformed reply should fail once, not
// back off and fail again.
func cannedClient(reply cannedReply) *Client {
	return NewResilient(&http.Client{Transport: reply}, nil, resil.ClientConfig{})
}

func sameSets(a, b *sqlengine.ResultSet) error {
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) || (a.Rows == nil) != (b.Rows == nil) {
		return fmt.Errorf("%d columns x %d rows vs %d x %d", len(a.Columns), len(a.Rows), len(b.Columns), len(b.Rows))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d: %+v vs %+v", i, a.Columns[i], b.Columns[i])
		}
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			return fmt.Errorf("row %d: %d vs %d cells", r, len(a.Rows[r]), len(b.Rows[r]))
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

// checkInPass asserts the equivalence for one dataset content.
func checkInPass(t *testing.T, format string, fragment []byte) {
	t.Helper()
	c := cannedClient(tuplesReply(format, fragment))
	ctx := context.Background()
	got, gotErr := c.GetTuplesSet(ctx, canned, 1, 10)

	var want *sqlengine.ResultSet
	data, gotFormat, wantErr := c.GetTuples(ctx, canned, 1, 10)
	if wantErr == nil {
		var codec rowset.Codec
		if codec, wantErr = decodeFormats.Lookup(gotFormat); wantErr == nil {
			want, wantErr = codec.Decode(data)
		}
	}
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("in-pass err = %v, span + Decode err = %v\ndataset: %q", gotErr, wantErr, fragment)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("in-pass err = %q, span + Decode err = %q\ndataset: %q", gotErr, wantErr, fragment)
		}
	default:
		if err := sameSets(got, want); err != nil {
			t.Fatalf("in-pass decode differs from span + Decode: %v\ndataset: %q", err, fragment)
		}
	}
}

// inPassTaken reports whether the dataset was decoded in the envelope's
// token pass, as opposed to arriving as a verbatim span.
func inPassTaken(t *testing.T, format string, fragment []byte) bool {
	t.Helper()
	var inPass datasetDecoder
	resp, err := cannedClient(tuplesReply(format, fragment)).invoke(
		soap.WithPayloadDecoder(context.Background(), inPass.decode), canned, ops.GetTuples, ops.PageMsg{Start: 1, Count: 1})
	if err != nil {
		return false // a reply that does not parse
	}
	ds := resp.Find(core.NSDAI, "Dataset")
	taken := ds == inPass.el
	if taken && len(ds.Children) != 0 {
		t.Fatalf("decoder took the dataset, but the element holds %d children", len(ds.Children))
	}
	return taken
}

func inPassSet() *sqlengine.ResultSet {
	return &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: "id", Type: sqlengine.TypeInteger, Table: "t"},
			{Name: "s", Type: sqlengine.TypeVarchar, Table: "t<&>"},
			{Name: "f", Type: sqlengine.TypeDouble},
			{Name: "at", Type: sqlengine.TypeTimestamp},
			{Name: "n", Type: sqlengine.TypeNull},
		},
		Rows: [][]sqlengine.Value{
			{sqlengine.NewInt(1), sqlengine.NewString("a & b <c> \"d\""), sqlengine.NewDouble(math.Copysign(0, -1)),
				sqlengine.NewTimestamp(time.Date(2005, 9, 1, 12, 0, 0, 5, time.UTC)), sqlengine.Null},
			{sqlengine.NewInt(-2), sqlengine.NewString(""), sqlengine.Null, sqlengine.Null, sqlengine.NewBool(true)},
			{sqlengine.Null, sqlengine.NewString("日本語\nline"), sqlengine.NewDouble(math.Inf(1)), sqlengine.Null, sqlengine.Null},
		},
	}
}

// Shapes beside encoder output: what the one-pass decoders leave to the
// tree, what is not a standalone fragment, and what is not XML at all.
var (
	sqlRowsetInPassShapes = []string{
		`<r:SQLRowset xmlns:r="` + rowset.NSDAIR + `"><r:Metadata><r:Column name="id" type="INTEGER"/></r:Metadata><r:Row><r:Value>&#49;2</r:Value></r:Row><!-- c --></r:SQLRowset>`,
		`<r:SQLRowset xmlns:r="` + rowset.NSDAIR + `"><r:Metadata><r:Column name="id" type="INTEGER"/></r:Metadata><r:Row><r:Value><b>1</b></r:Value></r:Row></r:SQLRowset>`,
		`<r:SQLRowset xmlns:r="` + rowset.NSDAIR + `"><r:Metadata><r:Column name="id" type="INTEGER"/></r:Metadata><r:Row><r:Value>one</r:Value></r:Row></r:SQLRowset>`,
		`<r:SQLRowset xmlns:r="` + rowset.NSDAIR + `"><r:Row><r:Value>1</r:Value></r:Row></r:SQLRowset>`,
		`<ns0:SQLRowset><ns0:Metadata><ns0:Column name="id" type="INTEGER"/></ns0:Metadata><ns0:Row><ns0:Value>1</ns0:Value></ns0:Row></ns0:SQLRowset>`, // leans on the envelope's ns0
		`<ns1:SQLRowset><ns1:Metadata><ns1:Column name="id" type="INTEGER"/></ns1:Metadata></ns1:SQLRowset>`,
		`<a/><b/>`,
		`<a/> text`,
		`<r:Rowset xmlns:r="` + rowset.NSDAIR + `"/>`,
		`<r:SQLRowset xmlns:r="` + rowset.NSDAIR + `"><r:Metadata><r:Column name="id" type="INTEGER"/></r:Metadata><r:Row><r:Value>1</r:Row></r:Value></r:SQLRowset>`,
		`<r:SQLRowset xmlns:r="` + rowset.NSDAIR + `"><r:Metadata>`,
		`</soapenv:Body>`,
		`not xml`,
		``,
	}
	webRowSetInPassShapes = []string{
		`<webRowSet xmlns="` + rowset.NSWebRowSet + `"><metadata><column-definition><column-name>id</column-name><column-type-name>INTEGER</column-type-name></column-definition></metadata><data><currentRow><columnValue> 7 </columnValue></currentRow><currentRow><columnValue><null/></columnValue></currentRow></data></webRowSet>`,
		`<webRowSet xmlns="` + rowset.NSWebRowSet + `"><metadata><column-definition><column-name>id</column-name><column-type-name>INTEGER</column-type-name></column-definition></metadata><data><currentRow><columnValue><b>7</b></columnValue></currentRow></data></webRowSet>`,
		`<webRowSet xmlns="` + rowset.NSWebRowSet + `"><metadata/><data/></webRowSet>`,
		`<ns0:webRowSet><ns0:metadata/></ns0:webRowSet>`,
		`<webRowSet xmlns="` + rowset.NSWebRowSet + `"><data>`,
	}
)

// Windows whose later rows leave the row template the decoder learnt
// from the first (an entity, CDATA, a comment, a NULL, white space,
// another prefix, an empty cell, a changed cell count, a cut) and go on
// after it — inside an envelope, where the template is matched against
// the envelope's own bytes.
func templateWindows(open, close, row, odd string) []string {
	r := func(i int) string { return fmt.Sprintf(row, i, i) }
	docs := []string{open + r(1) + close, open + r(1) + r(2) + r(3) + close}
	for _, o := range strings.Split(odd, "|") {
		docs = append(docs, open+r(1)+r(2)+o+r(4)+r(5)+close)
	}
	whole := open + r(1) + r(2) + r(3) + close
	return append(docs, whole[:len(whole)-len(close)-len(r(3))/2], whole[:len(whole)-len(close)-2])
}

var (
	sqlRowsetTemplateShapes = templateWindows(
		`<r:SQLRowset xmlns:r="`+rowset.NSDAIR+`"><r:Metadata><r:Column name="id" type="INTEGER"/><r:Column name="s" type="VARCHAR"/></r:Metadata>`, `</r:SQLRowset>`,
		`<r:Row><r:Value>%d</r:Value><r:Value>v%d</r:Value></r:Row>`,
		`<r:Row><r:Value>3</r:Value><r:Value>a &amp; b</r:Value></r:Row>|<r:Row><r:Value>3</r:Value><r:Value><![CDATA[<c>]]></r:Value></r:Row>|`+
			`<r:Row><r:Value>3<!-- c --></r:Value><r:Value>c</r:Value></r:Row>|<r:Row><r:Value isNull="true"/><r:Value>c</r:Value></r:Row>|`+
			"\n<r:Row> <r:Value>3</r:Value>\n<r:Value>c</r:Value></r:Row>\n|"+`<q:Row xmlns:q="`+rowset.NSDAIR+`"><q:Value>3</q:Value><q:Value>c</q:Value></q:Row>|`+
			`<r:Row xmlns:r="urn:other"><r:Value>3</r:Value><r:Value>c</r:Value></r:Row>|<r:Row><r:Value>3</r:Value><r:Value></r:Value></r:Row>|`+
			`<r:Row><r:Value>3</r:Value></r:Row>|<r:Row><r:Value>x</r:Value><r:Value>c</r:Value></r:Row>|<ns0:Row><ns0:Value>3</ns0:Value><ns0:Value>c</ns0:Value></ns0:Row>`)
	webRowSetTemplateShapes = templateWindows(
		`<webRowSet xmlns="`+rowset.NSWebRowSet+`"><metadata><column-definition><column-name>id</column-name><column-type-name>INTEGER</column-type-name></column-definition>`+
			`<column-definition><column-name>s</column-name><column-type-name>VARCHAR</column-type-name></column-definition></metadata><data>`, `</data></webRowSet>`,
		`<currentRow><columnValue>%d</columnValue><columnValue>v%d</columnValue></currentRow>`,
		`<currentRow><columnValue>3</columnValue><columnValue>a &amp; b</columnValue></currentRow>|<currentRow><columnValue>3</columnValue><columnValue><null/></columnValue></currentRow>|`+
			` <currentRow><columnValue>3</columnValue> <columnValue>c</columnValue></currentRow>|<w:currentRow xmlns:w="`+rowset.NSWebRowSet+`"><w:columnValue>3</w:columnValue><w:columnValue>c</w:columnValue></w:currentRow>|`+
			`<currentRow><columnValue>3</columnValue><columnValue/></currentRow>|<currentRow><columnValue>3</columnValue></currentRow>|<ns0:currentRow><ns0:columnValue>3</ns0:columnValue></ns0:currentRow>`)
)

func TestGetTuplesSetTemplateInPass(t *testing.T) {
	for _, shape := range sqlRowsetTemplateShapes {
		checkInPass(t, rowset.FormatSQLRowset, []byte(shape))
	}
	for _, shape := range webRowSetTemplateShapes {
		checkInPass(t, rowset.FormatWebRowSet, []byte(shape))
	}
	// The plain three-row window is read in the envelope's pass.
	if !inPassTaken(t, rowset.FormatSQLRowset, []byte(sqlRowsetTemplateShapes[1])) || !inPassTaken(t, rowset.FormatWebRowSet, []byte(webRowSetTemplateShapes[1])) {
		t.Fatal("a plain window was not decoded in the envelope's pass")
	}
}

func TestGetTuplesSetDecodesInPass(t *testing.T) {
	for _, codec := range []rowset.Codec{rowset.SQLRowsetCodec{}, rowset.WebRowSetCodec{}} {
		data, err := codec.Encode(inPassSet())
		if err != nil {
			t.Fatal(err)
		}
		if !inPassTaken(t, codec.FormatURI(), data) {
			t.Fatalf("%s: encoder output was not decoded in the envelope's pass", codec.FormatURI())
		}
		checkInPass(t, codec.FormatURI(), data)
		// The same bytes under a format whose codec has no token decoder,
		// and under one nobody knows, are left alone.
		if inPassTaken(t, rowset.FormatCSV, data) || inPassTaken(t, "urn:unknown", data) {
			t.Fatal("a dataset in a non-XML or unknown format was taken in pass")
		}
	}
	for i, shape := range sqlRowsetInPassShapes {
		if i > 0 && inPassTaken(t, rowset.FormatSQLRowset, []byte(shape)) {
			t.Fatalf("SQLRowset shape %d was taken in pass: %s", i, shape)
		}
		checkInPass(t, rowset.FormatSQLRowset, []byte(shape))
	}
	for i, shape := range webRowSetInPassShapes {
		if i > 0 && inPassTaken(t, rowset.FormatWebRowSet, []byte(shape)) {
			t.Fatalf("webRowSet shape %d was taken in pass: %s", i, shape)
		}
		checkInPass(t, rowset.FormatWebRowSet, []byte(shape))
	}
	csv, _ := rowset.CSVCodec{}.Encode(inPassSet())
	checkInPass(t, rowset.FormatCSV, csv)
}

func fuzzInPass(f *testing.F, codec rowset.Codec, shapes []string) {
	data, err := codec.Encode(inPassSet())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, s := range shapes {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, fragment []byte) { checkInPass(t, codec.FormatURI(), fragment) })
}

func FuzzDecodeSQLRowsetInEnvelope(f *testing.F) {
	fuzzInPass(f, rowset.SQLRowsetCodec{}, slices.Concat(sqlRowsetInPassShapes, sqlRowsetTemplateShapes))
}

func FuzzDecodeWebRowSetInEnvelope(f *testing.F) {
	fuzzInPass(f, rowset.WebRowSetCodec{}, slices.Concat(webRowSetInPassShapes, webRowSetTemplateShapes))
}
