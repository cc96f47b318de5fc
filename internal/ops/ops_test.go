package ops

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"dais/internal/core"
	"dais/internal/rowset"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// TestCatalogWellFormed checks the registry invariants every derived
// artefact (dispatch table, WSDL, client) relies on: one unique
// wsa:Action per spec, the NS + "/" + Op naming convention, and a
// complete set of classification fields.
func TestCatalogWellFormed(t *testing.T) {
	specs := Catalog()
	if len(specs) < 40 {
		t.Fatalf("catalog has %d specs, expected the full operation inventory", len(specs))
	}
	seenAction := map[string]string{}
	seenRequest := map[xmlutil.Name]string{}
	for _, s := range specs {
		if s.Op == "" || s.NS == "" || s.Class == "" || s.Action == "" {
			t.Errorf("spec %+v: missing Op/NS/Class/Action", s)
		}
		if want := s.NS + "/" + s.Op; s.Action != want {
			t.Errorf("%s: action %q does not follow NS+\"/\"+Op (%q)", s.Op, s.Action, want)
		}
		if prev, dup := seenAction[s.Action]; dup {
			t.Errorf("action %q declared by both %s and %s", s.Action, prev, s.Op)
		}
		seenAction[s.Action] = s.Op
		reqName := xmlutil.Name{Space: s.NS, Local: s.RequestElement()}
		if prev, dup := seenRequest[reqName]; dup {
			t.Errorf("request element %v used by both %s and %s", reqName, prev, s.Op)
		}
		seenRequest[reqName] = s.Op
		if s.NoName && s.Resource != KindNone {
			t.Errorf("%s: NoName spec should have no resource kind", s.Op)
		}
		if !s.NoName && s.Resource == KindNone {
			t.Errorf("%s: named spec needs a resource kind", s.Op)
		}
	}
}

// TestSpecRequestFraming checks the §3 framing rule holds by
// construction: every request built from a spec carries the abstract
// name (except the NoName service-level operations), and factory specs
// advertise their PortTypeQName.
func TestSpecRequestFraming(t *testing.T) {
	for _, s := range Catalog() {
		req := s.NewRequest("res-1")
		if req.Name.Local != s.RequestElement() || req.Name.Space != s.NS {
			t.Errorf("%s: request element is %v", s.Op, req.Name)
		}
		name := req.FindText(core.NSDAI, "DataResourceAbstractName")
		if s.NoName && name != "" {
			t.Errorf("%s: NoName request carries an abstract name", s.Op)
		}
		if !s.NoName && name != "res-1" {
			t.Errorf("%s: request is missing the abstract name", s.Op)
		}
		if pt := req.FindText(core.NSDAI, "PortTypeQName"); pt != s.PortType {
			t.Errorf("%s: PortTypeQName = %q, want %q", s.Op, pt, s.PortType)
		}
		if got := s.NewResponse().Name.Local; got != s.Op+"Response" {
			t.Errorf("%s: response element is %q", s.Op, got)
		}
	}
}

// decoder is the service-side half of a message codec.
type decoder interface {
	Decode(s Spec, body *xmlutil.Element) error
}

// reparse pushes an encoded request through the XML serialiser and
// parser, as the SOAP layer does on the wire.
func reparse(t *testing.T, req *xmlutil.Element) *xmlutil.Element {
	t.Helper()
	parsed, err := xmlutil.ParseBytes(xmlutil.Marshal(req))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	return parsed
}

// encodeAndDecode runs one codec round trip through the serialiser.
func encodeAndDecode(t *testing.T, spec Spec, msg Msg, into decoder) {
	t.Helper()
	req := spec.NewRequest("res-1")
	msg.Encode(spec, req)
	if err := into.Decode(spec, reparse(t, req)); err != nil {
		t.Fatalf("%s: decode: %v", spec.Op, err)
	}
}

// TestMessageCodecsRoundTrip drives every request codec through
// encode → marshal → parse → decode and compares the result, so the
// client-side and service-side halves of each message shape cannot
// drift apart.
func TestMessageCodecsRoundTrip(t *testing.T) {
	cfg := core.DefaultConfiguration()
	expr := SQLExpression{Expression: "SELECT * FROM t WHERE a = ?",
		Params: []sqlengine.Value{sqlengine.NewString("x"), sqlengine.Null}}

	cases := []struct {
		spec Spec
		msg  Msg
		want func(t *testing.T, got decoder)
	}{
		{GetPropertyDocument, Empty{}, func(t *testing.T, got decoder) {}},
		{GenericQuery, GenericQueryMsg{Language: "urn:lang", Expression: "q"},
			func(t *testing.T, got decoder) {
				m := got.(*GenericQueryMsg)
				if m.Language != "urn:lang" || m.Expression != "q" {
					t.Errorf("got %+v", m)
				}
			}},
		{SQLExecute, SQLExecuteMsg{Expr: expr, FormatURI: "urn:fmt"},
			func(t *testing.T, got decoder) {
				m := got.(*SQLExecuteMsg)
				if m.FormatURI != "urn:fmt" || !reflect.DeepEqual(m.Expr, expr) {
					t.Errorf("got %+v", m)
				}
			}},
		{SQLExecuteFactory, SQLFactoryMsg{Expr: expr, Config: &cfg},
			func(t *testing.T, got decoder) {
				m := got.(*SQLFactoryMsg)
				if !reflect.DeepEqual(m.Expr, expr) || m.Config == nil || !reflect.DeepEqual(*m.Config, cfg) {
					t.Errorf("got %+v", m)
				}
			}},
		{GetSQLRowset, IndexMsg{Index: 3},
			func(t *testing.T, got decoder) {
				if m := got.(*IndexMsg); m.Index != 3 {
					t.Errorf("got %+v", m)
				}
			}},
		{GetSQLOutputParameter, ParamMsg{ParameterName: "p1"},
			func(t *testing.T, got decoder) {
				if m := got.(*ParamMsg); m.ParameterName != "p1" {
					t.Errorf("got %+v", m)
				}
			}},
		{SQLRowsetFactory, RowsetFactoryMsg{FormatURI: "urn:fmt", Count: 7, Config: &cfg},
			func(t *testing.T, got decoder) {
				m := got.(*RowsetFactoryMsg)
				if m.FormatURI != "urn:fmt" || m.Count != 7 || m.Config == nil {
					t.Errorf("got %+v", m)
				}
			}},
		{GetTuples, PageMsg{Start: 2, Count: 5},
			func(t *testing.T, got decoder) {
				m := got.(*PageMsg)
				if m.Start != 2 || m.Count != 5 || !m.HasCount {
					t.Errorf("got %+v", m)
				}
			}},
		{GetItems, PageMsg{Start: 1, Count: 4},
			func(t *testing.T, got decoder) {
				m := got.(*PageMsg)
				if m.Start != 1 || m.Count != 4 || !m.HasCount {
					t.Errorf("got %+v", m)
				}
			}},
		{GetDocument, DocMsg{DocumentName: "d1"},
			func(t *testing.T, got decoder) {
				if m := got.(*DocMsg); m.DocumentName != "d1" {
					t.Errorf("got %+v", m)
				}
			}},
		{CreateSubcollection, CollMsg{CollectionName: "c1"},
			func(t *testing.T, got decoder) {
				if m := got.(*CollMsg); m.CollectionName != "c1" {
					t.Errorf("got %+v", m)
				}
			}},
		{XPathExecute, ExprMsg{Expression: "//a"},
			func(t *testing.T, got decoder) {
				if m := got.(*ExprMsg); m.Expression != "//a" {
					t.Errorf("got %+v", m)
				}
			}},
		{XPathExecuteFactory, SeqFactoryMsg{Expression: "//a", Config: &cfg},
			func(t *testing.T, got decoder) {
				m := got.(*SeqFactoryMsg)
				if m.Expression != "//a" || m.Config == nil {
					t.Errorf("got %+v", m)
				}
			}},
		{CollectionFactory, CollFactoryMsg{CollectionName: "sub", Config: &cfg},
			func(t *testing.T, got decoder) {
				m := got.(*CollFactoryMsg)
				if m.CollectionName != "sub" || m.Config == nil {
					t.Errorf("got %+v", m)
				}
			}},
		{ReadFile, FileRangeMsg{FileName: "f.bin", Offset: 10, Count: -1},
			func(t *testing.T, got decoder) {
				m := got.(*FileRangeMsg)
				if m.FileName != "f.bin" || m.Offset != 10 || m.Count != -1 {
					t.Errorf("got %+v", m)
				}
			}},
		{WriteFile, FileDataMsg{FileName: "f.bin", Data: []byte{0, 1, 2, 0xff}},
			func(t *testing.T, got decoder) {
				m := got.(*FileDataMsg)
				if m.FileName != "f.bin" || !bytes.Equal(m.Data, []byte{0, 1, 2, 0xff}) {
					t.Errorf("got %+v", m)
				}
			}},
		{DeleteFile, FileNameMsg{FileName: "f.bin"},
			func(t *testing.T, got decoder) {
				if m := got.(*FileNameMsg); m.FileName != "f.bin" {
					t.Errorf("got %+v", m)
				}
			}},
		{ListFiles, PatternMsg{Pattern: "*.csv"},
			func(t *testing.T, got decoder) {
				if m := got.(*PatternMsg); m.Pattern != "*.csv" {
					t.Errorf("got %+v", m)
				}
			}},
		{FileSelectFactory, FileFactoryMsg{Pattern: "*.csv", Config: &cfg},
			func(t *testing.T, got decoder) {
				m := got.(*FileFactoryMsg)
				if m.Pattern != "*.csv" || m.Config == nil {
					t.Errorf("got %+v", m)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Op, func(t *testing.T) {
			got := reflect.New(reflect.TypeOf(tc.msg)).Interface().(decoder)
			encodeAndDecode(t, tc.spec, tc.msg, got)
			tc.want(t, got)
		})
	}
}

// TestElementMessagesRoundTrip covers the two codecs that carry whole
// XML trees; elements are compared through the serialiser.
func TestElementMessagesRoundTrip(t *testing.T) {
	doc := xmlutil.NewElement("urn:app", "record")
	doc.AddText("urn:app", "field", "v")

	var add AddDocumentMsg
	encodeAndDecode(t, AddDocument, AddDocumentMsg{DocumentName: "d1", Document: doc}, &add)
	if add.DocumentName != "d1" {
		t.Errorf("AddDocument: got name %q", add.DocumentName)
	}
	if !bytes.Equal(xmlutil.Marshal(add.Document), xmlutil.Marshal(doc)) {
		t.Errorf("AddDocument: document did not round-trip: %s", xmlutil.Marshal(add.Document))
	}

	mods := xmlutil.NewElement("http://www.xmldb.org/xupdate", "modifications")
	mods.AddText("http://www.xmldb.org/xupdate", "append", "x")
	var xu XUpdateMsg
	encodeAndDecode(t, XUpdateExecute, XUpdateMsg{DocumentName: "d1", Modifications: mods}, &xu)
	if xu.DocumentName != "d1" || xu.Modifications == nil {
		t.Fatalf("XUpdate: got %+v", xu)
	}
	if !bytes.Equal(xmlutil.Marshal(xu.Modifications), xmlutil.Marshal(mods)) {
		t.Errorf("XUpdate: modifications did not round-trip")
	}
}

// TestTypeFaultCanonicalDetail pins the one canonical type-mismatch
// fault format every resolver path emits.
func TestTypeFaultCanonicalDetail(t *testing.T) {
	err := TypeFault("res-9", KindSQL)
	if got := err.Error(); !strings.Contains(got, "res-9 (not a SQL resource)") {
		t.Errorf("TypeFault detail = %q", got)
	}
	// Staged snapshots and base file resources share the File label.
	for _, k := range []Kind{KindFile, KindFileReader} {
		if got := TypeFault("res-9", k).Error(); !strings.Contains(got, "(not a File resource)") {
			t.Errorf("TypeFault(%s) detail = %q", k, got)
		}
	}
	if core.FaultName(err) != "InvalidResourceNameFault" {
		t.Errorf("TypeFault is not an InvalidResourceNameFault: %v", core.FaultName(err))
	}
}

// TestCallInfoContext checks the metadata attachment used by the
// interceptor pipeline on both client and server paths.
func TestCallInfoContext(t *testing.T) {
	ctx := WithCallInfo(context.Background(), SQLExecute.Info())
	info, ok := CallInfoFromContext(ctx)
	if !ok || info.Action != ActSQLExecute || info.Class != "SQLAccess" || info.Resource != KindSQL {
		t.Errorf("CallInfo = %+v, ok=%v", info, ok)
	}
	if _, ok := CallInfoFromContext(context.Background()); ok {
		t.Error("CallInfo found on a bare context")
	}
}

// TestDatasetPayloadAfterTheWire: a Dataset's XML content arrives as the
// bytes the producer wrote, with no tree built and nothing re-marshalled;
// content that uses a namespace declared on the envelope cannot, and
// comes back re-marshalled but meaning the same.
func TestDatasetPayloadAfterTheWire(t *testing.T) {
	const fragment = `<q:SQLRowset xmlns:q="` + rowset.NSDAIR + `"><!-- kept -->` + "\n" +
		`<q:Metadata><q:Column name='id' type="INTEGER"/></q:Metadata><q:Row><q:Value>&#55;</q:Value></q:Row></q:SQLRowset>`
	want, err := rowset.SQLRowsetCodec{}.Decode([]byte(fragment))
	if err != nil {
		t.Fatal(err)
	}
	overWire := func(ds *xmlutil.Element) *xmlutil.Element {
		t.Helper()
		resp := GetTuples.NewResponse()
		resp.AppendChild(ds)
		env, err := soap.ParseEnvelope(soap.NewEnvelope(resp).Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return env.BodyEntry().Find(core.NSDAI, "Dataset")
	}

	ds := overWire(DatasetElement(rowset.FormatSQLRowset, []byte("  "+fragment+"\n")))
	if _, isRaw := ds.Children[0].(xmlutil.Raw); len(ds.Children) != 1 || !isRaw {
		t.Fatalf("Dataset content was parsed into a tree: %s", xmlutil.Marshal(ds))
	}
	if data, format := DatasetPayload(ds); string(data) != fragment || format != rowset.FormatSQLRowset {
		t.Fatalf("payload (format %q):\n got %q\nwant %q", format, data, fragment)
	}

	tree, err := xmlutil.ParseString(fragment)
	if err != nil {
		t.Fatal(err)
	}
	dependent := xmlutil.NewElement(core.NSDAI, "Dataset")
	dependent.SetAttr("", "formatURI", rowset.FormatSQLRowset)
	dependent.AppendChild(tree)
	ds = overWire(dependent)
	if ds.Find(rowset.NSDAIR, "SQLRowset") == nil {
		t.Fatalf("content using the envelope's namespace declarations was kept verbatim: %s", xmlutil.Marshal(ds))
	}
	data, _ := DatasetPayload(ds)
	got, err := rowset.SQLRowsetCodec{}.Decode(data)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("tree path payload %q decodes to %+v, %v", data, got, err)
	}

	// Text content (CSV) is never a verbatim span: it arrives unescaped.
	ds = overWire(DatasetElement(rowset.FormatCSV, []byte("a:VARCHAR\n<&>\n")))
	if data, _ := DatasetPayload(ds); string(data) != "a:VARCHAR\n<&>\n" {
		t.Fatalf("csv payload = %q", data)
	}
}
