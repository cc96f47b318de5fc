package service

import (
	"errors"
	"testing"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/ops"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/wsrf"
	"dais/internal/xmlutil"
)

func TestDatasetElementRoundTrip(t *testing.T) {
	// XML payloads embed as elements.
	xmlData := []byte(`<SQLRowset xmlns="` + dair.NSDAIR + `"><Metadata/><Row/></SQLRowset>`)
	e := ops.DatasetElement("urn:fmt:xml", xmlData)
	if len(e.ChildElements()) != 1 {
		t.Fatalf("xml payload not embedded: %s", xmlutil.MarshalString(e))
	}
	data, format := ops.DatasetPayload(e)
	if format != "urn:fmt:xml" {
		t.Fatalf("format = %q", format)
	}
	re, err := xmlutil.ParseString(string(data))
	if err != nil || re.Name.Local != "SQLRowset" {
		t.Fatalf("payload = %s, %v", data, err)
	}

	// Non-XML payloads embed as text.
	csvData := []byte("a:INTEGER\n1\n2\n")
	e = ops.DatasetElement("urn:fmt:csv", csvData)
	if len(e.ChildElements()) != 0 {
		t.Fatal("csv should be text content")
	}
	data, _ = ops.DatasetPayload(e)
	if string(data) != string(csvData) {
		t.Fatalf("payload = %q", data)
	}

	// Survives a SOAP round trip.
	env := soap.NewEnvelope(e)
	parsed, err := soap.ParseEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	data, _ = ops.DatasetPayload(parsed.BodyEntry())
	if string(data) != string(csvData) {
		t.Fatalf("after soap: %q", data)
	}
	if d, f := ops.DatasetPayload(nil); d != nil || f != "" {
		t.Fatal("nil dataset should be empty")
	}
}

func TestFaultMappingRoundTrip(t *testing.T) {
	faults := []error{
		&core.InvalidResourceNameFault{Name: "urn:x"},
		&core.InvalidLanguageFault{Language: "urn:lang"},
		&core.InvalidDatasetFormatFault{Format: "urn:fmt"},
		&core.NotAuthorizedFault{Reason: "nope"},
		&core.InvalidExpressionFault{Detail: "bad sql"},
		&core.ServiceBusyFault{},
	}
	for _, in := range faults {
		sf := ToSOAPFault(in)
		// Simulate the wire: marshal the fault into an envelope.
		env := soap.NewEnvelope(sf.Element())
		parsed, err := soap.ParseEnvelope(env.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		wireFault, ok := soap.AsFault(parsed.BodyEntry())
		if !ok {
			t.Fatal("fault lost on the wire")
		}
		out := DecodeFault(wireFault)
		if core.FaultName(out) != core.FaultName(in) {
			t.Errorf("fault %T decoded as %T", in, out)
		}
	}
	// Typed payloads survive.
	out := DecodeFault(mustWireFault(t, &core.InvalidResourceNameFault{Name: "urn:exact"}))
	var irf *core.InvalidResourceNameFault
	if !errors.As(out, &irf) || irf.Name != "urn:exact" {
		t.Fatalf("decoded = %+v", out)
	}
	// Non-fault errors pass through.
	plain := errors.New("plain")
	if DecodeFault(plain) != plain {
		t.Fatal("plain error mangled")
	}
	// Untyped server faults stay SOAP faults.
	sf := ToSOAPFault(errors.New("boom"))
	if sf.Code != "Server" {
		t.Fatalf("code = %s", sf.Code)
	}
}

func mustWireFault(t *testing.T, in error) *soap.Fault {
	t.Helper()
	env := soap.NewEnvelope(ToSOAPFault(in).Element())
	parsed, err := soap.ParseEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	f, ok := soap.AsFault(parsed.BodyEntry())
	if !ok {
		t.Fatal("not a fault")
	}
	return f
}

func TestQNameHelpers(t *testing.T) {
	if localOfQName("dair:SQLAccess") != "SQLAccess" {
		t.Fatal("prefixed")
	}
	if localOfQName("Plain") != "Plain" {
		t.Fatal("bare")
	}
	cases := map[string]string{
		"Readable":           core.NSDAI,
		"dair:NumberOfRows":  dair.NSDAIR,
		"daix:NumberOfItems": daix.NSDAIX,
		"wsrl:CurrentTime":   wsrf.NSRL,
	}
	for in, want := range cases {
		if got := nsOfProperty(in); got != want {
			t.Errorf("nsOfProperty(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSQLExpressionRoundTrip(t *testing.T) {
	req := xmlutil.NewElement(dair.NSDAIR, "SQLExecuteRequest")
	params := []sqlengine.Value{
		sqlengine.NewInt(42),
		sqlengine.NewString("hello"),
		sqlengine.Null,
		sqlengine.NewDouble(2.5),
		sqlengine.NewBool(true),
	}
	ops.AddSQLExpression(req, "SELECT * FROM t WHERE a = ? AND b = ?", params)
	// Through the wire.
	parsed, err := xmlutil.ParseString(xmlutil.MarshalString(req))
	if err != nil {
		t.Fatal(err)
	}
	expr, got, err := ops.ParseSQLExpression(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if expr != "SELECT * FROM t WHERE a = ? AND b = ?" {
		t.Fatalf("expr = %q", expr)
	}
	if len(got) != len(params) {
		t.Fatalf("params = %d", len(got))
	}
	for i := range params {
		if params[i].IsNull() != got[i].IsNull() {
			t.Fatalf("param %d null mismatch", i)
		}
		if !params[i].IsNull() && params[i].String() != got[i].String() {
			t.Fatalf("param %d: %q != %q", i, got[i].String(), params[i].String())
		}
		if !params[i].IsNull() && params[i].Type != got[i].Type {
			t.Fatalf("param %d type: %v != %v", i, got[i].Type, params[i].Type)
		}
	}
}

func TestParseSQLExpressionErrors(t *testing.T) {
	req := xmlutil.NewElement(dair.NSDAIR, "SQLExecuteRequest")
	if _, _, err := ops.ParseSQLExpression(req); err == nil {
		t.Fatal("missing SQLExpression")
	}
	se := req.Add(dair.NSDAIR, "SQLExpression")
	if _, _, err := ops.ParseSQLExpression(req); err == nil {
		t.Fatal("missing Expression")
	}
	se.AddText(dair.NSDAIR, "Expression", "SELECT 1")
	p := se.Add(dair.NSDAIR, "Parameter")
	p.SetAttr("", "type", "INTEGER")
	p.SetText("not-a-number")
	if _, _, err := ops.ParseSQLExpression(req); err == nil {
		t.Fatal("bad parameter should fail")
	}
}

func TestAbstractNameOf(t *testing.T) {
	if _, err := AbstractNameOf(nil); err == nil {
		t.Fatal("nil body")
	}
	body := xmlutil.NewElement(dair.NSDAIR, "SQLExecuteRequest")
	if _, err := AbstractNameOf(body); err == nil {
		t.Fatal("missing name")
	}
	body.AddText(core.NSDAI, "DataResourceAbstractName", "urn:r")
	name, err := AbstractNameOf(body)
	if err != nil || name != "urn:r" {
		t.Fatalf("name = %q, %v", name, err)
	}
}

func TestNewRequestShape(t *testing.T) {
	req := NewRequest(dair.NSDAIR, "GetTuplesRequest", "urn:abc")
	if req.Name.Space != dair.NSDAIR || req.Name.Local != "GetTuplesRequest" {
		t.Fatalf("name = %v", req.Name)
	}
	if req.FindText(core.NSDAI, "DataResourceAbstractName") != "urn:abc" {
		t.Fatal("abstract name missing")
	}
}
