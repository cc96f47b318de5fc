package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/wsaddr"
	"dais/internal/xmlutil"
)

func TestRefEPRRoundTrip(t *testing.T) {
	ref := Ref("http://svc/sql", "urn:dais:sql:abc")
	epr := ref.EPR()
	if epr.Address != "http://svc/sql" {
		t.Fatalf("address = %q", epr.Address)
	}
	back, err := FromEPR(epr)
	if err != nil {
		t.Fatal(err)
	}
	if back != ref {
		t.Fatalf("round trip: %+v != %+v", back, ref)
	}
}

func TestFromEPRThroughWire(t *testing.T) {
	// An EPR serialised into a factory response and parsed back must
	// yield the same reference (third-party hand-off fidelity).
	ref := Ref("http://svc", "urn:r1")
	el := ref.EPR().Element(core.NSDAI, "DataResourceAddress")
	re, err := xmlutil.ParseString(xmlutil.MarshalString(el))
	if err != nil {
		t.Fatal(err)
	}
	epr, err := wsaddr.ParseEPR(re)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromEPR(epr)
	if err != nil {
		t.Fatal(err)
	}
	if back != ref {
		t.Fatalf("wire round trip: %+v", back)
	}
}

func TestFromEPRErrors(t *testing.T) {
	if _, err := FromEPR(nil); err == nil {
		t.Fatal("nil EPR")
	}
	if _, err := FromEPR(wsaddr.NewEPR("http://x")); err == nil {
		t.Fatal("EPR without abstract name reference parameter")
	}
}

func TestCallAttachesAddressingHeaders(t *testing.T) {
	var got *soap.Envelope
	srv := soap.NewServer()
	srv.HandleFallback(func(_ context.Context, _ string, env *soap.Envelope) (*soap.Envelope, error) {
		got = env
		return soap.NewEnvelope(xmlutil.NewElement("urn:t", "R")), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := New(nil)
	req := service.NewRequest(core.NSDAI, "GetResourceListRequest", "urn:x")
	if _, err := c.call(context.Background(), ts.URL, "urn:test/action", req); err != nil {
		t.Fatal(err)
	}
	h := wsaddr.FromEnvelope(got)
	if h.Action != "urn:test/action" {
		t.Fatalf("action header = %q", h.Action)
	}
	if h.To != ts.URL {
		t.Fatalf("to header = %q", h.To)
	}
	if h.MessageID == "" || h.ReplyTo == nil || h.ReplyTo.Address != wsaddr.AnonymousURI {
		t.Fatalf("headers = %+v", h)
	}
}

func TestDecodeSequenceVariants(t *testing.T) {
	seq := xmlutil.NewElement(ops.NSDAIX, "XMLSequence")
	n1 := seq.Add(ops.NSDAIX, "Item")
	n1.SetAttr("", "document", "a.xml")
	node := n1.Add("", "book")
	node.SetText("content")
	n2 := seq.Add(ops.NSDAIX, "Item")
	n2.SetAttr("", "document", "b.xml")
	n2.AddText(ops.NSDAIX, "Value", "42")

	items, err := decodeSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Node == nil || items[0].Value != "content" || items[0].Document != "a.xml" {
		t.Fatalf("item0 = %+v", items[0])
	}
	if items[1].Node != nil || items[1].Value != "42" {
		t.Fatalf("item1 = %+v", items[1])
	}
	if _, err := decodeSequence(nil); err == nil {
		t.Fatal("nil sequence should error")
	}
}

func TestCallDecodesTypedFaults(t *testing.T) {
	srv := soap.NewServer()
	srv.HandleFallback(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		detail := xmlutil.NewElement(core.NSDAI, "NotAuthorizedFault")
		detail.AddText(core.NSDAI, "Message", "denied")
		detail.AddText(core.NSDAI, "Value", "resource is read only")
		f := soap.ClientFault("denied")
		f.Detail = detail
		return nil, f
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := New(nil)
	_, err := c.call(context.Background(), ts.URL, "urn:a", xmlutil.NewElement("urn:t", "X"))
	naf, ok := err.(*core.NotAuthorizedFault)
	if !ok {
		t.Fatalf("err = %T %v", err, err)
	}
	if naf.Reason != "resource is read only" {
		t.Fatalf("reason = %q", naf.Reason)
	}
}

func TestTransportErrorsSurface(t *testing.T) {
	c := New(&http.Client{})
	_, err := c.call(context.Background(), "http://127.0.0.1:1/nothing", "urn:a", xmlutil.NewElement("urn:t", "X"))
	if err == nil || !strings.Contains(err.Error(), "transport") {
		t.Fatalf("err = %v", err)
	}
}

func TestByteCounters(t *testing.T) {
	srv := soap.NewServer()
	srv.HandleFallback(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewEnvelope(xmlutil.NewElement("urn:t", "R")), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := New(nil)
	if _, err := c.call(context.Background(), ts.URL, "urn:a", xmlutil.NewElement("urn:t", "Q")); err != nil {
		t.Fatal(err)
	}
	if c.BytesSent() == 0 || c.BytesReceived() == 0 {
		t.Fatal("counters not tracking")
	}
	c.ResetCounters()
	if c.BytesSent() != 0 || c.BytesReceived() != 0 {
		t.Fatal("reset failed")
	}
}

// TestMalformedCountsAreErrors: a reply whose count field is missing or
// not a number is malformed, not a count of zero.
func TestMalformedCountsAreErrors(t *testing.T) {
	var reply *xmlutil.Element
	srv := soap.NewServer()
	srv.HandleFallback(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewEnvelope(reply), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := New(nil)
	ctx := context.Background()
	ref := Ref(ts.URL, "urn:r")

	calls := map[string]func() (int64, error){
		"SQLExecute": func() (int64, error) {
			r, err := c.SQLExecute(ctx, ref, "UPDATE t SET x = 1", nil, "")
			if err != nil {
				return 0, err
			}
			return int64(r.UpdateCount), nil
		},
		"GetSQLUpdateCount": func() (int64, error) {
			n, err := c.GetSQLUpdateCount(ctx, ref, 0)
			return int64(n), err
		},
		"GetSQLResponseItem": func() (int64, error) {
			item, err := c.GetSQLResponseItem(ctx, ref, 0)
			return int64(item.UpdateCount), err
		},
		"XUpdateExecute": func() (int64, error) {
			n, err := c.XUpdateExecute(ctx, ref, "d.xml", xmlutil.NewElement("urn:x", "modifications"))
			return int64(n), err
		},
		"ListFiles": func() (int64, error) {
			files, err := c.ListFiles(ctx, ref, "*")
			if err != nil || len(files) != 1 {
				return 0, err
			}
			return files[0].Size, nil
		},
	}
	build := func(text string) map[string]*xmlutil.Element {
		uc := xmlutil.NewElement(ops.NSDAIR, "R")
		uc.AddText(ops.NSDAIR, "UpdateCount", text)
		nm := xmlutil.NewElement(ops.NSDAIX, "R")
		nm.AddText(ops.NSDAIX, "NodesModified", text)
		fl := xmlutil.NewElement(ops.NSDAIF, "R")
		fl.Add(ops.NSDAIF, "FileList").Add(ops.NSDAIF, "File").SetAttr("", "name", "a").SetAttr("", "size", text)
		return map[string]*xmlutil.Element{
			"SQLExecute": uc, "GetSQLUpdateCount": uc, "GetSQLResponseItem": uc, "XUpdateExecute": nm, "ListFiles": fl,
		}
	}
	for name, call := range calls {
		reply = build(" 42\n")[name]
		if n, err := call(); err != nil || n != 42 {
			t.Errorf("%s: well-formed count: got %d, %v", name, n, err)
		}
		for _, bad := range []string{"many", "", "12abc", "1.5"} {
			reply = build(bad)[name]
			if n, err := call(); err == nil {
				t.Errorf("%s: count %q read as %d, want an error", name, bad, n)
			}
		}
	}
	// No count element at all.
	reply = xmlutil.NewElement(ops.NSDAIR, "R")
	if n, err := c.GetSQLUpdateCount(ctx, ref, 0); err == nil {
		t.Errorf("GetSQLUpdateCount: reply without UpdateCount read as %d", n)
	}
}

// TestMalformedCommunicationArea: an SQLCode that is not a number is an
// error on both operations that carry the area, not a success; SQLExecute
// still takes a reply with no area at all.
func TestMalformedCommunicationArea(t *testing.T) {
	ctx := context.Background()
	reply := func(code string) *Client {
		resp := xmlutil.NewElement(ops.NSDAIR, "R")
		if code != "" {
			ca := resp.Add(ops.NSDAIR, "SQLCommunicationArea")
			ca.AddText(ops.NSDAIR, "SQLState", "HY000")
			ca.AddText(ops.NSDAIR, "SQLCode", code)
			ca.AddText(ops.NSDAIR, "UpdateCount", "-1")
			ca.AddText(ops.NSDAIR, "RowsFetched", "0")
		}
		return cannedClient(cannedReply(soap.NewEnvelope(resp).Marshal()))
	}
	if res, err := reply("-1").SQLExecute(ctx, canned, "SELECT 1", nil, ""); err != nil || res.CA.SQLCode != -1 {
		t.Fatalf("well-formed area: %+v, %v", res, err)
	}
	if ca, err := reply("-1").GetSQLCommunicationArea(ctx, canned); err != nil || ca.SQLCode != -1 {
		t.Fatalf("well-formed area: %+v, %v", ca, err)
	}
	if res, err := reply("").SQLExecute(ctx, canned, "SELECT 1", nil, ""); err != nil || res.CA != (sqlengine.SQLCA{}) {
		t.Fatalf("no area: %+v, %v", res, err)
	}
	if res, err := reply("x").SQLExecute(ctx, canned, "SELECT 1", nil, ""); err == nil || !strings.Contains(err.Error(), "SQLCode") {
		t.Fatalf("SQLExecute read SQLCode x as %+v, %v", res, err)
	}
	if ca, err := reply("x").GetSQLCommunicationArea(ctx, canned); err == nil || !strings.Contains(err.Error(), "SQLCode") {
		t.Fatalf("GetSQLCommunicationArea read SQLCode x as %+v, %v", ca, err)
	}
}
