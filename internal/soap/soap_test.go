package soap

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dais/internal/xmlutil"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	body := xmlutil.NewElement("urn:test", "DoThing")
	body.AddText("urn:test", "Arg", "value")
	env := NewEnvelope(body)
	hdr := xmlutil.NewElement("urn:hdr", "Action")
	hdr.SetText("urn:test/DoThing")
	env.AddHeader(hdr)

	data := env.Marshal()
	if !strings.HasPrefix(string(data), `<?xml`) {
		t.Fatal("missing XML declaration")
	}
	got, err := ParseEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Header) != 1 || got.Header[0].Text() != "urn:test/DoThing" {
		t.Fatalf("header = %+v", got.Header)
	}
	be := got.BodyEntry()
	if be == nil || be.Name.Local != "DoThing" {
		t.Fatalf("body = %v", be)
	}
	if be.FindText("urn:test", "Arg") != "value" {
		t.Fatal("body arg lost")
	}
}

func TestEnvelopeNoHeader(t *testing.T) {
	env := NewEnvelope(xmlutil.NewElement("urn:x", "Op"))
	got, err := ParseEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Header) != 0 {
		t.Fatalf("expected no headers, got %d", len(got.Header))
	}
}

func TestParseEnvelopeErrors(t *testing.T) {
	cases := []string{
		`<NotAnEnvelope/>`,
		`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Header/></Envelope>`, // no body
		`garbage`,
	}
	for _, c := range cases {
		if _, err := ParseEnvelope([]byte(c)); err == nil {
			t.Errorf("ParseEnvelope(%q): expected error", c)
		}
	}
}

func TestFaultRoundTrip(t *testing.T) {
	detail := xmlutil.NewElement("urn:dais", "InvalidResourceNameFault")
	detail.AddText("urn:dais", "Name", "urn:missing")
	f := &Fault{Code: "Client", String: "unknown resource", Detail: detail}
	env := NewEnvelope(f.Element())
	got, err := ParseEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	gf, ok := AsFault(got.BodyEntry())
	if !ok {
		t.Fatal("not detected as fault")
	}
	if gf.Code != "Client" || gf.String != "unknown resource" {
		t.Fatalf("fault = %+v", gf)
	}
	if gf.Detail == nil || gf.Detail.FindText("urn:dais", "Name") != "urn:missing" {
		t.Fatalf("detail = %v", gf.Detail)
	}
	if !strings.Contains(gf.Error(), "unknown resource") {
		t.Fatal("Error() should include fault string")
	}
}

func TestAsFaultNonFault(t *testing.T) {
	if _, ok := AsFault(xmlutil.NewElement("urn:x", "Response")); ok {
		t.Fatal("non-fault detected as fault")
	}
	if _, ok := AsFault(nil); ok {
		t.Fatal("nil detected as fault")
	}
}

func TestServerDispatch(t *testing.T) {
	srv := NewServer()
	srv.Handle("urn:test/Echo", func(_ context.Context, action string, req *Envelope) (*Envelope, error) {
		in := MustBody(req)
		out := xmlutil.NewElement("urn:test", "EchoResponse")
		out.AddText("urn:test", "Value", in.FindText("urn:test", "Value"))
		return NewEnvelope(out), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := xmlutil.NewElement("urn:test", "Echo")
	body.AddText("urn:test", "Value", "ping")
	client := NewClient(nil)
	resp, err := client.Call(context.Background(), ts.URL, "urn:test/Echo", NewEnvelope(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.BodyEntry().FindText("urn:test", "Value"); got != "ping" {
		t.Fatalf("echo = %q", got)
	}
	if client.BytesSent() == 0 || client.BytesReceived() == 0 {
		t.Fatal("byte counters not updated")
	}
	client.ResetCounters()
	if client.BytesSent() != 0 || client.BytesReceived() != 0 {
		t.Fatal("counters not reset")
	}
}

func TestServerUnknownAction(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(nil)
	_, err := client.Call(context.Background(), ts.URL, "urn:test/Missing", NewEnvelope(xmlutil.NewElement("urn:t", "X")))
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("expected fault, got %v", err)
	}
	if f.Code != "Client" {
		t.Fatalf("code = %s", f.Code)
	}
}

// TestServerUnknownActionObserved pins that misdirected requests still
// flow through the interceptor chain and the byte observer, so
// telemetry can count them instead of a silent pre-dispatch fault.
func TestServerUnknownActionObserved(t *testing.T) {
	srv := NewServer()
	var seenAction string
	var seenErr error
	srv.Use(func(ctx context.Context, action string, env *Envelope, next HandlerFunc) (*Envelope, error) {
		seenAction = action
		resp, err := next(ctx, action, env)
		seenErr = err
		return resp, err
	})
	var bytesOut int
	srv.OnExchange(func(action string, in, out int) { bytesOut = out })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(nil)
	_, err := client.Call(context.Background(), ts.URL, "urn:test/Missing", NewEnvelope(xmlutil.NewElement("urn:t", "X")))
	if _, ok := err.(*Fault); !ok {
		t.Fatalf("expected fault, got %v", err)
	}
	if seenAction != "urn:test/Missing" {
		t.Fatalf("interceptor saw action %q", seenAction)
	}
	if _, ok := seenErr.(*Fault); !ok {
		t.Fatalf("interceptor saw err %v", seenErr)
	}
	if bytesOut == 0 {
		t.Fatal("byte observer missed the fault response")
	}
}

func TestServerFallback(t *testing.T) {
	srv := NewServer()
	srv.HandleFallback(func(_ context.Context, action string, req *Envelope) (*Envelope, error) {
		out := xmlutil.NewElement("urn:t", "Any")
		out.SetText(action)
		return NewEnvelope(out), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := NewClient(nil).Call(context.Background(), ts.URL, "urn:whatever", NewEnvelope(xmlutil.NewElement("urn:t", "X")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.BodyEntry().Text() != "urn:whatever" {
		t.Fatalf("fallback action = %q", resp.BodyEntry().Text())
	}
}

func TestServerHandlerFaultAndError(t *testing.T) {
	srv := NewServer()
	srv.Handle("urn:t/Fault", func(context.Context, string, *Envelope) (*Envelope, error) {
		return nil, ClientFault("explicit fault")
	})
	srv.Handle("urn:t/Err", func(context.Context, string, *Envelope) (*Envelope, error) {
		return nil, &plainError{"boom"}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(nil)

	_, err := c.Call(context.Background(), ts.URL, "urn:t/Fault", NewEnvelope(xmlutil.NewElement("urn:t", "X")))
	if f, ok := err.(*Fault); !ok || f.Code != "Client" || f.String != "explicit fault" {
		t.Fatalf("fault err = %v", err)
	}
	_, err = c.Call(context.Background(), ts.URL, "urn:t/Err", NewEnvelope(xmlutil.NewElement("urn:t", "X")))
	if f, ok := err.(*Fault); !ok || f.Code != "Server" || f.String != "boom" {
		t.Fatalf("error err = %v", err)
	}
}

type plainError struct{ s string }

func (e *plainError) Error() string { return e.s }

func TestWSAddressingActionPreferred(t *testing.T) {
	srv := NewServer()
	var got string
	srv.Handle("urn:wsa/Action", func(_ context.Context, action string, req *Envelope) (*Envelope, error) {
		got = action
		return NewEnvelope(xmlutil.NewElement("urn:t", "OK")), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := xmlutil.NewElement("urn:t", "X")
	env := NewEnvelope(body)
	a := xmlutil.NewElement("http://www.w3.org/2005/08/addressing", "Action")
	a.SetText("urn:wsa/Action")
	env.AddHeader(a)
	// HTTP SOAPAction deliberately different; wsa:Action must win.
	if _, err := NewClient(nil).Call(context.Background(), ts.URL, "urn:other", env); err != nil {
		t.Fatal(err)
	}
	if got != "urn:wsa/Action" {
		t.Fatalf("dispatched action = %q", got)
	}
}

func TestServerRejectsGet(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestClientServerRoundTripBytes(t *testing.T) {
	// E-harness sanity: counted bytes equal actual wire payload sizes.
	srv := NewServer()
	srv.Handle("a", func(context.Context, string, *Envelope) (*Envelope, error) {
		return NewEnvelope(xmlutil.NewElement("urn:t", "R")), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(nil)
	req := NewEnvelope(xmlutil.NewElement("urn:t", "Q"))
	want := int64(len(req.Marshal()))
	if _, err := c.Call(context.Background(), ts.URL, "a", req); err != nil {
		t.Fatal(err)
	}
	if c.BytesSent() != want {
		t.Fatalf("BytesSent = %d, want %d", c.BytesSent(), want)
	}
}

func init() { RegisterOpaquePayload("urn:test:opaque", "Blob") }

// TestParseEnvelopeKeepsOpaquePayload: a registered payload element
// comes back holding its content as the bytes that were sent, and a
// re-marshal of the parsed body sends them on unchanged.
func TestParseEnvelopeKeepsOpaquePayload(t *testing.T) {
	const payload = `<p:doc xmlns:p="urn:payload" v='1'><!-- c --><p:cell>a &amp; b</p:cell></p:doc>`
	body := xmlutil.NewElement("urn:test", "Reply")
	body.AddText("urn:test", "Status", "ok")
	blob := body.Add("urn:test:opaque", "Blob")
	blob.Children = append(blob.Children, xmlutil.Raw(payload))
	body.Add("urn:test:other", "Blob").Add("urn:payload", "doc") // same local name, not registered

	env, err := ParseEnvelope(NewEnvelope(body).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got := env.BodyEntry().Find("urn:test:opaque", "Blob")
	if len(got.Children) != 1 || got.Children[0] != xmlutil.Node(xmlutil.Raw(payload)) {
		t.Fatalf("opaque payload = %#v, want the verbatim span", got.Children)
	}
	if other := env.BodyEntry().Find("urn:test:other", "Blob"); other.Find("urn:payload", "doc") == nil {
		t.Fatalf("unregistered element was not parsed: %s", xmlutil.Marshal(other))
	}
	if status := env.BodyEntry().FindText("urn:test", "Status"); status != "ok" {
		t.Fatalf("Status = %q", status)
	}
	if again := NewEnvelope(env.BodyEntry()).Marshal(); !bytes.Contains(again, []byte(payload)) {
		t.Fatalf("re-marshalled envelope lost the payload bytes: %s", again)
	}
}

// TestReplyLengthStatedAndHeldTo: the server states every reply's
// length — a Lazy body entry rendered into the reply's own buffer
// included — and a consumer holds the server to it: a body cut short of
// its Content-Length is a transport error, not a shorter reply.
func TestReplyLengthStatedAndHeldTo(t *testing.T) {
	big := strings.Repeat("<r:row xmlns:r=\"urn:t\">0123456789</r:row>", 4000)
	srv := NewServer()
	srv.Handle("lazy", func(context.Context, string, *Envelope) (*Envelope, error) {
		e := xmlutil.NewElement("urn:t", "R")
		e.Children = append(e.Children, xmlutil.Lazy(func(dst []byte) []byte {
			return append(append(append(dst, `<r:rows xmlns:r="urn:t">`...), big...), `</r:rows>`...)
		}))
		return NewEnvelope(e), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, action := range []string{"lazy", "nobody"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL, bytes.NewReader(NewEnvelope(xmlutil.NewElement("urn:t", "Q")).Marshal()))
		req.Header.Set("SOAPAction", action)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, transfer encoding %v, body %d bytes, %v", action, resp.ContentLength, resp.TransferEncoding, len(body), err)
		}
		if action == "lazy" && !bytes.Contains(body, []byte(big)) {
			t.Fatal("the lazy fragment did not arrive whole")
		}
	}
	if _, err := NewClient(nil).Call(context.Background(), ts.URL, "lazy", NewEnvelope(xmlutil.NewElement("urn:t", "Q"))); err != nil {
		t.Fatalf("a 160 kB reply read into a buffer sized from its Content-Length: %v", err)
	}

	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reply := NewEnvelope(xmlutil.NewElement("urn:t", "R")).Marshal()
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		w.Write(reply[:len(reply)/2])
	}))
	defer cut.Close()
	_, err := NewClient(nil).Call(context.Background(), cut.URL, "a", NewEnvelope(xmlutil.NewElement("urn:t", "Q")))
	if err == nil || !strings.Contains(err.Error(), "soap: read response") {
		t.Fatalf("truncated reply: err = %v, want a read error", err)
	}
}
