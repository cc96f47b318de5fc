// Package soap implements the subset of SOAP 1.1 needed by the DAIS
// specifications: envelope construction and parsing, fault generation
// and decoding, and HTTP transport for both consumers and services.
//
// The DAIS message patterns are defined at the level of SOAP body
// contents (the data resource abstract name is always carried in the
// body, WS-Addressing headers optionally in the header), so this
// package deals in xmlutil element trees rather than Go structs.
package soap

import (
	"bytes"
	"fmt"
	"time"

	"dais/internal/xmlutil"
)

// Namespace URIs used by the envelope layer.
const (
	NSEnvelope = "http://schemas.xmlsoap.org/soap/envelope/"
)

// Envelope is a decoded SOAP 1.1 envelope. Header may be nil; Body
// holds zero or more body entry elements (DAIS messages use exactly
// one).
type Envelope struct {
	Header []*xmlutil.Element
	Body   []*xmlutil.Element
	// Wire is the envelope as it was written, where the stack has it at
	// hand: a request Server read — valid until its handler returns,
	// when the buffer goes back to a pool — or a reply Client.Relay
	// read. An envelope with Wire is sent and written as those bytes:
	// Header and Body are what interceptors read — what was parsed from
	// them, if anything — and editing them changes nothing on the wire.
	Wire []byte
}

// NewEnvelope returns an envelope with the given single body entry.
func NewEnvelope(body *xmlutil.Element) *Envelope {
	return &Envelope{Body: []*xmlutil.Element{body}}
}

// AddHeader appends a header entry.
func (e *Envelope) AddHeader(h *xmlutil.Element) { e.Header = append(e.Header, h) }

// BodyEntry returns the first body entry, or nil for an empty body.
func (e *Envelope) BodyEntry() *xmlutil.Element {
	if len(e.Body) == 0 {
		return nil
	}
	return e.Body[0]
}

// FindHeader returns the first header entry with the given name.
func (e *Envelope) FindHeader(space, local string) *xmlutil.Element {
	for _, h := range e.Header {
		if h.Name.Matches(space, local) {
			return h
		}
	}
	return nil
}

// envelopeElement builds the transient serialisation wrapper. Header
// and body entries are linked through the Children slices directly —
// not AppendChild, which would write their parent pointers — so the
// caller's trees are never cloned or mutated and the same entries can
// be marshalled from multiple goroutines.
func (e *Envelope) envelopeElement() *xmlutil.Element {
	env := xmlutil.NewElement(NSEnvelope, "Envelope")
	if len(e.Header) > 0 {
		hdr := xmlutil.NewElement(NSEnvelope, "Header")
		for _, h := range e.Header {
			hdr.Children = append(hdr.Children, h)
		}
		env.Children = append(env.Children, hdr)
	}
	body := xmlutil.NewElement(NSEnvelope, "Body")
	for _, b := range e.Body {
		body.Children = append(body.Children, b)
	}
	env.Children = append(env.Children, body)
	return env
}

// encodeTo streams the envelope — XML declaration included — into buf
// and accumulates the encode-byte counter.
func (e *Envelope) encodeTo(buf *bytes.Buffer) {
	start := buf.Len()
	buf.WriteString(xmlDecl)
	xmlutil.EncodeTo(buf, e.envelopeElement())
	encodedBytes.Add(int64(buf.Len() - start))
}

// Marshal serialises the envelope, prepending the XML declaration. The
// encode runs through a pooled scratch buffer; the returned slice is a
// right-sized copy owned by the caller.
func (e *Envelope) Marshal() []byte {
	buf := getBuffer(0)
	e.encodeTo(buf)
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	putBuffer(buf)
	return out
}

func init() {
	xmlutil.RegisterVocabulary(NSEnvelope, "Envelope", "Header", "Body", "Fault",
		"faultcode", "faultstring", "faultactor", "detail",
		NSPipeline, requestIDHeader)
}

// opaque lists the payload elements ParseEnvelope keeps verbatim.
var opaque []xmlutil.Name

// RegisterOpaquePayload names an element whose content is a
// self-contained document in its own right (a dataset, say) that most
// receivers decode with a codec of their own or pass on unread.
// ParseEnvelope keeps such content as one xmlutil.Raw child instead of
// building a tree under it (see xmlutil.ParseBytesVerbatim for when the
// tree is built after all). The layer that owns the element's name
// registers it from an init function; registering after the first
// ParseEnvelope is a data race.
func RegisterOpaquePayload(space, local string) {
	opaque = append(opaque, xmlutil.Name{Space: space, Local: local})
}

// ParseEnvelope decodes a serialised envelope. Nothing in the result
// aliases data.
func ParseEnvelope(data []byte) (*Envelope, error) { return parseEnvelope(data, nil) }

// parseEnvelope is ParseEnvelope with the content of opaque payloads
// offered to decode (unless nil) in the same token pass: see
// xmlutil.ParseBytesDecoding.
func parseEnvelope(data []byte, decode xmlutil.PayloadDecoder) (*Envelope, error) {
	root, err := xmlutil.ParseBytesDecoding(data, opaque, decode)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	if root.Name.Space != NSEnvelope || root.Name.Local != "Envelope" {
		return nil, fmt.Errorf("soap: root element %s is not a SOAP envelope", root.Name)
	}
	env := &Envelope{}
	if hdr := root.Find(NSEnvelope, "Header"); hdr != nil {
		env.Header = hdr.ChildElements()
	}
	body := root.Find(NSEnvelope, "Body")
	if body == nil {
		return nil, fmt.Errorf("soap: envelope has no Body")
	}
	env.Body = body.ChildElements()
	return env, nil
}

// Fault is a SOAP 1.1 fault. Detail may carry structured DAIS fault
// information and is optional.
type Fault struct {
	Code   string // qualified fault code local part, e.g. "Client" or "Server"
	String string // human-readable explanation
	Actor  string // optional
	Detail *xmlutil.Element

	// Status and RetryAfter are HTTP transport hints, not part of the
	// serialised fault. A non-zero Status overrides the default 500 the
	// server writes with the fault (503 for overload sheds); a non-zero
	// RetryAfter is written as — and on the consumer side parsed back
	// from — the Retry-After response header, so retry policies can
	// honour the server's pacing hint.
	Status     int
	RetryAfter time.Duration

	// Wire is the envelope the fault arrived in, as Client.Relay read it.
	// A server handler that returns the fault has Wire written as it
	// stands, with Status and RetryAfter: a relay passes a fault on as
	// its author wrote it.
	Wire []byte
}

// Error implements the error interface so faults propagate naturally
// through consumer code.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// Element renders the fault as a SOAP Body entry.
func (f *Fault) Element() *xmlutil.Element {
	el := xmlutil.NewElement(NSEnvelope, "Fault")
	// faultcode is a QName in the envelope namespace per SOAP 1.1.
	el.AddText("", "faultcode", f.Code)
	el.AddText("", "faultstring", f.String)
	if f.Actor != "" {
		el.AddText("", "faultactor", f.Actor)
	}
	if f.Detail != nil {
		d := el.Add("", "detail")
		d.AppendChild(f.Detail.Clone())
	}
	return el
}

// AsFault inspects a body entry and decodes it as a Fault if it is one.
func AsFault(body *xmlutil.Element) (*Fault, bool) {
	if body == nil || body.Name.Local != "Fault" || body.Name.Space != NSEnvelope {
		return nil, false
	}
	f := &Fault{
		Code:   body.FindText("", "faultcode"),
		String: body.FindText("", "faultstring"),
		Actor:  body.FindText("", "faultactor"),
	}
	if d := body.Find("", "detail"); d != nil {
		if kids := d.ChildElements(); len(kids) > 0 {
			f.Detail = kids[0]
		}
	}
	return f, true
}

// ClientFault builds a sender-side fault (bad request).
func ClientFault(format string, args ...any) *Fault {
	return &Fault{Code: "Client", String: fmt.Sprintf(format, args...)}
}

// ServerFault builds a receiver-side fault (processing failure).
func ServerFault(format string, args ...any) *Fault {
	return &Fault{Code: "Server", String: fmt.Sprintf(format, args...)}
}
