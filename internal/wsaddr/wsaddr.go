// Package wsaddr implements the parts of W3C WS-Addressing 1.0 that the
// DAIS specifications rely on: endpoint references (EPRs) with
// reference parameters, and the message addressing headers
// (To/Action/MessageID/RelatesTo/ReplyTo) carried in SOAP headers.
//
// An indirect-access factory operation returns an EPR whose reference
// parameters contain the derived data resource's abstract name; a
// consumer (or a third party it hands the EPR to) then targets that
// resource by echoing the reference parameters into its request
// headers. DAIS additionally mandates the abstract name in the SOAP
// body, which the service layer enforces.
package wsaddr

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"dais/internal/soap"
	"dais/internal/xmlutil"
)

// Namespace URIs.
const (
	NS = "http://www.w3.org/2005/08/addressing"

	// AnonymousURI is the WS-Addressing anonymous endpoint, denoting
	// "reply on the transport back-channel".
	AnonymousURI = NS + "/anonymous"
	// NoneURI denotes "send no reply".
	NoneURI = NS + "/none"
)

func init() {
	xmlutil.RegisterVocabulary(NS, "To", "Action", "MessageID", "RelatesTo", "ReplyTo",
		"Address", "ReferenceParameters", "Metadata", "IsReferenceParameter")
}

// EndpointReference identifies a web service endpoint plus optional
// reference parameters that the endpoint requires echoed on every
// message addressed through the EPR.
type EndpointReference struct {
	Address             string
	ReferenceParameters []*xmlutil.Element
	Metadata            []*xmlutil.Element
}

// NewEPR returns an EPR for the given address.
func NewEPR(address string) *EndpointReference {
	return &EndpointReference{Address: address}
}

// AddReferenceParameter appends a reference parameter element.
func (e *EndpointReference) AddReferenceParameter(p *xmlutil.Element) {
	e.ReferenceParameters = append(e.ReferenceParameters, p)
}

// ReferenceParameter returns the first reference parameter with the
// given name, or nil.
func (e *EndpointReference) ReferenceParameter(space, local string) *xmlutil.Element {
	for _, p := range e.ReferenceParameters {
		if p.Name.Matches(space, local) {
			return p
		}
	}
	return nil
}

// Element renders the EPR with the given element name (DAIS responses
// embed EPRs under names like DataResourceAddress).
func (e *EndpointReference) Element(space, local string) *xmlutil.Element {
	el := xmlutil.NewElement(space, local)
	el.AddText(NS, "Address", e.Address)
	if len(e.ReferenceParameters) > 0 {
		rp := el.Add(NS, "ReferenceParameters")
		for _, p := range e.ReferenceParameters {
			rp.AppendChild(p.Clone())
		}
	}
	if len(e.Metadata) > 0 {
		md := el.Add(NS, "Metadata")
		for _, m := range e.Metadata {
			md.AppendChild(m.Clone())
		}
	}
	return el
}

// ParseEPR decodes an EPR from an element produced by Element (or any
// WS-Addressing EndpointReferenceType).
func ParseEPR(el *xmlutil.Element) (*EndpointReference, error) {
	if el == nil {
		return nil, fmt.Errorf("wsaddr: nil EPR element")
	}
	addr := el.Find(NS, "Address")
	if addr == nil {
		return nil, fmt.Errorf("wsaddr: EPR %s missing Address", el.Name)
	}
	epr := &EndpointReference{Address: addr.Text()}
	if rp := el.Find(NS, "ReferenceParameters"); rp != nil {
		for _, p := range rp.ChildElements() {
			epr.ReferenceParameters = append(epr.ReferenceParameters, p.Clone())
		}
	}
	if md := el.Find(NS, "Metadata"); md != nil {
		for _, m := range md.ChildElements() {
			epr.Metadata = append(epr.Metadata, m.Clone())
		}
	}
	return epr, nil
}

// MessageHeaders is the set of WS-Addressing message addressing
// properties DAIS messages use.
type MessageHeaders struct {
	To        string
	Action    string
	MessageID string
	RelatesTo string
	ReplyTo   *EndpointReference
	// ReferenceParameters carries EPR reference parameters echoed back
	// to the service (each is marked with wsa:IsReferenceParameter).
	ReferenceParameters []*xmlutil.Element
}

// NewMessageID generates a unique urn:uuid message identifier.
func NewMessageID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("wsaddr: rand: " + err.Error())
	}
	// RFC 4122 version 4 variant bits.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	// "urn:uuid:" and the 8-4-4-4-12 hex groups, written in place: every
	// request and every reply mints one.
	var out [9 + 36]byte
	copy(out[:], "urn:uuid:")
	dst := out[9:]
	for _, group := range [...][]byte{b[0:4], b[4:6], b[6:8], b[8:10], b[10:16]} {
		hex.Encode(dst, group)
		dst = dst[2*len(group):]
		if len(dst) > 0 {
			dst[0] = '-'
			dst = dst[1:]
		}
	}
	return string(out[:])
}

// Attach adds the headers to a SOAP envelope.
func (h *MessageHeaders) Attach(env *soap.Envelope) {
	add := func(local, text string) {
		if text == "" {
			return
		}
		el := xmlutil.NewElement(NS, local)
		el.SetText(text)
		env.AddHeader(el)
	}
	add("To", h.To)
	add("Action", h.Action)
	add("MessageID", h.MessageID)
	add("RelatesTo", h.RelatesTo)
	if h.ReplyTo != nil {
		env.AddHeader(h.ReplyTo.Element(NS, "ReplyTo"))
	}
	for _, p := range h.ReferenceParameters {
		cp := p.Clone()
		cp.SetAttr(NS, "IsReferenceParameter", "true")
		env.AddHeader(cp)
	}
}

// FromEnvelope extracts the addressing headers from a SOAP envelope.
// Unknown headers marked IsReferenceParameter are collected into
// ReferenceParameters.
func FromEnvelope(env *soap.Envelope) *MessageHeaders {
	h := &MessageHeaders{}
	for _, el := range env.Header {
		if el.Name.Space != NS {
			if el.AttrValue(NS, "IsReferenceParameter") == "true" {
				h.ReferenceParameters = append(h.ReferenceParameters, el.Clone())
			}
			continue
		}
		switch el.Name.Local {
		case "To":
			h.To = el.Text()
		case "Action":
			h.Action = el.Text()
		case "MessageID":
			h.MessageID = el.Text()
		case "RelatesTo":
			h.RelatesTo = el.Text()
		case "ReplyTo":
			if epr, err := ParseEPR(el); err == nil {
				h.ReplyTo = epr
			}
		default:
			if el.AttrValue(NS, "IsReferenceParameter") == "true" {
				h.ReferenceParameters = append(h.ReferenceParameters, el.Clone())
			}
		}
	}
	return h
}

// RequestHeaders builds the standard request header set for a message
// addressed to the given EPR with the given action: To from the EPR's
// address, a fresh MessageID, anonymous ReplyTo, and the EPR's
// reference parameters echoed.
func RequestHeaders(epr *EndpointReference, action string) *MessageHeaders {
	h := &MessageHeaders{
		To:        epr.Address,
		Action:    action,
		MessageID: NewMessageID(),
		ReplyTo:   NewEPR(AnonymousURI),
	}
	for _, p := range epr.ReferenceParameters {
		h.ReferenceParameters = append(h.ReferenceParameters, p.Clone())
	}
	return h
}

// ReplyHeaders builds response headers relating to the given request.
func ReplyHeaders(req *MessageHeaders, action string) *MessageHeaders {
	return &MessageHeaders{
		Action:    action,
		MessageID: NewMessageID(),
		RelatesTo: req.MessageID,
	}
}
