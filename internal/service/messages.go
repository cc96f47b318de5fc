// Package service binds the WS-DAI, WS-DAIR, WS-DAIX and WS-DAIF
// operations to SOAP over HTTP, preserving the message patterns the
// paper prescribes: every request carries the data resource abstract
// name in the SOAP body (paper §3: "DAIS mandates the inclusion of the
// data resource's abstract name in the body of the message so that the
// messaging framework is the same regardless of whether WSRF is used
// or not"), with an optional WS-Addressing EPR in the header; factory
// responses return EPRs whose reference parameters carry the derived
// resource's abstract name; and the optional WSRF layer adds
// fine-grained property access and soft-state lifetime management over
// the same resources.
//
// The operation inventory itself — action URIs, request/response
// element shapes, interface classes, resource kinds — lives in the
// declarative catalog of package ops; this package contributes only
// the HTTP/SOAP binding and the business logic behind each spec.
package service

import (
	"fmt"

	"dais/internal/core"
	"dais/internal/xmlutil"
)

// NewRequest builds a request body element in the given namespace with
// the mandatory DataResourceAbstractName child.
func NewRequest(ns, local, abstractName string) *xmlutil.Element {
	e := xmlutil.NewElement(ns, local)
	e.AddText(core.NSDAI, "DataResourceAbstractName", abstractName)
	return e
}

// AbstractNameOf extracts the mandatory abstract name from a request
// body, enforcing the §3/§5 framing rule.
func AbstractNameOf(body *xmlutil.Element) (string, error) {
	if body == nil {
		return "", fmt.Errorf("service: empty request body")
	}
	n := body.FindText(core.NSDAI, "DataResourceAbstractName")
	if n == "" {
		return "", fmt.Errorf("service: request %s is missing the DataResourceAbstractName body element", body.Name.Local)
	}
	return n, nil
}
