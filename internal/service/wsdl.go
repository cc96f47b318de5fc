package service

import (
	"net/http"

	"dais/internal/core"
	"dais/internal/xmlutil"
)

// WSDL-related namespaces.
const (
	NSWSDL     = "http://schemas.xmlsoap.org/wsdl/"
	NSWSDLSOAP = "http://schemas.xmlsoap.org/wsdl/soap/"
	NSWSAW     = "http://www.w3.org/2006/05/addressing/wsdl"
)

// DescriptionDocument generates a WSDL 1.1 skeleton for the endpoint
// directly from the operation registry: one portType whose operations
// are the enabled DAIS specs, each annotated with its wsa:Action URI
// and interface class, plus a SOAP binding and a service element
// carrying the endpoint address. The paper's specs "define consistent
// interfaces, generally couched as web services" (§1) — serving the
// interface description is how 2005-era consumers discovered them.
func (e *Endpoint) DescriptionDocument() *xmlutil.Element {
	name := e.svc.Name()
	if name == "" {
		name = "DataService"
	}
	defs := xmlutil.NewElement(NSWSDL, "definitions")
	defs.SetAttr("", "name", name)
	defs.SetAttr("", "targetNamespace", core.NSDAI)

	specs := e.registry.Specs()

	// Messages: one request/response pair per operation.
	for _, s := range specs {
		in := defs.Add(NSWSDL, "message")
		in.SetAttr("", "name", s.Op+"Request")
		inPart := in.Add(NSWSDL, "part")
		inPart.SetAttr("", "name", "body")
		inPart.SetAttr("", "element", "tns:"+s.Op+"Request")
		out := defs.Add(NSWSDL, "message")
		out.SetAttr("", "name", s.Op+"Response")
		outPart := out.Add(NSWSDL, "part")
		outPart.SetAttr("", "name", "body")
		outPart.SetAttr("", "element", "tns:"+s.Op+"Response")
	}

	pt := defs.Add(NSWSDL, "portType")
	pt.SetAttr("", "name", name+"PortType")
	for _, s := range specs {
		op := pt.Add(NSWSDL, "operation")
		op.SetAttr("", "name", s.Op)
		op.AddText(NSWSDL, "documentation", "Interface class: "+s.Class)
		in := op.Add(NSWSDL, "input")
		in.SetAttr("", "message", "tns:"+s.Op+"Request")
		in.SetAttr(NSWSAW, "Action", s.Action)
		out := op.Add(NSWSDL, "output")
		out.SetAttr("", "message", "tns:"+s.Op+"Response")
		out.SetAttr(NSWSAW, "Action", s.Action+"Response")
	}

	binding := defs.Add(NSWSDL, "binding")
	binding.SetAttr("", "name", name+"SOAPBinding")
	binding.SetAttr("", "type", "tns:"+name+"PortType")
	sb := binding.Add(NSWSDLSOAP, "binding")
	sb.SetAttr("", "style", "document")
	sb.SetAttr("", "transport", "http://schemas.xmlsoap.org/soap/http")
	for _, s := range specs {
		op := binding.Add(NSWSDL, "operation")
		op.SetAttr("", "name", s.Op)
		sop := op.Add(NSWSDLSOAP, "operation")
		sop.SetAttr("", "soapAction", s.Action)
	}

	svc := defs.Add(NSWSDL, "service")
	svc.SetAttr("", "name", name)
	port := svc.Add(NSWSDL, "port")
	port.SetAttr("", "name", name+"Port")
	port.SetAttr("", "binding", "tns:"+name+"SOAPBinding")
	addr := port.Add(NSWSDLSOAP, "address")
	addr.SetAttr("", "location", e.svc.Address())
	return defs
}

// serveWSDL answers GET ?wsdl requests with the generated description.
func (e *Endpoint) serveWSDL(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Write([]byte(`<?xml version="1.0" encoding="UTF-8"?>`)) //nolint:errcheck
	w.Write(xmlutil.MarshalIndent(e.DescriptionDocument()))   //nolint:errcheck
}
