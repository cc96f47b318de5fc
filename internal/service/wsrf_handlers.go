package service

import (
	"context"
	"time"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/wsrf"
	"dais/internal/xmlutil"
)

// registerWSRF wires the WS-ResourceProperties and WS-ResourceLifetime
// operations when the WSRF layer is enabled. Per the paper's §5 caveat,
// every WSRF request still carries the data resource abstract name in
// the SOAP body ("you still require the data resource abstract name to
// be included in the message body even if it is only for a WSRF
// implementation to ignore it") — here the service actually uses it to
// select the WS-Resource. The central dispatch extracts the name; the
// handlers receive it along with the OASIS-shaped body.
func (e *Endpoint) registerWSRF() {
	if e.wsrfReg == nil {
		return
	}
	reg := e.wsrfReg

	e.handleNamed(ops.GetResourceProperty, func(ctx context.Context, name string, body *xmlutil.Element) (*xmlutil.Element, error) {
		qname := body.FindText(wsrf.NSRP, "ResourceProperty")
		if qname == "" {
			return nil, &core.InvalidExpressionFault{Detail: "GetResourceProperty requires a ResourceProperty QName"}
		}
		props, err := reg.GetResourceProperty(name, nsOfProperty(qname), localOfQName(qname))
		if err != nil {
			return nil, wsrfErr(err)
		}
		return linkProperties(ops.GetResourceProperty.NewResponse(), props), nil
	})

	e.handleNamed(ops.GetMultipleResourceProperties, func(ctx context.Context, name string, body *xmlutil.Element) (*xmlutil.Element, error) {
		var names []xmlutil.Name
		for _, el := range body.FindAll(wsrf.NSRP, "ResourceProperty") {
			q := el.Text()
			names = append(names, xmlutil.Name{Space: nsOfProperty(q), Local: localOfQName(q)})
		}
		props, err := reg.GetMultipleResourceProperties(name, names)
		if err != nil {
			return nil, wsrfErr(err)
		}
		return linkProperties(ops.GetMultipleResourceProperties.NewResponse(), props), nil
	})

	e.handleNamed(ops.QueryResourceProperties, func(ctx context.Context, name string, body *xmlutil.Element) (*xmlutil.Element, error) {
		expr := body.FindText(wsrf.NSRP, "QueryExpression")
		if expr == "" {
			return nil, &core.InvalidExpressionFault{Detail: "QueryResourceProperties requires a QueryExpression"}
		}
		nodes, err := reg.QueryResourceProperties(name, expr)
		if err != nil {
			return nil, wsrfErr(err)
		}
		resp := ops.QueryResourceProperties.NewResponse()
		for _, n := range nodes {
			resp.AppendChild(n)
		}
		return resp, nil
	})

	e.handleNamed(ops.SetResourceProperties, func(ctx context.Context, name string, body *xmlutil.Element) (*xmlutil.Element, error) {
		res, err := e.svc.Resolve(name)
		if err != nil {
			return nil, err
		}
		cfgRes, ok := res.(core.Configurable)
		if !ok {
			return nil, &core.NotAuthorizedFault{Reason: "resource properties are not updatable"}
		}
		update := body.Find(wsrf.NSRP, "Update")
		if update == nil {
			return nil, &core.InvalidExpressionFault{Detail: "SetResourceProperties requires an Update element"}
		}
		var applyErr error
		cfgRes.UpdateConfiguration(func(c *core.Configuration) {
			for _, p := range update.ChildElements() {
				switch p.Name.Local {
				case "DataResourceDescription":
					c.Description = p.Text()
				case "Readable":
					b, err := core.ParseConfiguration(wrapConfig(p))
					if err != nil {
						applyErr = err
						return
					}
					c.Readable = b.Readable
				case "Writeable":
					b, err := core.ParseConfiguration(wrapConfig(p))
					if err != nil {
						applyErr = err
						return
					}
					c.Writeable = b.Writeable
				case "Sensitivity":
					sv, err := core.ParseSensitivity(p.Text())
					if err != nil {
						applyErr = err
						return
					}
					c.Sensitivity = sv
				case "TransactionIsolation":
					c.TransactionIsolation = p.Text()
				case "TransactionInitiation":
					ti, err := core.ParseTransactionInitiation(p.Text())
					if err != nil {
						applyErr = err
						return
					}
					c.TransactionInitiation = ti
				default:
					applyErr = &core.InvalidExpressionFault{
						Detail: "property " + p.Name.Local + " is not updatable"}
					return
				}
			}
		})
		if applyErr != nil {
			if core.FaultName(applyErr) != "" {
				return nil, applyErr
			}
			return nil, &core.InvalidExpressionFault{Detail: applyErr.Error()}
		}
		// A property write may change anything the cached document
		// fragment captured at build time; drop it so the next
		// GetDataResourcePropertyDocument rebuilds from live state.
		e.svc.InvalidatePropertyDocument(name)
		return ops.SetResourceProperties.NewResponse(), nil
	})

	e.handleNamed(ops.SetTerminationTime, func(ctx context.Context, name string, body *xmlutil.Element) (*xmlutil.Element, error) {
		var requested *time.Time
		rtt := body.Find(wsrf.NSRL, "RequestedTerminationTime")
		if rtt != nil && rtt.AttrValue("", "nil") != "true" {
			t, err := time.Parse(time.RFC3339Nano, rtt.Text())
			if err != nil {
				return nil, &core.InvalidExpressionFault{Detail: "bad RequestedTerminationTime: " + err.Error()}
			}
			requested = &t
		}
		newTT, current, err := reg.SetTerminationTime(name, requested)
		if err != nil {
			return nil, wsrfErr(err)
		}
		resp := ops.SetTerminationTime.NewResponse()
		nt := resp.Add(wsrf.NSRL, "NewTerminationTime")
		if newTT == nil {
			nt.SetAttr("", "nil", "true")
		} else {
			nt.SetText(newTT.UTC().Format(time.RFC3339Nano))
		}
		resp.AddText(wsrf.NSRL, "CurrentTime", current.UTC().Format(time.RFC3339Nano))
		return resp, nil
	})

	e.handleNamed(ops.WSRFDestroy, func(ctx context.Context, name string, body *xmlutil.Element) (*xmlutil.Element, error) {
		if err := reg.Destroy(name); err != nil {
			return nil, wsrfErr(err)
		}
		return ops.WSRFDestroy.NewResponse(), nil
	})
}

// linkProperties makes props the children of resp without writing to
// them: the registry hands out elements that other replies share (the
// cached static properties), and serialisation follows Children only.
func linkProperties(resp *xmlutil.Element, props []*xmlutil.Element) *xmlutil.Element {
	resp.Children = make([]xmlutil.Node, len(props))
	for i, p := range props {
		resp.Children[i] = p
	}
	return resp
}

// wrapConfig wraps a single property element in a ConfigurationDocument
// so the shared core parser can validate it.
func wrapConfig(p *xmlutil.Element) *xmlutil.Element {
	doc := xmlutil.NewElement(core.NSDAI, "ConfigurationDocument")
	cp := xmlutil.NewElement(core.NSDAI, p.Name.Local)
	cp.SetText(p.Text())
	doc.AppendChild(cp)
	return doc
}

// wsrfErr maps registry errors to DAIS faults.
func wsrfErr(err error) error {
	if _, ok := err.(*wsrf.UnknownResourceError); ok {
		return &core.InvalidResourceNameFault{Name: err.Error()}
	}
	if core.FaultName(err) != "" {
		return err
	}
	return &core.InvalidExpressionFault{Detail: err.Error()}
}

// nsOfProperty resolves the namespace for a property QName: DAIS
// properties live in the WS-DAI namespace; prefixed names select the realisation or
// lifetime namespaces.
func nsOfProperty(q string) string {
	switch {
	case len(q) > 5 && q[:5] == "dair:":
		return ops.NSDAIR
	case len(q) > 5 && q[:5] == "daix:":
		return ops.NSDAIX
	case len(q) > 5 && q[:5] == "wsrl:":
		return wsrf.NSRL
	}
	return core.NSDAI
}
