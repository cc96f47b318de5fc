// Package client is the typed Go consumer library for DAIS services:
// it speaks the WS-DAI / WS-DAIR / WS-DAIX / WS-DAIF SOAP message
// patterns against any endpoint, follows EPRs returned by factories
// (including EPRs handed over by third parties, paper Fig. 5), and
// exposes the optional WSRF operations. Every method is a thin call
// through the declarative operation catalog of package ops: the spec
// supplies the action URI, the request element shape and the mandatory
// abstract-name framing; the shared message codecs supply the body —
// the same codecs the service decodes with, so both sides agree by
// construction.
package client

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/wsaddr"
	"dais/internal/wsrf"
	"dais/internal/xmlutil"
)

// decodeFormats is the shared codec registry dataset responses decode
// through. Codecs are stateless, so one registry serves every client
// instead of rebuilding the three-codec map per response.
var decodeFormats = rowset.NewRegistry()

// ResourceRef addresses one data resource: a service endpoint URL plus
// the resource's abstract name. It corresponds to a WS-Addressing EPR
// whose reference parameters carry the abstract name.
type ResourceRef struct {
	Address      string
	AbstractName string
}

// Ref builds a reference from its parts.
func Ref(address, abstractName string) ResourceRef {
	return ResourceRef{Address: address, AbstractName: abstractName}
}

// FromEPR extracts a reference from an EPR (a factory response or a
// hand-off from another consumer).
func FromEPR(epr *wsaddr.EndpointReference) (ResourceRef, error) {
	if epr == nil {
		return ResourceRef{}, fmt.Errorf("client: nil EPR")
	}
	p := epr.ReferenceParameter(core.NSDAI, "DataResourceAbstractName")
	if p == nil {
		return ResourceRef{}, fmt.Errorf("client: EPR has no DataResourceAbstractName reference parameter")
	}
	return ResourceRef{Address: epr.Address, AbstractName: p.Text()}, nil
}

// EPR renders the reference back into a WS-Addressing EPR (for handing
// to a third party).
func (r ResourceRef) EPR() *wsaddr.EndpointReference {
	epr := wsaddr.NewEPR(r.Address)
	p := xmlutil.NewElement(core.NSDAI, "DataResourceAbstractName")
	p.SetText(r.AbstractName)
	epr.AddReferenceParameter(p)
	return epr
}

// Client is a DAIS consumer.
type Client struct {
	soap *soap.Client
}

// New builds a client over the given HTTP client (nil for the default).
// Every call runs through the request-ID interceptor — so each request
// carries a correlatable ID in its SOAP header — then the telemetry
// interceptor recording consumer-side metrics and spans, followed by
// any extra interceptors supplied here (outermost first).
func New(hc *http.Client, interceptors ...soap.Interceptor) *Client {
	return NewObserved(hc, telemetry.Default, interceptors...)
}

// NewObserved is New recording into a specific observer (nil disables
// client-side instrumentation).
func NewObserved(hc *http.Client, obs *telemetry.Observer, interceptors ...soap.Interceptor) *Client {
	cfg := resil.DefaultClientConfig()
	return NewResilient(hc, obs, cfg, interceptors...)
}

// NewResilient is NewObserved with an explicit resilience policy. The
// interceptor chain runs request-ID, telemetry, resilience, then the
// extra interceptors: retries happen inside the telemetry boundary so
// each logical call stays one metric observation and one span however
// many attempts it takes. The resilience layer retries only operations
// the ops catalog marks idempotent, within the caller's context
// deadline, and trips a per-endpoint circuit breaker on consecutive
// transport failures (see internal/resil). A zero ClientConfig disables
// retries and breaking.
func NewResilient(hc *http.Client, obs *telemetry.Observer, cfg resil.ClientConfig, interceptors ...soap.Interceptor) *Client {
	if cfg.Observer == nil {
		cfg.Observer = obs
	}
	ics := []soap.Interceptor{soap.ClientRequestID()}
	if obs != nil {
		ics = append(ics, obs.ClientInterceptor())
	}
	ics = append(ics, resil.NewClientResilience(cfg))
	ics = append(ics, interceptors...)
	sc := soap.NewClient(hc, ics...)
	if obs != nil {
		sc.OnExchange(obs.ExchangeObserver(telemetry.SideClient))
	}
	return &Client{soap: sc}
}

// BytesSent and BytesReceived expose wire counters for the evaluation
// harness.
func (c *Client) BytesSent() int64     { return c.soap.BytesSent() }
func (c *Client) BytesReceived() int64 { return c.soap.BytesReceived() }

// ResetCounters zeroes the wire counters.
func (c *Client) ResetCounters() { c.soap.ResetCounters() }

// call performs one SOAP request/response round trip with WS-Addressing
// headers, returning the response body element.
func (c *Client) call(ctx context.Context, address, action string, body *xmlutil.Element) (*xmlutil.Element, error) {
	resp, err := c.soap.Call(ctx, address, action, Request(address, action, body))
	if err != nil {
		return nil, service.DecodeFault(err)
	}
	return resp.BodyEntry(), nil
}

// Request wraps a request body in the envelope every call sends: the
// WS-Addressing headers addressing it to address, with a fresh
// MessageID and an anonymous ReplyTo.
func Request(address, action string, body *xmlutil.Element) *soap.Envelope {
	env := soap.NewEnvelope(body)
	h := &wsaddr.MessageHeaders{
		To:        address,
		Action:    action,
		MessageID: wsaddr.NewMessageID(),
		ReplyTo:   wsaddr.NewEPR(wsaddr.AnonymousURI),
	}
	h.Attach(env)
	return env
}

// invoke performs one operation per its catalog spec: the spec builds
// the request element (with the mandatory abstract name and any
// advertised PortTypeQName), the message encodes the body, and the
// operation metadata rides the context for client interceptors.
func (c *Client) invoke(ctx context.Context, ref ResourceRef, spec ops.Spec, msg ops.Msg) (*xmlutil.Element, error) {
	req := spec.NewRequest(ref.AbstractName)
	if msg != nil {
		msg.Encode(spec, req)
	}
	return c.call(ops.WithCallInfo(ctx, spec.Info()), ref.Address, spec.Action, req)
}

// Relay performs one operation with a caller-built request envelope —
// sent as its Wire where it has one (a request a server read and passes
// on), as Request builds it otherwise — and hands the reply back as it
// was written (soap.Client.Relay): the federation gateway passes
// replies on through this. The catalog metadata rides the context, so
// the resilience interceptor sees the idempotency class and telemetry
// labels the call. A fault comes back as the *soap.Fault the reply
// carried, its Wire set; service.DecodeFault types it.
func (c *Client) Relay(ctx context.Context, address string, spec ops.Spec, req *soap.Envelope) (*soap.Envelope, error) {
	return c.soap.Relay(ops.WithCallInfo(ctx, spec.Info()), address, spec.Action, req)
}

// factory is invoke for the indirect access pattern (paper Fig. 3):
// the response's DataResourceAddress EPR becomes a new reference.
func (c *Client) factory(ctx context.Context, ref ResourceRef, spec ops.Spec, msg ops.Msg) (ResourceRef, error) {
	resp, err := c.invoke(ctx, ref, spec, msg)
	if err != nil {
		return ResourceRef{}, err
	}
	return refFromResponse(resp, ref.Address)
}

// intField parses the decimal count a reply carries in the named
// element. A reply without the element, or with anything but a number
// in it, is malformed: reporting 0 would pass for a real answer.
func intField(name, text string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(text))
	if err != nil {
		return 0, fmt.Errorf("client: response %s %q is not an integer", name, text)
	}
	return n, nil
}

// refFromResponse extracts the DataResourceAddress EPR from a factory
// response. The EPR's own address wins — a gateway or a relocated
// resource may answer at a different endpoint than the one dialed — but
// an endpoint that doesn't know its public address sends an empty or
// anonymous address, and then the dialed address is the only usable one.
func refFromResponse(resp *xmlutil.Element, dialed string) (ResourceRef, error) {
	epr, err := ops.ResourceAddress(resp)
	if err != nil {
		return ResourceRef{}, err
	}
	ref, err := FromEPR(epr)
	if err != nil {
		return ResourceRef{}, err
	}
	if ref.Address == "" || ref.Address == wsaddr.AnonymousURI {
		ref.Address = dialed
	}
	return ref, nil
}

// --- WS-DAI core ---

// GetPropertyDocument fetches the whole WS-DAI property document
// (paper §4.3; the only granularity available without WSRF).
func (c *Client) GetPropertyDocument(ctx context.Context, ref ResourceRef) (*xmlutil.Element, error) {
	resp, err := c.invoke(ctx, ref, ops.GetPropertyDocument, nil)
	if err != nil {
		return nil, err
	}
	doc := resp.Find(core.NSDAI, "DataResourcePropertyDocument")
	if doc == nil {
		return nil, fmt.Errorf("client: response missing property document")
	}
	return doc, nil
}

// GenericQuery runs a query in an advertised language.
func (c *Client) GenericQuery(ctx context.Context, ref ResourceRef, languageURI, expression string) (*xmlutil.Element, error) {
	resp, err := c.invoke(ctx, ref, ops.GenericQuery,
		ops.GenericQueryMsg{Language: languageURI, Expression: expression})
	if err != nil {
		return nil, err
	}
	kids := resp.ChildElements()
	if len(kids) == 0 {
		return nil, fmt.Errorf("client: empty GenericQuery response")
	}
	return kids[0], nil
}

// DestroyDataResource removes the service / resource relationship.
func (c *Client) DestroyDataResource(ctx context.Context, ref ResourceRef) error {
	_, err := c.invoke(ctx, ref, ops.DestroyDataResource, nil)
	return err
}

// GetResourceList lists the abstract names a service knows.
func (c *Client) GetResourceList(ctx context.Context, address string) ([]string, error) {
	resp, err := c.invoke(ctx, Ref(address, ""), ops.GetResourceList, nil)
	if err != nil {
		return nil, err
	}
	return ops.ParseResourceList(resp), nil
}

// Resolve maps an abstract name to a full resource reference.
func (c *Client) Resolve(ctx context.Context, address, abstractName string) (ResourceRef, error) {
	return c.factory(ctx, Ref(address, abstractName), ops.ResolveName, nil)
}

// --- WS-DAIR ---

// SQLResult is the decoded outcome of a direct SQLExecute.
type SQLResult struct {
	Set         *sqlengine.ResultSet // nil for updates or undecodable formats
	Raw         []byte               // dataset bytes as shipped
	FormatURI   string
	UpdateCount int // -1 for queries
	CA          sqlengine.SQLCA
}

// SQLExecute performs direct data access (paper Fig. 2): the data comes
// back in the response. formatURI "" selects the SQLRowset default.
func (c *Client) SQLExecute(ctx context.Context, ref ResourceRef, expression string, params []sqlengine.Value, formatURI string) (*SQLResult, error) {
	resp, err := c.invoke(ctx, ref, ops.SQLExecute, ops.SQLExecuteMsg{
		Expr:      ops.SQLExpression{Expression: expression, Params: params},
		FormatURI: formatURI,
	})
	if err != nil {
		return nil, err
	}
	out := &SQLResult{UpdateCount: -1}
	// A reply may omit the communication area, but not garble it.
	if caEl := resp.Find(ops.NSDAIR, "SQLCommunicationArea"); caEl != nil {
		if out.CA, err = dair.ParseCommunicationArea(caEl); err != nil {
			return nil, err
		}
	}
	if uc := resp.Find(ops.NSDAIR, "UpdateCount"); uc != nil {
		if out.UpdateCount, err = intField("UpdateCount", uc.Text()); err != nil {
			return nil, err
		}
		return out, nil
	}
	ds := resp.Find(core.NSDAI, "Dataset")
	if ds == nil {
		return out, nil
	}
	out.Raw, out.FormatURI = ops.DatasetPayload(ds)
	if codec, err := decodeFormats.Lookup(out.FormatURI); err == nil {
		if set, derr := codec.Decode(out.Raw); derr == nil {
			out.Set = set
		}
	}
	return out, nil
}

// SQLExecuteFactory performs indirect access (paper Fig. 3): the
// response is an EPR to a derived SQLResponse resource.
func (c *Client) SQLExecuteFactory(ctx context.Context, ref ResourceRef, expression string, params []sqlengine.Value, cfg *core.Configuration) (ResourceRef, error) {
	return c.factory(ctx, ref, ops.SQLExecuteFactory, ops.SQLFactoryMsg{
		Expr:   ops.SQLExpression{Expression: expression, Params: params},
		Config: cfg,
	})
}

// GetSQLRowset fetches the index-th rowset of a response resource.
func (c *Client) GetSQLRowset(ctx context.Context, ref ResourceRef, index int) (*sqlengine.ResultSet, error) {
	resp, err := c.invoke(ctx, ref, ops.GetSQLRowset, ops.IndexMsg{Index: index})
	if err != nil {
		return nil, err
	}
	rs := resp.Find(rowset.NSDAIR, "SQLRowset")
	if rs == nil {
		return nil, fmt.Errorf("client: response missing SQLRowset")
	}
	return rowset.DecodeSQLRowsetElement(rs)
}

// GetSQLUpdateCount fetches the index-th update count.
func (c *Client) GetSQLUpdateCount(ctx context.Context, ref ResourceRef, index int) (int, error) {
	resp, err := c.invoke(ctx, ref, ops.GetSQLUpdateCount, ops.IndexMsg{Index: index})
	if err != nil {
		return 0, err
	}
	return intField("UpdateCount", resp.FindText(ops.NSDAIR, "UpdateCount"))
}

// GetSQLCommunicationArea fetches the response's communication area.
func (c *Client) GetSQLCommunicationArea(ctx context.Context, ref ResourceRef) (sqlengine.SQLCA, error) {
	resp, err := c.invoke(ctx, ref, ops.GetSQLCommunicationArea, nil)
	if err != nil {
		return sqlengine.SQLCA{}, err
	}
	caEl := resp.Find(ops.NSDAIR, "SQLCommunicationArea")
	if caEl == nil {
		return sqlengine.SQLCA{}, fmt.Errorf("client: response missing SQLCommunicationArea")
	}
	return dair.ParseCommunicationArea(caEl)
}

// SQLRowsetFactory derives a rowset resource from a response resource
// (the second hop of Fig. 5). count 0 copies every row.
func (c *Client) SQLRowsetFactory(ctx context.Context, ref ResourceRef, formatURI string, count int, cfg *core.Configuration) (ResourceRef, error) {
	return c.factory(ctx, ref, ops.SQLRowsetFactory, ops.RowsetFactoryMsg{
		FormatURI: formatURI, Count: count, Config: cfg,
	})
}

// GetTuples pages through a rowset resource (the third hop of Fig. 5),
// returning the raw dataset bytes and their format URI.
func (c *Client) GetTuples(ctx context.Context, ref ResourceRef, startPosition, count int) ([]byte, string, error) {
	resp, err := c.invoke(ctx, ref, ops.GetTuples,
		ops.PageMsg{Start: startPosition, Count: count})
	if err != nil {
		return nil, "", err
	}
	data, format := ops.DatasetPayload(resp.Find(core.NSDAI, "Dataset"))
	return data, format, nil
}

// GetTuplesSet is GetTuples decoded into a result set. The decoding
// happens where the envelope parser reaches the dataset, in the same
// pass over the reply, when the format's one-pass decoder takes it; a
// dataset it leaves alone arrives as GetTuples' bytes and is decoded
// from those, so the result and any error are Decode's either way.
func (c *Client) GetTuplesSet(ctx context.Context, ref ResourceRef, startPosition, count int) (*sqlengine.ResultSet, error) {
	var inPass datasetDecoder
	resp, err := c.invoke(soap.WithPayloadDecoder(ctx, inPass.decode), ref, ops.GetTuples,
		ops.PageMsg{Start: startPosition, Count: count})
	if err != nil {
		return nil, err
	}
	ds := resp.Find(core.NSDAI, "Dataset")
	if ds != nil && ds == inPass.el {
		return inPass.set, nil
	}
	data, format := ops.DatasetPayload(ds)
	codec, err := decodeFormats.Lookup(format)
	if err != nil {
		return nil, err
	}
	return codec.Decode(data)
}

// datasetDecoder is the payload decoder of a call that wants its
// reply's dai:Dataset as a result set. el says which Dataset element set
// was decoded from: a retried call parses more than one reply.
type datasetDecoder struct {
	el  *xmlutil.Element
	set *sqlengine.ResultSet
}

func (d *datasetDecoder) decode(el *xmlutil.Element, t *xmlutil.Tokenizer) bool {
	codec, err := decodeFormats.Lookup(el.AttrValue("", "formatURI"))
	if err != nil {
		return false
	}
	inTokens, ok := codec.(rowset.TokenDecoder)
	if !ok {
		return false
	}
	set, ok := inTokens.DecodeTokens(t)
	if ok {
		d.el, d.set = el, set
	}
	return ok
}

// --- WSRF ---

// GetResourceProperty fetches one property by QName (prefix dair:/daix:
// selects the realisation namespace; wsrl: the lifetime namespace).
func (c *Client) GetResourceProperty(ctx context.Context, ref ResourceRef, qname string) ([]*xmlutil.Element, error) {
	resp, err := c.invoke(ctx, ref, ops.GetResourceProperty,
		ops.MsgFunc(func(s ops.Spec, req *xmlutil.Element) {
			req.AddText(wsrf.NSRP, "ResourceProperty", qname)
		}))
	if err != nil {
		return nil, err
	}
	return resp.ChildElements(), nil
}

// QueryResourceProperties evaluates an XPath over the property
// document.
func (c *Client) QueryResourceProperties(ctx context.Context, ref ResourceRef, expr string) ([]*xmlutil.Element, error) {
	resp, err := c.invoke(ctx, ref, ops.QueryResourceProperties,
		ops.MsgFunc(func(s ops.Spec, req *xmlutil.Element) {
			req.AddText(wsrf.NSRP, "QueryExpression", expr)
		}))
	if err != nil {
		return nil, err
	}
	return resp.ChildElements(), nil
}

// SetResourceProperties updates configurable WS-DAI properties through
// the WSRF interface. Keys are property local names in the WS-DAI
// namespace (Readable, Writeable, DataResourceDescription,
// Sensitivity, TransactionIsolation, TransactionInitiation).
func (c *Client) SetResourceProperties(ctx context.Context, ref ResourceRef, props map[string]string) error {
	_, err := c.invoke(ctx, ref, ops.SetResourceProperties,
		ops.MsgFunc(func(s ops.Spec, req *xmlutil.Element) {
			update := req.Add(wsrf.NSRP, "Update")
			for k, v := range props {
				update.AddText(core.NSDAI, k, v)
			}
		}))
	return err
}

// SetTerminationTime schedules (or clears, with nil) a resource's
// soft-state termination.
func (c *Client) SetTerminationTime(ctx context.Context, ref ResourceRef, t *time.Time) (*time.Time, error) {
	resp, err := c.invoke(ctx, ref, ops.SetTerminationTime,
		ops.MsgFunc(func(s ops.Spec, req *xmlutil.Element) {
			rtt := req.Add(wsrf.NSRL, "RequestedTerminationTime")
			if t == nil {
				rtt.SetAttr("", "nil", "true")
			} else {
				rtt.SetText(t.UTC().Format(time.RFC3339Nano))
			}
		}))
	if err != nil {
		return nil, err
	}
	nt := resp.Find(wsrf.NSRL, "NewTerminationTime")
	if nt == nil || nt.AttrValue("", "nil") == "true" {
		return nil, nil
	}
	parsed, err := time.Parse(time.RFC3339Nano, nt.Text())
	if err != nil {
		return nil, err
	}
	return &parsed, nil
}

// WSRFDestroy destroys the resource through the lifetime interface.
func (c *Client) WSRFDestroy(ctx context.Context, ref ResourceRef) error {
	_, err := c.invoke(ctx, ref, ops.WSRFDestroy, nil)
	return err
}
