package soap

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dais/internal/xmlutil"
)

// contentType is the SOAP 1.1 HTTP media type.
const contentType = "text/xml; charset=utf-8"

// maxPresizedReply is the largest Content-Length a consumer takes a
// server's word for when it sizes its read buffer; a longer reply, or a
// header that lies, is read by doubling as before.
const maxPresizedReply = 64 << 20

// HTTPError reports a non-2xx HTTP status on a response that otherwise
// parsed as a fault-free envelope. The envelope is still returned to the
// caller alongside this error. RetryAfter carries the response's
// Retry-After hint (0 when absent) for retry policies.
type HTTPError struct {
	StatusCode int
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("soap: HTTP status %d with non-fault envelope", e.StatusCode)
}

// endpointKey is the context key carrying the endpoint URL of the call
// in flight, stamped by Client.Call so interceptors (per-endpoint
// circuit breakers, tracing) can key state by target without seeing the
// transport layer.
type endpointKey struct{}

// WithEndpoint returns a context annotated with the call's endpoint URL.
func WithEndpoint(ctx context.Context, url string) context.Context {
	return context.WithValue(ctx, endpointKey{}, url)
}

// EndpointFromContext returns the endpoint URL stamped by Client.Call,
// or "" outside a client call.
func EndpointFromContext(ctx context.Context) string {
	url, _ := ctx.Value(endpointKey{}).(string)
	return url
}

// payloadDecoderKey is the context key of WithPayloadDecoder.
type payloadDecoderKey struct{}

// WithPayloadDecoder returns a context under which Client.Call offers
// the content of the reply's opaque payloads (RegisterOpaquePayload) to
// decode while it parses the envelope, instead of keeping it verbatim
// for a second pass: a caller that knows what it will do with a dataset
// does it where the bytes lie. A payload decode takes arrives as an
// element without children; every retry of the call offers afresh, so
// decode should note which element its result belongs to.
func WithPayloadDecoder(ctx context.Context, decode xmlutil.PayloadDecoder) context.Context {
	return context.WithValue(ctx, payloadDecoderKey{}, decode)
}

// retryAfter parses a Retry-After header value in delay-seconds form
// (the only form this stack emits; HTTP-date values are ignored).
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// ExchangeObserver receives the serialised envelope sizes of one SOAP
// exchange: the request and response byte counts the transport already
// has in hand. The telemetry layer hooks it to count envelope bytes
// without re-marshalling anything.
type ExchangeObserver func(action string, requestBytes, responseBytes int)

// Client issues SOAP calls over HTTP. The zero value is not usable;
// construct with NewClient.
type Client struct {
	httpClient   *http.Client
	interceptors []Interceptor
	onExchange   ExchangeObserver
	// BytesSent and BytesReceived accumulate wire sizes for the
	// evaluation harness (E1/E2/E3 measure data movement).
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
}

// defaultHTTPClient backs NewClient(nil). It mirrors the
// http.DefaultTransport settings but raises the per-host idle
// connection cap from 2 so the request/response cadence of a DAIS
// consumer — many small SOAP exchanges against one endpoint — rides
// persistent keep-alive connections instead of redialling.
var defaultHTTPClient = &http.Client{Transport: newDefaultTransport()}

func newDefaultTransport() *http.Transport {
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	return &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           dialer.DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
	}
}

// NewClient returns a Client using the given HTTP client, or a shared
// keep-alive-tuned default when nil. Interceptors wrap every Call,
// first interceptor outermost.
func NewClient(hc *http.Client, interceptors ...Interceptor) *Client {
	if hc == nil {
		hc = defaultHTTPClient
	}
	return &Client{httpClient: hc, interceptors: interceptors}
}

// Use appends interceptors to the client's chain.
func (c *Client) Use(interceptors ...Interceptor) {
	c.interceptors = append(c.interceptors, interceptors...)
}

// OnExchange installs the byte observer invoked after every HTTP
// exchange (set once at construction time, before the first Call).
func (c *Client) OnExchange(f ExchangeObserver) { c.onExchange = f }

// BytesSent reports the cumulative request bytes written by this client.
func (c *Client) BytesSent() int64 { return c.bytesSent.Load() }

// BytesReceived reports the cumulative response bytes read.
func (c *Client) BytesReceived() int64 { return c.bytesReceived.Load() }

// ResetCounters zeroes the byte counters.
func (c *Client) ResetCounters() {
	c.bytesSent.Store(0)
	c.bytesReceived.Store(0)
}

// Call posts the request envelope to url with the given SOAPAction and
// returns the response envelope, running the client interceptor chain
// around the HTTP exchange. The context bounds the whole call: the
// request is built with http.NewRequestWithContext, so cancelling ctx
// aborts the connection. A SOAP fault in the response is returned as a
// *Fault error; the envelope is still returned for callers that need
// header context.
//
// A request with Wire is sent as those bytes.
func (c *Client) Call(ctx context.Context, url, action string, req *Envelope) (*Envelope, error) {
	return c.call(ctx, url, action, req, false)
}

// Relay is Call for a caller that passes the reply on as it was
// written: the envelope it returns holds the reply's bytes as its Wire,
// and nothing parsed. A fault is the exception, so that interceptors
// and the caller see it typed: it comes back as Call returns it, with
// the reply's bytes as the Fault's Wire. The HTTP status tells the two
// apart (relayReply); an answer is passed on unread.
func (c *Client) Relay(ctx context.Context, url, action string, req *Envelope) (*Envelope, error) {
	return c.call(ctx, url, action, req, true)
}

func (c *Client) call(ctx context.Context, url, action string, req *Envelope, relay bool) (*Envelope, error) {
	h := Chain(func(ctx context.Context, action string, env *Envelope) (*Envelope, error) {
		return c.do(ctx, url, action, env, relay)
	}, c.interceptors...)
	// Interceptors (the per-endpoint circuit breaker in particular) see
	// the call's target through the context.
	return h(WithEndpoint(ctx, url), action, req)
}

// do performs the terminal HTTP exchange of a Call or a Relay.
func (c *Client) do(ctx context.Context, url, action string, req *Envelope, relay bool) (*Envelope, error) {
	payload := req.Wire
	if payload == nil {
		payload = req.Marshal()
	} else {
		// net/http may read a request body after the exchange returned —
		// a cancelled RoundTrip does — and by then Wire may be a pooled
		// buffer serving another request (a relay's Wire is the one its
		// server read): the transport gets bytes of its own.
		payload = bytes.Clone(payload)
	}
	c.bytesSent.Add(int64(len(payload)))
	// bytes.Reader bodies get ContentLength and a rewindable GetBody
	// from the net/http constructor, so retries can replay the request.
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("soap: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", contentType)
	httpReq.Header.Set("SOAPAction", `"`+action+`"`)
	resp, err := c.httpClient.Do(httpReq)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("soap: transport: %w", ctxErr)
		}
		return nil, fmt.Errorf("soap: transport: %w", err)
	}
	defer resp.Body.Close()
	if relay {
		return c.relayReply(action, len(payload), resp)
	}
	// The response body is read into a pooled scratch buffer; this is
	// safe because ParseEnvelope copies everything it keeps — strings,
	// and the verbatim span of an opaque payload — out of the bytes it
	// is handed, and a payload decoder is held to the same, so nothing
	// aliases the buffer once it is returned.
	// Where the reply's size is known, the buffer is drawn from its class
	// with room for it: no allocation once the pool is warm, where reading
	// to EOF doubles its way up through twice a bulk window. (MinRead
	// more, or ReadFrom grows the full buffer to find the EOF.)
	var size int
	if n := resp.ContentLength; n > 0 && n <= maxPresizedReply {
		size = int(n) + bytes.MinRead
	}
	buf := getBuffer(size)
	defer putBuffer(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("soap: read response: %w", err)
	}
	data := buf.Bytes()
	c.bytesReceived.Add(int64(len(data)))
	if c.onExchange != nil {
		c.onExchange(action, len(payload), len(data))
	}
	decode, _ := ctx.Value(payloadDecoderKey{}).(xmlutil.PayloadDecoder)
	env, err := parseEnvelope(data, decode)
	if err != nil {
		return nil, fmt.Errorf("soap: response (HTTP %d): %w", resp.StatusCode, err)
	}
	if f, ok := AsFault(env.BodyEntry()); ok {
		f.Status = resp.StatusCode
		f.RetryAfter = retryAfter(resp.Header)
		return env, f
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return env, &HTTPError{StatusCode: resp.StatusCode, RetryAfter: retryAfter(resp.Header)}
	}
	return env, nil
}

// relayReply reads a Relay's reply into bytes of its own — they are
// passed on after the exchange. A 2xx reply is an answer and is passed
// on unread: SOAP 1.1's HTTP binding sends a fault with status 500
// (this stack's overload shed with 503). A reply with any other status
// is parsed: a fault comes back as Call returns it, the bytes its Wire.
func (c *Client) relayReply(action string, sent int, resp *http.Response) (*Envelope, error) {
	var data []byte
	var err error
	if n := resp.ContentLength; n > 0 && n <= maxPresizedReply {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("soap: read response: %w", err)
	}
	c.bytesReceived.Add(int64(len(data)))
	if c.onExchange != nil {
		c.onExchange(action, sent, len(data))
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return &Envelope{Wire: data}, nil
	}
	env, err := parseEnvelope(data, nil)
	if err != nil {
		return nil, fmt.Errorf("soap: response (HTTP %d): %w", resp.StatusCode, err)
	}
	env.Wire = data
	if f, ok := AsFault(env.BodyEntry()); ok {
		f.Status = resp.StatusCode
		f.RetryAfter = retryAfter(resp.Header)
		f.Wire = data
		return env, f
	}
	return env, &HTTPError{StatusCode: resp.StatusCode, RetryAfter: retryAfter(resp.Header)}
}

// HandlerFunc processes one SOAP request under a context. Returning a
// *Fault (as the error) produces a SOAP fault response; any other error
// becomes a Server fault with the error text.
type HandlerFunc func(ctx context.Context, action string, req *Envelope) (*Envelope, error)

// Server routes SOAP requests by wsa:Action / SOAPAction to registered
// handlers. It implements http.Handler.
type Server struct {
	mu           sync.RWMutex
	handlers     map[string]HandlerFunc
	fallback     HandlerFunc
	interceptors []Interceptor
	onExchange   ExchangeObserver
}

// NewServer returns an empty SOAP dispatch server. Interceptors wrap
// every dispatched request, first interceptor outermost.
func NewServer(interceptors ...Interceptor) *Server {
	return &Server{handlers: make(map[string]HandlerFunc), interceptors: interceptors}
}

// Use appends interceptors to the server's chain.
func (s *Server) Use(interceptors ...Interceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptors = append(s.interceptors, interceptors...)
}

// OnExchange installs the byte observer invoked after every dispatched
// request with the serialised request and response envelope sizes.
func (s *Server) OnExchange(f ExchangeObserver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onExchange = f
}

// Handle registers a handler for an action URI.
func (s *Server) Handle(action string, h HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[action] = h
}

// HandleFallback registers a handler invoked when no action matches.
func (s *Server) HandleFallback(h HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fallback = h
}

// ServeHTTP decodes the envelope, resolves the action (preferring the
// wsa:Action header over the HTTP SOAPAction header), dispatches through
// the interceptor chain under the request's context, and writes the
// response envelope. Faults are returned with HTTP 500 as SOAP 1.1 over
// HTTP requires.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	// Pooled request read: ParseEnvelope copies everything it keeps, so
	// the decoded envelope never aliases the scratch buffer. The stated
	// length picks the buffer's class, but is trusted with no more than
	// largeBuffer of room before the bytes arrive.
	reqBuf := getBuffer(int(min(max(r.ContentLength, 0), largeBuffer)))
	defer putBuffer(reqBuf)
	if _, err := reqBuf.ReadFrom(r.Body); err != nil {
		s.writeFault(w, ClientFault("unreadable request: %v", err))
		return
	}
	data := reqBuf.Bytes()
	env, err := ParseEnvelope(data)
	if err != nil {
		s.writeFault(w, ClientFault("malformed envelope: %v", err))
		return
	}
	env.Wire = data
	action := headerAction(env)
	if action == "" {
		action = trimQuotes(r.Header.Get("SOAPAction"))
	}
	s.mu.RLock()
	h, ok := s.handlers[action]
	fb := s.fallback
	ics := s.interceptors
	observe := s.onExchange
	s.mu.RUnlock()
	if !ok {
		if fb == nil {
			// Dispatch the fault through the chain so interceptors
			// (telemetry, logging) still observe misdirected requests.
			h = func(context.Context, string, *Envelope) (*Envelope, error) {
				return nil, ClientFault("no handler for action %q", action)
			}
		} else {
			h = fb
		}
	}
	resp, err := Chain(h, ics...)(r.Context(), action, env)
	status := http.StatusOK
	// Encode straight into a pooled scratch buffer and write it to the
	// ResponseWriter — no per-response []byte materialisation. A reply
	// or fault that has its Wire is written as it stands.
	buf := getReplyBuffer()
	defer putBuffer(buf)
	var out []byte
	if err != nil {
		f, isFault := err.(*Fault)
		if !isFault {
			f = ServerFault("%v", err)
		}
		if out = f.Wire; out == nil {
			NewEnvelope(f.Element()).encodeTo(buf)
			out = buf.Bytes()
		}
		status = faultStatus(w, f)
	} else if out = resp.Wire; out == nil {
		resp.encodeTo(buf)
		out = buf.Bytes()
	}
	if observe != nil {
		observe(action, len(data), len(out))
	}
	writeReply(w, status, out)
}

func (s *Server) writeFault(w http.ResponseWriter, f *Fault) {
	buf := getBuffer(0)
	defer putBuffer(buf)
	NewEnvelope(f.Element()).encodeTo(buf)
	writeReply(w, faultStatus(w, f), buf.Bytes())
}

// writeReply sends a reply that is complete in out. Its length is
// stated: net/http otherwise frames every reply over 2 kB in chunks,
// which the server pays to write and the consumer to read, for a body
// that was never a stream.
func writeReply(w http.ResponseWriter, status int, out []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(status)
	w.Write(out)
}

// faultStatus resolves the HTTP status a fault is written with (SOAP
// 1.1 over HTTP defaults to 500) and sets the Retry-After pacing header
// when the fault carries a hint.
func faultStatus(w http.ResponseWriter, f *Fault) int {
	if f.RetryAfter > 0 {
		secs := int(f.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	if f.Status != 0 {
		return f.Status
	}
	return http.StatusInternalServerError
}

// headerAction extracts a WS-Addressing Action header if present. The
// wsaddr package owns full header handling; this lightweight probe
// avoids an import cycle.
func headerAction(env *Envelope) string {
	for _, h := range env.Header {
		if h.Name.Local == "Action" {
			return h.Text()
		}
	}
	return ""
}

func trimQuotes(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// MustBody panics if the envelope has no body entry; used by handlers
// after the dispatcher has already validated the envelope shape.
func MustBody(env *Envelope) *xmlutil.Element {
	b := env.BodyEntry()
	if b == nil {
		panic("soap: empty body")
	}
	return b
}
