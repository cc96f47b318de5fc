package soap

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync/atomic"
	"time"

	"dais/internal/xmlutil"
)

// NSPipeline is the namespace of the request-pipeline SOAP headers this
// implementation adds on top of the DAIS message patterns (the request
// identifier travelling with every call).
const NSPipeline = "http://www.ggf.org/namespaces/2005/12/DAIS/pipeline"

// requestIDHeader is the local name of the request-ID SOAP header.
const requestIDHeader = "RequestID"

// Interceptor wraps one SOAP exchange. Client-side interceptors run
// around Client.Call; server-side interceptors run around handler
// dispatch. An interceptor may derive a new context (deadlines,
// metadata), rewrite the envelope, short-circuit by not calling next, or
// post-process the response. Chains compose left-to-right: the first
// interceptor is outermost. This is the hook point future tracing,
// metrics and retry layers attach to.
type Interceptor func(ctx context.Context, action string, env *Envelope, next HandlerFunc) (*Envelope, error)

// Chain wraps a terminal handler with a list of interceptors, first
// interceptor outermost.
func Chain(h HandlerFunc, interceptors ...Interceptor) HandlerFunc {
	for i := len(interceptors) - 1; i >= 0; i-- {
		ic := interceptors[i]
		next := h
		h = func(ctx context.Context, action string, env *Envelope) (*Envelope, error) {
			return ic(ctx, action, env, next)
		}
	}
	return h
}

// requestIDKey is the context key carrying the request ID.
type requestIDKey struct{}

// randRead is crypto/rand.Read, substitutable so tests can exercise
// the entropy-failure fallback.
var randRead = rand.Read

// reqSeq numbers fallback request IDs when the entropy source fails.
var reqSeq atomic.Uint64

// NewRequestID mints a fresh request identifier. Request IDs only need
// to be unique enough to correlate logs, spans and replies, so when the
// entropy source fails the ID degrades to a process-unique monotonic
// counter instead of panicking mid-request.
func NewRequestID() string {
	var b [8]byte
	if _, err := randRead(b[:]); err != nil {
		return fmt.Sprintf("req-seq-%d", reqSeq.Add(1))
	}
	return fmt.Sprintf("req-%x", b)
}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request ID carried by the context, or
// "" when none is set.
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// RequestIDOf extracts the request-ID header from an envelope ("" when
// absent).
func RequestIDOf(env *Envelope) string {
	if env == nil {
		return ""
	}
	if h := env.FindHeader(NSPipeline, requestIDHeader); h != nil {
		return h.Text()
	}
	return ""
}

// setRequestID sets (or replaces) the request-ID header on an envelope.
func setRequestID(env *Envelope, id string) {
	if h := env.FindHeader(NSPipeline, requestIDHeader); h != nil {
		h.SetText(id)
		return
	}
	h := xmlutil.NewElement(NSPipeline, requestIDHeader)
	h.SetText(id)
	env.AddHeader(h)
}

// ClientRequestID is a client interceptor that stamps every outgoing
// request with a request ID: the one already carried by the context, or
// a freshly generated one. The ID is placed both in the context (for
// downstream interceptors) and in a SOAP header (for the service) — for
// a request sent as its Wire, in a copy of the bytes, unless its parsed
// Header carries the ID already.
func ClientRequestID() Interceptor {
	return func(ctx context.Context, action string, env *Envelope, next HandlerFunc) (*Envelope, error) {
		id := RequestIDFromContext(ctx)
		if id == "" {
			id = NewRequestID()
			ctx = WithRequestID(ctx, id)
		}
		if env.Wire == nil {
			setRequestID(env, id)
		} else if RequestIDOf(env) != id {
			wire, err := stampRequestID(env.Wire, id)
			if err != nil {
				return nil, err
			}
			env = &Envelope{Header: env.Header, Body: env.Body, Wire: wire}
		}
		return next(ctx, action, env)
	}
}

// ServerRequestID is a server interceptor that adopts the request ID
// from the incoming envelope (generating one when the consumer sent
// none), exposes it through the context, and echoes it on the response
// so consumers can correlate replies. A reply written as its Wire is
// left as it is: a relay's, whose author had the ID from the request
// (ClientRequestID stamps a relayed request's Wire with it).
func ServerRequestID() Interceptor {
	return func(ctx context.Context, action string, env *Envelope, next HandlerFunc) (*Envelope, error) {
		id := RequestIDOf(env)
		if id == "" {
			id = NewRequestID()
		}
		resp, err := next(WithRequestID(ctx, id), action, env)
		if resp != nil && resp.Wire == nil {
			setRequestID(resp, id)
		}
		return resp, err
	}
}

// ClientTimeout is a client interceptor enforcing a per-call deadline:
// each call runs under a context that expires after d, unless the caller
// already set an earlier deadline.
func ClientTimeout(d time.Duration) Interceptor {
	return timeoutInterceptor(d)
}

// ServerTimeout is a server interceptor bounding handler execution: the
// handler's context expires after d, unless the inbound context already
// expires sooner. Handlers observing the expiry surface it as a typed
// DAIS timeout fault at the service layer.
func ServerTimeout(d time.Duration) Interceptor {
	return timeoutInterceptor(d)
}

func timeoutInterceptor(d time.Duration) Interceptor {
	return func(ctx context.Context, action string, env *Envelope, next HandlerFunc) (*Envelope, error) {
		if d <= 0 {
			return next(ctx, action, env)
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
			return next(ctx, action, env)
		}
		tctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		return next(tctx, action, env)
	}
}
