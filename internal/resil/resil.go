// Package resil is the resilience layer of the DAIS stack: retry
// policies with exponential backoff and full jitter, per-endpoint
// circuit breakers, and bounded-concurrency admission gates.
//
// The paper's indirect access pattern (Fig. 1, Fig. 5) assumes
// long-lived multi-consumer pipelines in which a consumer holds an EPR
// to a service-managed resource across many exchanges, so transient
// transport failures, slow backends and overload have to be survived
// rather than surfaced as one-shot faults. The layer splits in two:
//
//   - Consumer side, NewClientResilience returns a soap.Interceptor
//     that retries idempotent operations (classification comes from the
//     ops catalog's Idempotent flag — reads retry, factories and
//     destroys never do), spreads attempts with full-jitter exponential
//     backoff bounded by the caller's context deadline, and trips a
//     per-endpoint closed/open/half-open circuit breaker on consecutive
//     transient failures.
//
//   - Service side, Gate is the admission control service.NewEndpoint
//     installs: requests beyond the configured in-flight caps (global
//     and per-resource) are shed immediately with a typed
//     ServiceBusyFault carried on HTTP 503 with a Retry-After hint,
//     instead of queuing unboundedly.
//
// Everything is observable through internal/telemetry: retries, breaker
// state transitions and shed requests surface as counters on the
// observer's registry.
package resil

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"dais/internal/core"
	"dais/internal/ops"
	"dais/internal/soap"
	"dais/internal/telemetry"
)

// Policy bounds the retry behaviour of one operation class.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values below 2 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry; each
	// further retry doubles it (then full jitter picks a uniform delay
	// below the ceiling).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling (0 = uncapped).
	MaxDelay time.Duration
}

// retries reports whether the policy allows more than one attempt.
func (p Policy) retries() bool { return p.MaxAttempts > 1 }

// ClientConfig configures the consumer-side resilience interceptor.
type ClientConfig struct {
	// Retry is the policy applied to operations the ops catalog marks
	// idempotent. Non-idempotent and uncatalogued operations are never
	// retried regardless of this policy.
	Retry Policy
	// Breaker configures the per-endpoint circuit breaker; a zero
	// Threshold disables breaking.
	Breaker BreakerConfig
	// Observer receives retry and breaker metrics on its registry (nil
	// records nothing).
	Observer *telemetry.Observer
	// OnBreakerChange observes per-endpoint circuit state transitions in
	// addition to the Observer's metrics (nil observes nothing). The
	// federation gateway hooks this to mark a backend unhealthy the
	// moment its breaker opens instead of waiting for the next probe.
	OnBreakerChange func(endpoint, to string)

	// Jitter maps a backoff ceiling to the actual delay; nil selects
	// full jitter (uniform in [0, ceiling)). Tests inject identity for
	// determinism.
	Jitter func(ceiling time.Duration) time.Duration
	// Sleep waits between attempts; nil selects a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the breaker's clock; nil selects time.Now.
	Now func() time.Time
}

// DefaultClientConfig is the policy the consumer client installs when
// none is supplied: up to 4 attempts for idempotent reads with a 50 ms
// base backoff capped at 2 s, and a breaker tripping after 5
// consecutive transient failures with a 1 s cool-down.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Retry:   Policy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second},
		Breaker: BreakerConfig{Threshold: 5, Cooldown: time.Second, HalfOpenProbes: 1},
	}
}

// fullJitter draws a uniform delay below the ceiling — the "full
// jitter" strategy, which decorrelates a thundering herd of retrying
// consumers better than equal or proportional jitter.
func fullJitter(ceiling time.Duration) time.Duration {
	if ceiling <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(ceiling))) //nolint:gosec // jitter needs no crypto entropy
}

// backoffCeiling computes the exponential ceiling before the retry that
// follows attempt (1-based): BaseDelay doubled per completed attempt,
// capped at MaxDelay.
func backoffCeiling(p Policy, attempt int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// budgetAllows reports whether sleeping d still leaves time before the
// caller's deadline. Retrying never exceeds the caller's context: when
// the remaining budget cannot cover the delay, the last error is
// surfaced immediately instead of burning the budget asleep.
func budgetAllows(ctx context.Context, d time.Duration) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	return time.Until(dl) > d
}

// sleepCtx waits for d or until the context ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Transient reports whether an exchange error is a transient
// transport/overload failure — the class that retry policies replay and
// circuit breakers count. Typed application faults are definitive
// answers from the service and are not transient; context cancellation
// and deadline expiry belong to the caller, not the path.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var busy *core.ServiceBusyFault
	if errors.As(err, &busy) {
		return true
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		// A decoded SOAP fault is a definitive server answer — except
		// the overload shed, which asks the consumer to come back.
		return f.Detail != nil && f.Detail.Name.Local == "ServiceBusyFault"
	}
	var he *soap.HTTPError
	if errors.As(err, &he) {
		switch he.StatusCode {
		case 429, 502, 503, 504:
			return true
		}
		return false
	}
	// Dial/read failures, connection resets, corrupt (unparseable)
	// responses: the exchange outcome is unknown.
	return true
}

// RetryHint extracts the server's Retry-After pacing hint from an
// exchange error (0 when none was sent).
func RetryHint(err error) time.Duration {
	var busy *core.ServiceBusyFault
	if errors.As(err, &busy) {
		return busy.RetryAfter
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		return f.RetryAfter
	}
	var he *soap.HTTPError
	if errors.As(err, &he) {
		return he.RetryAfter
	}
	return 0
}

// CircuitOpenError is returned without touching the network while an
// endpoint's breaker is open: the endpoint has produced enough
// consecutive transient failures that hammering it further would only
// deepen the overload.
type CircuitOpenError struct {
	Endpoint string
}

func (e *CircuitOpenError) Error() string {
	return "resil: circuit open for endpoint " + e.Endpoint
}

// NewClientResilience builds the consumer-side resilience interceptor:
// retry with backoff for idempotent operations plus a per-endpoint
// circuit breaker. Install it inside the telemetry interceptor so each
// logical call stays one span/metric observation regardless of how many
// attempts it took.
func NewClientResilience(cfg ClientConfig) soap.Interceptor {
	if cfg.Jitter == nil {
		cfg.Jitter = fullJitter
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleepCtx
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	var m *metrics
	if cfg.Observer != nil {
		m = metricsFor(cfg.Observer.Registry)
	}
	onChange := m.breakerTransition
	if cfg.OnBreakerChange != nil {
		user := cfg.OnBreakerChange
		onChange = func(endpoint, to string) {
			m.breakerTransition(endpoint, to)
			user(endpoint, to)
		}
	}
	group := newBreakerGroup(cfg.Breaker, cfg.Now, onChange)
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		policy := cfg.policyFor(ctx, action)
		br := group.get(soap.EndpointFromContext(ctx))
		var resp *soap.Envelope
		var err error
		for attempt := 1; ; attempt++ {
			if br != nil && !br.Allow() {
				if attempt > 1 {
					return resp, err // the breaker opened mid-retry; surface the real failure
				}
				return nil, &CircuitOpenError{Endpoint: br.endpoint}
			}
			resp, err = next(ctx, action, env)
			transient := Transient(err)
			if br != nil {
				br.Record(!transient)
			}
			if err == nil || !transient || attempt >= policy.MaxAttempts || ctx.Err() != nil {
				return resp, err
			}
			d := cfg.Jitter(backoffCeiling(policy, attempt))
			if hint := RetryHint(err); hint > d {
				d = hint
			}
			if !budgetAllows(ctx, d) {
				return resp, err
			}
			m.countRetry(opLabel(ctx, action), retryReason(err))
			if cfg.Sleep(ctx, d) != nil {
				return resp, err
			}
		}
	}
}

// policyFor resolves the retry policy for one call from its catalog
// metadata: idempotent operations get the configured retry policy,
// everything else (non-idempotent and uncatalogued actions alike) a
// single attempt.
func (cfg ClientConfig) policyFor(ctx context.Context, action string) Policy {
	info, known := ops.CallInfoFromContext(ctx)
	if !known {
		if spec, ok := ops.ByAction(action); ok {
			info, known = spec.Info(), true
		}
	}
	if known && info.Idempotent && cfg.Retry.retries() {
		return cfg.Retry
	}
	return Policy{MaxAttempts: 1}
}

// opLabel resolves the bounded operation label for the retry counter.
func opLabel(ctx context.Context, action string) string {
	if info, ok := ops.CallInfoFromContext(ctx); ok {
		return info.Op
	}
	return ops.OpOf(action)
}

// retryReason classifies a transient error into the bounded reason
// label of the retry counter.
func retryReason(err error) string {
	var busy *core.ServiceBusyFault
	var f *soap.Fault
	var he *soap.HTTPError
	switch {
	case errors.As(err, &busy), errors.As(err, &f):
		return "busy"
	case errors.As(err, &he):
		return "http"
	default:
		return "transport"
	}
}
