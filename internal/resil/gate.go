package resil

import (
	"sync"
	"sync/atomic"
	"time"

	"dais/internal/core"
)

// AdmissionConfig bounds the concurrency a service endpoint accepts
// before shedding load.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently processed requests across the whole
	// endpoint (0 selects DefaultMaxInFlight; negative disables the
	// global cap).
	MaxInFlight int
	// PerResource caps concurrently processed requests addressed to one
	// data resource abstract name (0 disables the per-resource cap).
	PerResource int
	// RetryAfter is the pacing hint attached to shed responses (0
	// selects DefaultRetryAfter).
	RetryAfter time.Duration
}

// Defaults for AdmissionConfig zero values.
const (
	DefaultMaxInFlight = 1024
	DefaultRetryAfter  = time.Second
)

// Shed scopes reported by Gate.Acquire and used as metric labels.
const (
	ScopeService  = "service"
	ScopeResource = "resource"
)

// Gate is a bounded-concurrency admission controller: requests beyond
// the in-flight caps are rejected immediately with a ServiceBusyFault
// instead of queuing. Rejection over queuing keeps the endpoint's
// latency bounded under overload and gives consumers an explicit
// Retry-After pacing hint their retry policies understand.
type Gate struct {
	cfg AdmissionConfig

	inFlight atomic.Int64

	mu         sync.Mutex
	byResource map[string]int
}

// NewGate builds an admission gate, applying defaults for zero config
// values.
func NewGate(cfg AdmissionConfig) *Gate {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	return &Gate{cfg: cfg, byResource: make(map[string]int)}
}

// InFlight reports the requests currently admitted.
func (g *Gate) InFlight() int64 { return g.inFlight.Load() }

// Acquire admits a request addressed to the given data resource (""
// for service-level operations that target no resource). On admission
// it returns a release function the caller must invoke exactly once
// when processing ends. On rejection it returns a *core.ServiceBusyFault
// and the scope of the exhausted cap (ScopeService or ScopeResource).
func (g *Gate) Acquire(resource string) (release func(), scope string, err error) {
	if g.cfg.MaxInFlight > 0 {
		// Compare-and-swap, not add-then-undo: the count never passes the
		// cap, so a request being turned away is not in flight to anyone
		// who reads the gauge, nor to the next arrival.
		for {
			n := g.inFlight.Load()
			if n >= int64(g.cfg.MaxInFlight) {
				return nil, ScopeService, &core.ServiceBusyFault{
					Reason:     "service at capacity",
					RetryAfter: g.cfg.RetryAfter,
				}
			}
			if g.inFlight.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		g.inFlight.Add(1)
	}
	if g.cfg.PerResource > 0 && resource != "" {
		g.mu.Lock()
		if g.byResource[resource] >= g.cfg.PerResource {
			g.mu.Unlock()
			g.inFlight.Add(-1)
			return nil, ScopeResource, &core.ServiceBusyFault{
				Reason:     "data resource " + resource + " at capacity",
				RetryAfter: g.cfg.RetryAfter,
			}
		}
		g.byResource[resource]++
		g.mu.Unlock()
		return func() {
			g.mu.Lock()
			if g.byResource[resource] <= 1 {
				delete(g.byResource, resource)
			} else {
				g.byResource[resource]--
			}
			g.mu.Unlock()
			g.inFlight.Add(-1)
		}, "", nil
	}
	return func() { g.inFlight.Add(-1) }, "", nil
}
