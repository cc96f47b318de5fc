package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"dais/internal/resil"
)

// backendHealth is one backend's routing state as the gateway sees it:
// the latest probe outcome plus the circuit-breaker signal from the
// resilient client. Either source can take a backend out of rotation;
// a successful probe (or a closed breaker after a successful call)
// puts it back.
type backendHealth struct {
	Healthy   bool      `json:"healthy"`
	Reason    string    `json:"reason,omitempty"`
	Resources int       `json:"resources"`
	LastProbe time.Time `json:"last_probe,omitempty"`
}

// healthBoard tracks per-backend health. Backends start healthy —
// optimistic, so a gateway without a running prober still routes — and
// are marked down by failed probes or an opening breaker.
type healthBoard struct {
	mu sync.RWMutex
	by map[string]*backendHealth
	gm *gwMetrics
}

func newHealthBoard(backends []string, gm *gwMetrics) *healthBoard {
	h := &healthBoard{by: make(map[string]*backendHealth), gm: gm}
	for _, b := range backends {
		h.by[b] = &backendHealth{Healthy: true}
		gm.setState(b, stateHealthy)
	}
	return h
}

func (h *healthBoard) isHealthy(backend string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	st, ok := h.by[backend]
	return ok && st.Healthy
}

func (h *healthBoard) set(backend string, healthy bool, reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.by[backend]
	if !ok {
		return
	}
	st.Healthy, st.Reason = healthy, reason
	level := int64(stateUnhealthy)
	if healthy {
		level = stateHealthy
	} else if reason == "breaker "+resil.StateHalfOpen {
		level = stateDegraded
	}
	h.gm.setState(backend, level)
}

func (h *healthBoard) probed(backend string, resources int, err error) {
	h.mu.Lock()
	st, ok := h.by[backend]
	if !ok {
		h.mu.Unlock()
		return
	}
	st.LastProbe = time.Now()
	st.Resources = resources
	h.mu.Unlock()
	if err != nil {
		h.set(backend, false, "probe failed: "+err.Error())
	} else {
		h.set(backend, true, "")
	}
}

// snapshot copies the board for /healthz rendering.
func (h *healthBoard) snapshot() map[string]backendHealth {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[string]backendHealth, len(h.by))
	for b, st := range h.by {
		out[b] = *st
	}
	return out
}

// onBreakerChange is the resil.ClientConfig hook: an opening breaker
// takes the backend out of rotation immediately, a closing one (the
// half-open probe succeeded) restores it without waiting for the next
// health probe. Half-open keeps the backend out but flags it degraded.
func (g *Gateway) onBreakerChange(endpoint, to string) {
	switch to {
	case resil.StateClosed:
		g.health.set(endpoint, true, "")
	case resil.StateOpen, resil.StateHalfOpen:
		g.health.set(endpoint, false, "breaker "+to)
	}
}

// Probe refreshes every backend's health by fetching its resource list,
// and brings the placement table in line with each list as a side
// effect: discovered resources become routable and resolvable through
// the gateway, and resources the backend no longer lists (destroyed
// behind the gateway's back, or reaped at their termination time) stop
// counting towards its load.
func (g *Gateway) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, g.fanout)
	for _, b := range g.ring.Backends() {
		wg.Add(1)
		go func(backend string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pctx, cancel := context.WithTimeout(ctx, g.probeTimeout)
			defer cancel()
			mark := g.place.mark()
			names, err := g.client.GetResourceList(pctx, backend)
			g.health.probed(backend, len(names), err)
			if err == nil {
				g.place.sync(backend, names, mark)
			}
		}(b)
	}
	wg.Wait()
}

// StartProber runs Probe on an interval until the returned stop
// function is called. The first probe runs synchronously so routing
// state is warm before the gateway serves.
func (g *Gateway) StartProber(interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	g.Probe(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.Probe(ctx)
			}
		}
	}()
	return func() { cancel(); <-done }
}

// Healthz serves the aggregated backend health as JSON: HTTP 200 while
// at least one backend is routable (the federation still answers on
// surviving shards), 503 when none is.
func (g *Gateway) Healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := g.health.snapshot()
		healthy := 0
		backends := make([]string, 0, len(snap))
		for b, st := range snap {
			backends = append(backends, b)
			if st.Healthy {
				healthy++
			}
		}
		sort.Strings(backends)
		checks := make(map[string]backendHealth, len(snap))
		for _, b := range backends {
			checks[b] = snap[b]
		}
		status := "ok"
		switch {
		case healthy == 0:
			status = "down"
		case healthy < len(snap):
			status = "degraded"
		}
		w.Header().Set("Content-Type", "application/json")
		if healthy == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // client went away
			"status":   status,
			"healthy":  healthy,
			"backends": checks,
		})
	})
}
