package loadgen_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dais/internal/core"
	"dais/internal/loadgen"
	"dais/internal/resil"
	"dais/internal/telemetry"
)

func admission(maxInFlight int) *resil.AdmissionConfig {
	return &resil.AdmissionConfig{MaxInFlight: maxInFlight, RetryAfter: 250 * time.Millisecond}
}

// sqlOnly is a single-class mix over the direct-SQL scenario, used by
// tests that need a known capacity ceiling without mix noise.
func sqlOnly(target *loadgen.Target, pop *loadgen.Popularity) loadgen.Scenario {
	for _, s := range loadgen.StandardMix(target, pop) {
		if s.Name == "sql-direct" {
			s.Weight = 1
			return s
		}
	}
	panic("sql-direct missing from StandardMix")
}

// TestOverloadShedding offers the harness more requests than the
// fixture's admission gate admits and verifies graceful degradation:
// every shed exchange carries a typed ServiceBusyFault with a Retry-After
// pacing hint, nothing hangs or comes back malformed, and — because the
// latency histogram only records successful exchanges — the fast 503s
// cannot masquerade as a latency improvement. The admitted requests are
// held in their handlers until the arrival window is over and a shed has
// come back, so the gate is full for every later arrival however slowly
// the host runs; the window offers a fixed count of requests (the
// arrival schedule is the seed's), about forty.
func TestOverloadShedding(t *testing.T) {
	hold := make(chan struct{})
	f := newLoadFixture(t, fixtureOpt{
		sqlResources: 4,
		hold:         hold,
		admission:    admission(8),
	})
	pop, err := loadgen.NewPopularity(len(f.target.SQLRefs), 1.2, 1.5)
	if err != nil {
		t.Fatal(err)
	}

	// Wrap the scenario so every error is captured for inspection; the
	// plain non-retrying client means sheds surface instead of being
	// absorbed by backoff.
	base := sqlOnly(f.target, pop)
	var mu sync.Mutex
	var failures []error
	wrapped := base
	wrapped.Run = func(ctx context.Context, r *rand.Rand) error {
		err := base.Run(ctx, r)
		if err != nil {
			mu.Lock()
			failures = append(failures, err)
			mu.Unlock()
		}
		return err
	}

	const window = 100 * time.Millisecond
	released, ran := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(released)
		defer close(hold)
		time.Sleep(window)
		for {
			mu.Lock()
			shed := len(failures)
			mu.Unlock()
			select {
			case <-ran: // nothing was held
				return
			case <-time.After(time.Millisecond):
			}
			if shed > 0 {
				return
			}
		}
	}()
	before := f.obs.Registry.Snapshot()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Rate:      400, // with the window, ≈ 40 arrivals: 8 admitted, the rest shed while those are held
		Duration:  window,
		Seed:      5,
		Timeout:   3 * time.Second, // held requests are released about a window after the first shed
		Scenarios: []loadgen.Scenario{wrapped},
	})
	close(ran)
	<-released
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("issued %d: %d ok, %d shed", res.Issued, res.OK, res.Shed)
	after := f.obs.Registry.Snapshot()

	if res.Shed == 0 {
		t.Fatal("3× overload produced no sheds")
	}
	if res.OK == 0 {
		t.Fatal("overload starved out all successes")
	}
	if res.Errors > 0 {
		t.Errorf("%d non-shed errors under overload (hangs or malformed replies)", res.Errors)
	}

	// Every captured failure must be the typed busy fault with a
	// positive pacing hint — not a raw 503, not a parse error.
	mu.Lock()
	defer mu.Unlock()
	if len(failures) == 0 {
		t.Fatal("sheds counted but no errors captured")
	}
	for _, err := range failures {
		var busy *core.ServiceBusyFault
		if !errors.As(err, &busy) {
			t.Fatalf("shed error is not a typed ServiceBusyFault: %v", err)
		}
		if busy.RetryAfter <= 0 {
			t.Fatalf("shed fault carries no Retry-After hint: %+v", busy)
		}
	}

	// Server-side bookkeeping: the shed counter moved, and the success
	// latency histogram recorded exactly the OK exchanges — shed
	// requests are excluded, so overload cannot fake a latency win.
	shed := telemetry.DeltaCount(before, after, resil.MetricShed, nil)
	if shed <= 0 {
		t.Errorf("%s did not increase under overload", resil.MetricShed)
	}
	latencyCount := telemetry.DeltaCount(before, after, telemetry.MetricLatency+"_count",
		map[string]string{"side": telemetry.SideServer, "op": base.Op})
	if latencyCount != float64(res.OK) {
		t.Errorf("server latency histogram recorded %.0f exchanges, want OK=%d (sheds must be excluded)",
			latencyCount, res.OK)
	}
	// Harness accounting separates sheds from error/success classes.
	cls := res.Classes[base.Name]
	if cls.Issued != cls.OK+cls.Shed+cls.Errors {
		t.Errorf("class accounting leak: issued=%d ok=%d shed=%d errors=%d",
			cls.Issued, cls.OK, cls.Shed, cls.Errors)
	}
}
