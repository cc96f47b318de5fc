package wsrf

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dais/internal/xmlutil"
)

type churnResource struct{ id string }

func (c *churnResource) PropertyDocument() *xmlutil.Element {
	e := xmlutil.NewElement("urn:churn", "Props")
	e.AddText("urn:churn", "ID", c.id)
	return e
}

func (c *churnResource) Property(space, local string) []*xmlutil.Element {
	return c.PropertyDocument().FindAll(space, local)
}

// churnCycles returns the create/destroy cycle count: 100k by default
// (the soft-state capacity claim is about sustained churn, and the
// registry path is cheap enough to prove it on every run), scalable
// via DAIS_CHURN_CYCLES.
func churnCycles(t *testing.T) int {
	if v := os.Getenv("DAIS_CHURN_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad DAIS_CHURN_CYCLES=%q", v)
		}
		return n
	}
	return 100_000
}

// TestChurnRegistryLifetime drives 100k+ short-TTL create/destroy
// cycles against the registry while the reaper sweeps concurrently
// (run under -race via make chaos / make race). Producers register
// resources whose termination is already due or imminently due, and a
// fraction race the reaper with an explicit Destroy. Afterwards:
//
//   - the live-resource count returns to the pre-churn baseline,
//   - every explicit Destroy either succeeded or failed with the typed
//     *UnknownResourceError (the reaper won) — any other error is a
//     destroy-after-reap misclassification,
//   - created == destroyed: nothing leaked, nothing double-counted.
func TestChurnRegistryLifetime(t *testing.T) {
	cycles := churnCycles(t)
	reg := NewRegistry()
	defer reg.Close()
	stop := reg.StartReaper(500 * time.Microsecond)
	defer stop()

	baseline := reg.LiveCount()
	createdBefore, destroyedBefore := reg.CreatedCount(), reg.DestroyedCount()

	workers := 8
	perWorker := cycles / workers
	var destroyWon, reaperWon, misclassified atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + w)))
			now := time.Now
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("urn:churn:%d:%d", w, i)
				ttl := time.Duration(r.Intn(2000)) * time.Microsecond
				reg.AddWithTermination(id, &churnResource{id: id}, now().Add(ttl))
				if r.Intn(2) == 0 {
					// Half the cycles race the reaper with an explicit
					// destroy; losing that race must surface as the
					// typed unknown-resource error, nothing else.
					switch err := reg.Destroy(id); {
					case err == nil:
						destroyWon.Add(1)
					default:
						var unknown *UnknownResourceError
						if errors.As(err, &unknown) {
							reaperWon.Add(1)
						} else {
							misclassified.Add(1)
							t.Errorf("destroy %s: misclassified error %T: %v", id, err, err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Let every remaining TTL pass, then sweep deterministically.
	time.Sleep(3 * time.Millisecond)
	reg.SweepExpired()

	if live := reg.LiveCount(); live != baseline {
		t.Errorf("leaked resources: live %d, baseline %d", live, baseline)
	}
	created := reg.CreatedCount() - createdBefore
	destroyed := reg.DestroyedCount() - destroyedBefore
	if want := int64(workers * perWorker); created != want {
		t.Errorf("created %d, want %d", created, want)
	}
	if created != destroyed {
		t.Errorf("churn imbalance: created %d, destroyed %d (leak or double-destroy)", created, destroyed)
	}
	if misclassified.Load() != 0 {
		t.Errorf("%d destroy-after-reap errors were not *UnknownResourceError", misclassified.Load())
	}
	// The race must actually have been exercised from both sides; a
	// reaper that never wins (or always wins) proves nothing.
	t.Logf("cycles=%d destroyWon=%d reaperWon=%d", created, destroyWon.Load(), reaperWon.Load())
	if destroyWon.Load() == 0 {
		t.Error("explicit destroy never won the race; churn not exercised")
	}

	// A destroyed id stays destroyed: re-destroy and property access
	// fail with the typed fault.
	if err := reg.Destroy("urn:churn:0:0"); err == nil {
		t.Error("re-destroy of reaped resource succeeded")
	} else {
		var unknown *UnknownResourceError
		if !errors.As(err, &unknown) {
			t.Errorf("re-destroy error %T, want *UnknownResourceError", err)
		}
	}
	if _, err := reg.GetResourcePropertyDocument("urn:churn:0:0"); err == nil {
		t.Error("property document of reaped resource still served")
	}
}
