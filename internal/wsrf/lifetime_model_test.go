package wsrf

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// lifetimeModel is what a registry's soft-state lifetimes should be: a
// name is live from its creation until a Destroy, a Remove or the first
// SweepExpired at or after its termination time (nil: none), and every
// step's answer follows from that.
type lifetimeModel struct {
	live      map[string]*time.Time
	destroyed int64    // Destroy and SweepExpired, not Remove
	released  []string // the destroy callbacks owed, in order
}

// TestLifetimesAgainstModel runs random interleavings of create (with or
// without a termination time), SetTerminationTime (past, near, far or
// nil), Destroy, Remove, property reads, SweepExpired and clock steps on
// a fixed clock, and holds every step's outcome and typed error, the
// destroy callbacks, LiveCount, IDs and DestroyedCount to the model.
// Seed 1 found a requested termination at the zero time.Time stored as
// no termination at all: never swept, and read back as nil.
func TestLifetimesAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { lifetimeRun(t, seed, 150) })
	}
}

func lifetimeRun(t *testing.T, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	reg, clock, released := newTestRegistry()
	m := lifetimeModel{live: map[string]*time.Time{}}
	names := []string{"urn:a", "urn:b", "urn:c", "urn:d", "urn:e"}
	when := func() *time.Time {
		now := clock.now()
		var at time.Time
		switch r.Intn(6) {
		case 0:
			return nil
		case 5: // the zero time.Time, 0001-01-01T00:00:00Z: past like any other
			return &at
		case 1: // past
			at = now.Add(-time.Duration(1+r.Intn(60)) * time.Second)
		case 2: // now: expired by the next sweep
			at = now
		case 3: // near: a clock step or two away
			at = now.Add(time.Duration(1+r.Intn(20)) * time.Second)
		default: // far
			at = now.Add(time.Duration(1+r.Intn(48)) * time.Hour)
		}
		return &at
	}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	unknown := func(step int, op, name string, err error) {
		t.Helper()
		var ue *UnknownResourceError
		_, live := m.live[name]
		switch {
		case live && err != nil:
			fail(step, "%s(%s) of a live resource: %v", op, name, err)
		case !live && (!errors.As(err, &ue) || ue.ID != name):
			fail(step, "%s(%s) of no resource: got %v, want an UnknownResourceError naming it", op, name, err)
		}
	}
	for step := 0; step < steps; step++ {
		name := names[r.Intn(len(names))]
		switch k := r.Intn(8); k {
		case 0: // create, replacing what the name held
			if at := when(); at != nil && r.Intn(2) == 0 {
				reg.AddWithTermination(name, testResource(), *at)
				m.live[name] = at
			} else {
				reg.Add(name, testResource())
				m.live[name] = nil
			}
		case 1:
			at := when()
			got, now, err := reg.SetTerminationTime(name, at)
			unknown(step, "SetTerminationTime", name, err)
			if _, live := m.live[name]; live {
				if !now.Equal(clock.now()) || (got == nil) != (at == nil) || got != nil && !got.Equal(*at) {
					fail(step, "SetTerminationTime(%s, %v) = %v at %v", name, at, got, now)
				}
				m.live[name] = at
			}
		case 2:
			err := reg.Destroy(name)
			unknown(step, "Destroy", name, err)
			if _, live := m.live[name]; live {
				delete(m.live, name)
				m.destroyed++
				m.released = append(m.released, name)
			}
		case 3: // the DAIS destroy path: unregistered, no callback, not counted
			reg.Remove(name)
			delete(m.live, name)
		case 4:
			els, err := reg.GetResourceProperty(name, NSRL, "TerminationTime")
			unknown(step, "GetResourceProperty", name, err)
			if at, live := m.live[name]; live {
				if len(els) != 1 || termText(at) != els[0].Text() || (at == nil) != (els[0].AttrValue("", "nil") == "true") {
					fail(step, "TerminationTime of %s: got %d element(s) %v, want %v", name, len(els), els, at)
				}
			}
		case 5:
			_, err := reg.GetResourcePropertyDocument(name)
			unknown(step, "GetResourcePropertyDocument", name, err)
			at, ok := reg.TerminationTime(name)
			if want, live := m.live[name]; ok != live || (at == nil) != (want == nil) || at != nil && !at.Equal(*want) {
				fail(step, "TerminationTime(%s) = %v, %v; model %v", name, at, ok, want)
			}
		case 6:
			var want []string
			now := clock.now()
			for n, at := range m.live {
				if at != nil && !at.After(now) {
					want = append(want, n)
				}
			}
			sort.Strings(want)
			if got := reg.SweepExpired(); !slices.Equal(got, want) {
				fail(step, "SweepExpired at %v = %v, want %v", now, got, want)
			}
			for _, n := range want {
				delete(m.live, n)
			}
			m.destroyed += int64(len(want))
			m.released = append(m.released, want...)
		default:
			clock.advance(time.Duration(r.Intn(15)) * time.Second)
		}
		var ids []string
		for n := range m.live {
			ids = append(ids, n)
		}
		sort.Strings(ids)
		if got := reg.IDs(); !slices.Equal(got, ids) || reg.LiveCount() != len(ids) {
			fail(step, "IDs %v (LiveCount %d), want %v", got, reg.LiveCount(), ids)
		}
		if got := reg.DestroyedCount(); got != m.destroyed {
			fail(step, "DestroyedCount %d, want %d", got, m.destroyed)
		}
		if !slices.Equal(*released, m.released) {
			fail(step, "destroy callbacks %v, want %v", *released, m.released)
		}
	}
}

// termText is the TerminationTime property's text for a model's
// termination time.
func termText(at *time.Time) string {
	if at == nil {
		return ""
	}
	return at.UTC().Format(time.RFC3339Nano)
}
