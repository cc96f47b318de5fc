package gateway

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
)

// load counts the names recorded on a backend.
func (p *placements) load(backend string) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, e := range p.byName {
		if e.backend == backend {
			n++
		}
	}
	return n
}

func TestPlacementRecordLookupForget(t *testing.T) {
	p := newPlacements()
	if b, ok := p.lookup("urn:a"); ok || b != "" {
		t.Fatalf("empty table lookup = %q, %v", b, ok)
	}
	p.record("urn:a", "http://b1/sql")
	p.record("urn:b", "http://b1/sql")
	p.record("urn:c", "http://b2/sql")
	if b, ok := p.lookup("urn:a"); !ok || b != "http://b1/sql" {
		t.Fatalf("lookup urn:a = %q, %v", b, ok)
	}
	if got := p.load("http://b1/sql"); got != 2 {
		t.Fatalf("load b1 = %d, want 2", got)
	}

	// Re-recording the same placement is idempotent.
	p.record("urn:a", "http://b1/sql")
	if got := p.load("http://b1/sql"); got != 2 {
		t.Fatalf("idempotent re-record changed load to %d", got)
	}

	// Relocation moves the name to the new backend.
	p.record("urn:a", "http://b2/sql")
	if got := p.load("http://b1/sql"); got != 1 {
		t.Fatalf("after relocation load b1 = %d, want 1", got)
	}
	if got := p.load("http://b2/sql"); got != 2 {
		t.Fatalf("after relocation load b2 = %d, want 2", got)
	}

	p.forget("urn:a")
	if _, ok := p.lookup("urn:a"); ok {
		t.Fatal("forgotten name still resolves")
	}
	if got := p.load("http://b2/sql"); got != 1 {
		t.Fatalf("after forget load b2 = %d, want 1", got)
	}
	p.forget("urn:never-recorded") // no-op, must not panic
}

func TestPlacementSyncKeepsNewerEntries(t *testing.T) {
	p := newPlacements()
	p.record("urn:old", "http://b/sql")
	p.record("urn:other", "http://c/sql")
	mark := p.mark()
	p.record("urn:new", "http://b/sql") // a factory reply landing mid-probe
	p.sync("http://b/sql", []string{"urn:listed"}, mark)
	for name, want := range map[string]bool{"urn:old": false, "urn:new": true, "urn:listed": true, "urn:other": true} {
		if _, ok := p.lookup(name); ok != want {
			t.Errorf("after sync %s recorded = %v, want %v", name, ok, want)
		}
	}
	if got := p.load("http://b/sql"); got != 2 {
		t.Fatalf("load b = %d, want 2", got)
	}
}

// TestPlacementsFollowBackendLifetime: resources a backend reaps at their
// termination time leave the placement table. An operation on one
// through the gateway meets the backend's unknown-name fault and forgets
// it at once; the next probe forgets the rest.
func TestPlacementsFollowBackendLifetime(t *testing.T) {
	type backend struct {
		ep  *service.Endpoint
		res *dair.SQLDataResource
	}
	byURL := map[string]backend{}
	var urls []string
	for _, name := range []string{"b1", "b2"} {
		eng := sqlengine.New(name)
		eng.MustExec(`CREATE TABLE t (a INTEGER)`)
		svc := core.NewDataService(name)
		ep := service.NewEndpoint(svc, service.WithWSRF())
		res := dair.NewSQLDataResource(eng)
		ep.Register(res)
		ts := httptest.NewServer(ep)
		t.Cleanup(ts.Close)
		svc.SetAddress(ts.URL)
		byURL[ts.URL] = backend{ep: ep, res: res}
		urls = append(urls, ts.URL)
	}
	g := New(Config{Backends: urls, Observer: telemetry.NewObserver(), ObserverSet: true})
	gts := httptest.NewServer(g)
	t.Cleanup(gts.Close)
	g.SetAddress(gts.URL)
	ctx := context.Background()
	g.Probe(ctx)

	base := urls[0]
	baseLoad, b := g.place.load(base), byURL[base]
	c := client.New(nil)
	const n = 4
	var refs []client.ResourceRef
	for i := 0; i < n; i++ {
		ref, err := c.SQLExecuteFactory(ctx, client.Ref(gts.URL, b.res.AbstractName()), `SELECT a FROM t`, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	// A request of the wrong realisation faults, but names a resource the
	// backend has: its placement stays.
	if _, err := c.GetSQLRowset(ctx, client.Ref(gts.URL, b.res.AbstractName()), 0); !ops.IsTypeFault(err, b.res.AbstractName()) {
		t.Fatalf("GetSQLRowset of the SQL resource: err = %v, want the type fault", err)
	}
	if got := g.place.load(base); got != baseLoad+n {
		t.Fatalf("load after %d factory calls = %d, want %d", n, got, baseLoad+n)
	}

	past := time.Now().Add(-time.Second)
	for _, ref := range refs {
		if _, err := c.SetTerminationTime(ctx, ref, &past); err != nil {
			t.Fatal(err)
		}
	}
	if reaped := b.ep.WSRF().SweepExpired(); len(reaped) != n {
		t.Fatalf("sweep reaped %v", reaped)
	}
	var unknown *core.InvalidResourceNameFault
	if _, err := c.GetSQLRowset(ctx, refs[0], 0); !errors.As(err, &unknown) {
		t.Fatalf("GetSQLRowset of a reaped resource: err = %v", err)
	}
	if got := g.place.load(base); got != baseLoad+n-1 {
		t.Fatalf("load after the unknown-name fault = %d, want %d", got, baseLoad+n-1)
	}
	g.Probe(ctx)
	if got := g.place.load(base); got != baseLoad {
		t.Fatalf("load after the probe = %d, want the baseline %d", got, baseLoad)
	}
}
