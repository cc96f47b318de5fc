package gateway

import "sync"

// placements is the gateway's resource-location table: abstract name →
// backend endpoint URL. Entries come from two sources — factory replies
// the gateway proxied (authoritative: the backend named the resource it
// derived) and backend resource lists collected by the health prober
// (discovered pre-existing resources). A recorded location always wins
// over the consistent-hash ring, so routing stays stable for resources
// the ring would send elsewhere — a derived resource's name is its
// backend's choice, and the ring follows the healthy set — and for
// resources that predate the gateway. An entry lives as long as the resource: a Destroy the
// gateway proxies or an unknown-name fault from the owning backend drops
// it, and so does a probe that no longer finds it in the backend's list
// (a backend's soft-state sweeper reaps without telling the gateway).
type placements struct {
	mu     sync.RWMutex
	byName map[string]placement
	seq    uint64 // stamps each new entry, so a probe can tell what predates its list
}

type placement struct {
	backend string
	seq     uint64
}

func newPlacements() *placements {
	return &placements{byName: make(map[string]placement)}
}

// record pins a resource to a backend (idempotent).
func (p *placements) record(name, backend string) {
	if name == "" || backend == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.byName[name]; ok && prev.backend == backend {
		return
	}
	p.seq++
	p.byName[name] = placement{backend: backend, seq: p.seq}
}

// lookup returns the recorded backend for a name.
func (p *placements) lookup(name string) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.byName[name]
	return e.backend, ok
}

// forget drops a name (resource destroyed).
func (p *placements) forget(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.byName, name)
}

// mark returns the stamp of the newest entry, for a later sync.
func (p *placements) mark() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.seq
}

// sync makes a backend's entries match its resource list: every listed
// name is recorded, and every entry on the backend the list lacks is
// dropped — unless it is newer than mark, taken before the list was
// requested: a factory reply recorded meanwhile names a resource the
// list may predate.
func (p *placements) sync(backend string, names []string, mark uint64) {
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
		p.record(n, backend)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, e := range p.byName {
		if e.backend == backend && e.seq <= mark && !listed[name] {
			delete(p.byName, name)
		}
	}
}
