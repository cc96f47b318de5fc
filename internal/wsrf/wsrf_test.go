package wsrf

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dais/internal/xmlutil"
)

const nsTest = "urn:dais:test"

type staticResource struct{ doc *xmlutil.Element }

func (s staticResource) PropertyDocument() *xmlutil.Element { return s.doc }
func (s staticResource) Property(space, local string) []*xmlutil.Element {
	return s.doc.FindAll(space, local)
}

func testResource() staticResource {
	doc := xmlutil.NewElement(nsTest, "PropertyDocument")
	doc.AddText(nsTest, "DataResourceAbstractName", "urn:r1")
	doc.AddText(nsTest, "Readable", "true")
	doc.AddText(nsTest, "Writeable", "false")
	doc.AddText(nsTest, "DatasetMap", "urn:fmt:a")
	doc.AddText(nsTest, "DatasetMap", "urn:fmt:b")
	return staticResource{doc: doc}
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func newTestRegistry() (*Registry, *fakeClock, *[]string) {
	fc := &fakeClock{t: time.Date(2005, 9, 1, 0, 0, 0, 0, time.UTC)}
	var destroyed []string
	var mu sync.Mutex
	r := NewRegistry(WithClock(fc.now), WithDestroyCallback(func(id string) {
		mu.Lock()
		destroyed = append(destroyed, id)
		mu.Unlock()
	}))
	return r, fc, &destroyed
}

func TestGetResourcePropertyDocument(t *testing.T) {
	r, _, _ := newTestRegistry()
	r.Add("urn:r1", testResource())
	doc, err := r.GetResourcePropertyDocument("urn:r1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.FindText(nsTest, "Readable") != "true" {
		t.Fatal("property lost")
	}
	// Lifetime properties are appended.
	if doc.Find(NSRL, "CurrentTime") == nil {
		t.Fatal("CurrentTime missing")
	}
	tt := doc.Find(NSRL, "TerminationTime")
	if tt == nil || tt.AttrValue("", "nil") != "true" {
		t.Fatalf("TerminationTime = %v", tt)
	}
	if _, err := r.GetResourcePropertyDocument("urn:missing"); err == nil {
		t.Fatal("unknown resource should error")
	}
}

func TestGetResourceProperty(t *testing.T) {
	r, _, _ := newTestRegistry()
	r.Add("urn:r1", testResource())
	props, err := r.GetResourceProperty("urn:r1", nsTest, "DatasetMap")
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 || props[0].Text() != "urn:fmt:a" {
		t.Fatalf("props = %v", props)
	}
	none, err := r.GetResourceProperty("urn:r1", nsTest, "Nothing")
	if err != nil || len(none) != 0 {
		t.Fatalf("none = %v, %v", none, err)
	}
}

// TestPropertiesByNameMatchDocument: resolving by name finds what
// FindAll finds in the whole document, lifetime properties included,
// with and without a namespace and a scheduled termination.
func TestPropertiesByNameMatchDocument(t *testing.T) {
	r, fc, _ := newTestRegistry()
	r.Add("urn:r1", testResource())
	check := func() {
		t.Helper()
		doc, err := r.GetResourcePropertyDocument("urn:r1")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []xmlutil.Name{
			{Space: nsTest, Local: "DatasetMap"}, {Local: "DatasetMap"}, {Space: NSRL, Local: "DatasetMap"},
			{Space: NSRL, Local: "CurrentTime"}, {Local: "CurrentTime"}, {Space: nsTest, Local: "CurrentTime"},
			{Space: NSRL, Local: "TerminationTime"}, {Local: "TerminationTime"}, {Space: nsTest, Local: "Nothing"},
		} {
			got, err := r.GetResourceProperty("urn:r1", n.Space, n.Local)
			if err != nil {
				t.Fatal(err)
			}
			want := doc.FindAll(n.Space, n.Local)
			if len(got) != len(want) {
				t.Fatalf("%v: %d properties by name, %d in the document", n, len(got), len(want))
			}
			for i := range want {
				if g, w := xmlutil.MarshalString(got[i]), xmlutil.MarshalString(want[i]); g != w {
					t.Errorf("%v: by name %s, in the document %s", n, g, w)
				}
			}
		}
	}
	check()
	tt := fc.now().Add(time.Hour)
	if _, _, err := r.SetTerminationTime("urn:r1", &tt); err != nil {
		t.Fatal(err)
	}
	check()
	if _, err := r.GetResourceProperty("urn:missing", nsTest, "Readable"); err == nil {
		t.Fatal("unknown resource should error")
	}
}

func TestGetMultipleResourceProperties(t *testing.T) {
	r, _, _ := newTestRegistry()
	r.Add("urn:r1", testResource())
	props, err := r.GetMultipleResourceProperties("urn:r1", []xmlutil.Name{
		{Space: nsTest, Local: "Readable"},
		{Space: nsTest, Local: "Writeable"},
		{Space: NSRL, Local: "CurrentTime"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 3 {
		t.Fatalf("props = %d", len(props))
	}
}

func TestQueryResourceProperties(t *testing.T) {
	r, _, _ := newTestRegistry()
	r.Add("urn:r1", testResource())
	nodes, err := r.QueryResourceProperties("urn:r1", "DatasetMap")
	if err != nil || len(nodes) != 2 {
		t.Fatalf("nodes = %v, %v", nodes, err)
	}
	scalar, err := r.QueryResourceProperties("urn:r1", "count(DatasetMap)")
	if err != nil || len(scalar) != 1 || scalar[0].Text() != "2" {
		t.Fatalf("scalar = %v, %v", scalar, err)
	}
	filtered, err := r.QueryResourceProperties("urn:r1", "DatasetMap[. = 'urn:fmt:b']")
	if err != nil || len(filtered) != 1 {
		t.Fatalf("filtered = %v, %v", filtered, err)
	}
	if _, err := r.QueryResourceProperties("urn:r1", "bad["); err == nil {
		t.Fatal("bad xpath should error")
	}
}

func TestExplicitDestroy(t *testing.T) {
	r, _, destroyed := newTestRegistry()
	r.Add("urn:r1", testResource())
	if err := r.Destroy("urn:r1"); err != nil {
		t.Fatal(err)
	}
	if len(*destroyed) != 1 || (*destroyed)[0] != "urn:r1" {
		t.Fatalf("destroyed = %v", *destroyed)
	}
	if err := r.Destroy("urn:r1"); err == nil {
		t.Fatal("double destroy should error")
	}
	if r.DestroyedCount() != 1 {
		t.Fatalf("count = %d", r.DestroyedCount())
	}
}

func TestScheduledTermination(t *testing.T) {
	r, fc, destroyed := newTestRegistry()
	r.Add("urn:r1", testResource())
	r.Add("urn:r2", testResource())
	r.Add("urn:keep", testResource())

	t1 := fc.now().Add(10 * time.Second)
	t2 := fc.now().Add(20 * time.Second)
	if _, _, err := r.SetTerminationTime("urn:r1", &t1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.SetTerminationTime("urn:r2", &t2); err != nil {
		t.Fatal(err)
	}

	if ids := r.SweepExpired(); len(ids) != 0 {
		t.Fatalf("premature sweep: %v", ids)
	}
	fc.advance(15 * time.Second)
	if ids := r.SweepExpired(); len(ids) != 1 || ids[0] != "urn:r1" {
		t.Fatalf("sweep = %v", ids)
	}
	fc.advance(15 * time.Second)
	if ids := r.SweepExpired(); len(ids) != 1 || ids[0] != "urn:r2" {
		t.Fatalf("sweep = %v", ids)
	}
	if len(*destroyed) != 2 {
		t.Fatalf("destroyed = %v", *destroyed)
	}
	if _, ok := r.Get("urn:keep"); !ok {
		t.Fatal("unscheduled resource was reaped")
	}
}

func TestSetTerminationTimeSemantics(t *testing.T) {
	r, fc, _ := newTestRegistry()
	r.Add("urn:r1", testResource())

	future := fc.now().Add(time.Hour)
	nt, cur, err := r.SetTerminationTime("urn:r1", &future)
	if err != nil || nt == nil || !nt.Equal(future) {
		t.Fatalf("set = %v, %v", nt, err)
	}
	if !cur.Equal(fc.now()) {
		t.Fatalf("current = %v", cur)
	}
	// Property document reflects it.
	doc, _ := r.GetResourcePropertyDocument("urn:r1")
	if doc.Find(NSRL, "TerminationTime").Text() == "" {
		t.Fatal("termination time not rendered")
	}
	// Clearing restores infinite lifetime.
	nt, _, err = r.SetTerminationTime("urn:r1", nil)
	if err != nil || nt != nil {
		t.Fatalf("clear = %v, %v", nt, err)
	}
	if tt, _ := r.TerminationTime("urn:r1"); tt != nil {
		t.Fatal("termination not cleared")
	}
	// Past time destroys on next sweep.
	past := fc.now().Add(-time.Second)
	if _, _, err := r.SetTerminationTime("urn:r1", &past); err != nil {
		t.Fatal(err)
	}
	if ids := r.SweepExpired(); len(ids) != 1 {
		t.Fatalf("sweep = %v", ids)
	}
	if _, _, err := r.SetTerminationTime("urn:r1", &future); err == nil {
		t.Fatal("destroyed resource should be unknown")
	}
}

func TestReaperGoroutine(t *testing.T) {
	fc := &fakeClock{t: time.Now()}
	r := NewRegistry(WithClock(fc.now))
	r.Add("urn:r1", testResource())
	past := fc.now().Add(-time.Second)
	r.SetTerminationTime("urn:r1", &past)

	stop := r.StartReaper(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := r.Get("urn:r1"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reaper did not collect expired resource")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestIDsSorted(t *testing.T) {
	r, _, _ := newTestRegistry()
	for _, id := range []string{"urn:c", "urn:a", "urn:b"} {
		r.Add(id, testResource())
	}
	ids := r.IDs()
	if len(ids) != 3 || ids[0] != "urn:a" || ids[2] != "urn:c" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestConcurrentRegistryUse(t *testing.T) {
	r, fc, _ := newTestRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a'+i)) + ":res"
			for j := 0; j < 50; j++ {
				r.Add(id, testResource())
				tt := fc.now().Add(time.Duration(j) * time.Millisecond)
				r.SetTerminationTime(id, &tt)
				r.GetResourcePropertyDocument(id)
				r.SweepExpired()
			}
		}(i)
	}
	wg.Wait()
}

// TestDestroyWaitsForReaperRelease: a Destroy that loses to the reaper
// answers "unknown" only once the reaper's destroy callback has
// released the resource — whoever is told a resource is gone finds it
// gone for readers too (the invariant TestChurnServiceLifetime checks
// end to end).
func TestDestroyWaitsForReaperRelease(t *testing.T) {
	fc := &fakeClock{t: time.Date(2005, 9, 1, 0, 0, 0, 0, time.UTC)}
	inCallback, release := make(chan struct{}), make(chan struct{})
	var released atomic.Bool
	r := NewRegistry(WithClock(fc.now), WithDestroyCallback(func(string) {
		close(inCallback)
		<-release
		released.Store(true)
	}))
	r.AddWithTermination("urn:r1", testResource(), fc.now().Add(time.Second))
	fc.advance(2 * time.Second)
	swept := make(chan []string)
	go func() { swept <- r.SweepExpired() }()
	<-inCallback // unregistered, not yet released

	answered := make(chan error)
	go func() { answered <- r.Destroy("urn:r1") }()
	select {
	case err := <-answered:
		t.Fatalf("Destroy answered %v while the reaper was still releasing the resource", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if _, ok := (<-answered).(*UnknownResourceError); !ok || !released.Load() {
		t.Fatalf("Destroy after the release: unknown=%v released=%v", ok, released.Load())
	}
	if ids := <-swept; len(ids) != 1 {
		t.Fatalf("swept %v", ids)
	}
	// Nothing is left waiting to be released, and a later Destroy of the
	// same id answers at once.
	if err := r.Destroy("urn:r1"); err == nil || r.DestroyedCount() != 1 || r.LiveCount() != 0 {
		t.Fatalf("second Destroy: %v, destroyed %d, live %d", err, r.DestroyedCount(), r.LiveCount())
	}
}
