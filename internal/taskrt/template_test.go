package taskrt

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// captureChain records w -> r -> w2 on one key and freezes it.
func captureChain() *Template {
	c := NewCapture()
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}})
	c.Submit(&Task{Label: "r", In: []Dep{k}})
	c.Submit(&Task{Label: "w2", Out: []Dep{k}})
	return c.Freeze()
}

func TestCaptureChainEdges(t *testing.T) {
	tpl := captureChain()
	if tpl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tpl.Len())
	}
	if tpl.Roots() != 1 {
		t.Fatalf("Roots = %d, want 1 (only the first writer)", tpl.Roots())
	}
	// Derived: w->r (RAW), w->w2 (WAW), r->w2 (WAR). Reduction drops w->w2,
	// which w->r->w2 already orders.
	if tpl.Edges() != 2 {
		t.Fatalf("Edges = %d, want 2 after reduction", tpl.Edges())
	}
	if tpl.FullEdges() != 3 {
		t.Fatalf("FullEdges = %d, want 3", tpl.FullEdges())
	}
	if tpl.PrunedEdges() != 1 {
		t.Fatalf("PrunedEdges = %d, want 1", tpl.PrunedEdges())
	}
}

func TestCaptureChainEdgesNoReduce(t *testing.T) {
	c := NewCapture()
	c.NoReduce = true
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}})
	c.Submit(&Task{Label: "r", In: []Dep{k}})
	c.Submit(&Task{Label: "w2", Out: []Dep{k}})
	tpl := c.Freeze()
	// w->r (RAW), w->w2 (WAW), r->w2 (WAR) = 3 edges, kept verbatim.
	if tpl.Edges() != 3 {
		t.Fatalf("Edges = %d, want 3 with NoReduce", tpl.Edges())
	}
	if tpl.FullEdges() != 3 || tpl.PrunedEdges() != 0 {
		t.Fatalf("FullEdges = %d, PrunedEdges = %d, want 3 and 0", tpl.FullEdges(), tpl.PrunedEdges())
	}
}

func TestCaptureDiamondEdges(t *testing.T) {
	build := func(noReduce bool) *Template {
		c := NewCapture()
		c.NoReduce = noReduce
		a, b := key("a"), key("b")
		c.Submit(&Task{Label: "src", Out: []Dep{a}})
		c.Submit(&Task{Label: "left", In: []Dep{a}, Out: []Dep{b}})
		c.Submit(&Task{Label: "right", In: []Dep{a}})
		c.Submit(&Task{Label: "join", In: []Dep{b}, InOut: []Dep{a}})
		return c.Freeze()
	}

	// Derived: src->left and src->right (RAW a); join's preds are left
	// (RAW b), src (RAW a — src is still a's last writer, the branches only
	// read), and right (WAR a), deduped per task: 2 + 3 = 5 edges.
	full := build(true)
	if got, want := full.Edges(), 5; got != want {
		t.Fatalf("NoReduce Edges = %d, want %d", got, want)
	}

	// Reduction drops src->join: src->left->join (and src->right->join)
	// already order the pair.
	tpl := build(false)
	if tpl.Roots() != 1 {
		t.Fatalf("Roots = %d, want 1", tpl.Roots())
	}
	if got, want := tpl.Edges(), 4; got != want {
		t.Fatalf("Edges = %d, want %d after reduction", got, want)
	}
	if got, want := tpl.PrunedEdges(), 1; got != want {
		t.Fatalf("PrunedEdges = %d, want %d", got, want)
	}
	if got := tpl.nodes[3].tplSuccs; len(got) != 0 {
		t.Fatalf("join has %d successors, want 0", len(got))
	}
}

// TestReplayOrdering replays a chain on a racy 4-worker pool many times and
// checks every replay observes the captured RAW/WAR/WAW order.
func TestReplayOrdering(t *testing.T) {
	r := New(Options{Workers: 4})
	defer r.Shutdown()

	var mu sync.Mutex
	var order []string
	logT := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	c := NewCapture()
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}, Fn: logT("w")})
	c.Submit(&Task{Label: "r1", In: []Dep{k}, Fn: logT("r1")})
	c.Submit(&Task{Label: "r2", In: []Dep{k}, Fn: logT("r2")})
	c.Submit(&Task{Label: "w2", InOut: []Dep{k}, Fn: logT("w2")})
	tpl := c.Freeze()

	for trial := 0; trial < 50; trial++ {
		mu.Lock()
		order = order[:0]
		mu.Unlock()
		r.Replay(tpl)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(order) != 4 {
			t.Fatalf("trial %d: %d tasks ran, want 4 (%v)", trial, len(order), order)
		}
		if order[0] != "w" || order[3] != "w2" {
			t.Fatalf("trial %d: order %v violates capture dependencies", trial, order)
		}
	}
}

// TestReplayAccumulates checks that replaying N times runs every body N times
// and that state mutated through an InOut chain accumulates across replays.
func TestReplayAccumulates(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()

	var total atomic.Int64
	c := NewCapture()
	k := key("acc")
	for i := 0; i < 5; i++ {
		c.Submit(&Task{Label: "add", InOut: []Dep{k}, Fn: func() { total.Add(1) }})
	}
	tpl := c.Freeze()

	const replays = 7
	for i := 0; i < replays; i++ {
		r.Replay(tpl)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := total.Load(); got != 5*replays {
		t.Fatalf("total = %d, want %d", got, 5*replays)
	}
	st := r.Stats()
	if st.Replays != replays {
		t.Fatalf("Stats.Replays = %d, want %d", st.Replays, replays)
	}
	if st.Submitted != 5*replays {
		t.Fatalf("Stats.Submitted = %d, want %d", st.Submitted, 5*replays)
	}
}

// TestReplayPanicPropagates checks a panicking replayed body surfaces as a
// Wait error, exactly like a fresh-submitted task.
func TestReplayPanicPropagates(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()

	c := NewCapture()
	c.Submit(&Task{Label: "boom", Fn: func() { panic("kaput") }})
	tpl := c.Freeze()

	r.Replay(tpl)
	err := r.Wait()
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("Wait = %v, want the task panic", err)
	}
}

func TestReplayAfterShutdownPanics(t *testing.T) {
	r := New(Options{Workers: 1})
	tpl := captureChain()
	r.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Replay after Shutdown did not panic")
		}
	}()
	r.Replay(tpl)
}

// TestOverlappingReplayPanics checks the live-counter guard: replaying a
// template whose previous replay has not drained must panic rather than
// corrupt the shared in-degree counters.
func TestOverlappingReplayPanics(t *testing.T) {
	r := New(Options{Workers: 2})
	defer r.Shutdown()

	release := make(chan struct{})
	started := make(chan struct{})
	c := NewCapture()
	c.Submit(&Task{Label: "slow", Fn: func() {
		close(started)
		<-release
	}})
	tpl := c.Freeze()

	r.Replay(tpl)
	<-started // the first replay is definitely still live

	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlapping Replay did not panic")
			}
		}()
		r.Replay(tpl)
	}()

	close(release)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	// Drained now: replaying again must succeed (release stays closed, the
	// re-run body falls straight through the receive).
	started = make(chan struct{})
	r.Replay(tpl)
	<-started
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestInlineReplayOrder checks Inline.Replay runs bodies in capture order on
// the calling goroutine — the same schedule inline fresh emission produces.
func TestInlineReplayOrder(t *testing.T) {
	e := NewInline(nil)
	var order []int
	c := NewCapture()
	for i := 0; i < 6; i++ {
		c.Submit(&Task{Label: "t", Fn: func() { order = append(order, i) }})
	}
	tpl := c.Freeze()

	e.Replay(tpl)
	e.Replay(tpl)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("%d bodies ran, want 12", len(order))
	}
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 6; i++ {
			if order[rep*6+i] != i {
				t.Fatalf("replay %d ran out of capture order: %v", rep, order)
			}
		}
	}
}

// TestCaptureFrozenPanics checks a frozen capture rejects further submissions.
func TestCaptureFrozenPanics(t *testing.T) {
	c := NewCapture()
	c.Submit(&Task{Label: "a"})
	c.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on a frozen Capture did not panic")
		}
	}()
	c.Submit(&Task{Label: "b"})
}

// TestEmptyTemplateReplay checks replaying an empty template is a no-op.
func TestEmptyTemplateReplay(t *testing.T) {
	r := New(Options{Workers: 1})
	defer r.Shutdown()
	tpl := NewCapture().Freeze()
	r.Replay(tpl)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Replays != 0 || st.Submitted != 0 {
		t.Fatalf("empty replay counted: %+v", st)
	}
}

// TestReplayWithDepCheckClean runs a depcheck-enabled runtime through several
// replays of a well-formed graph and expects no sanitizer reports.
func TestReplayWithDepCheckClean(t *testing.T) {
	r := New(Options{Workers: 4, DepCheck: true})
	defer r.Shutdown()

	var sum int
	c := NewCapture()
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}, Fn: func() { sum++ }})
	c.Submit(&Task{Label: "r", In: []Dep{k}, Fn: func() { _ = sum }})
	tpl := c.Freeze()

	for i := 0; i < 3; i++ {
		r.Replay(tpl)
		if err := r.Wait(); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
}

// TestReplayAllocsIndependentOfTaskCount pins the steady-state cost of a
// replayed step: completing a task must not allocate, so the allocations
// of one Replay+Wait may not grow with the number of tasks in the template.
// Each template is a chain (every completion readies one successor) feeding
// a fan-out (one completion readies all the rest).
func TestReplayAllocsIndependentOfTaskCount(t *testing.T) {
	build := func(n int) *Template {
		c := NewCapture()
		k := key("chain")
		for i := 0; i < n; i++ {
			c.Submit(&Task{Label: "chain", InOut: []Dep{k}, Fn: func() {}})
		}
		for i := 0; i < n; i++ {
			c.Submit(&Task{Label: "leaf", In: []Dep{k}, Fn: func() {}})
		}
		return c.Freeze()
	}
	for _, pol := range []Policy{BreadthFirst, LocalityAware} {
		r := New(Options{Workers: 2, Policy: pol})
		allocs := func(n int) float64 {
			tpl := build(n)
			return testing.AllocsPerRun(20, func() {
				r.Replay(tpl)
				if err := r.Wait(); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(16), allocs(512)
		r.Shutdown()
		if large > small {
			t.Errorf("%v: replay allocates %.0f objects at 1024 tasks, %.0f at 32: completions allocate",
				pol, large, small)
		}
	}
}
