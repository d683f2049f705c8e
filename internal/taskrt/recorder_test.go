package taskrt

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecorderBuildsEdges(t *testing.T) {
	r := NewRecorder(false)
	a, b := key("a"), key("b")
	r.Submit(&Task{Label: "w1", Out: []Dep{a}, Flops: 10})
	r.Submit(&Task{Label: "r1", In: []Dep{a}, Out: []Dep{b}, Flops: 20})
	r.Submit(&Task{Label: "r2", In: []Dep{a, b}, Flops: 30})
	g := r.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 3 {
		t.Fatalf("got %d nodes", len(g.Nodes))
	}
	// r1 depends on w1; r2 depends on w1 (via a) and r1 (via b).
	if len(g.Nodes[1].Preds) != 1 || g.Nodes[1].Preds[0] != 0 {
		t.Fatalf("r1 preds %v", g.Nodes[1].Preds)
	}
	if len(g.Nodes[2].Preds) != 2 {
		t.Fatalf("r2 preds %v", g.Nodes[2].Preds)
	}
	if got := g.CriticalPathFlops(); got != 60 {
		t.Fatalf("critical path %g, want 60", got)
	}
	if got := g.TotalFlops(); got != 60 {
		t.Fatalf("total %g", got)
	}
}

func TestRecorderWARWAWEdges(t *testing.T) {
	r := NewRecorder(false)
	a := key("a")
	r.Submit(&Task{Label: "w1", Out: []Dep{a}})
	r.Submit(&Task{Label: "r1", In: []Dep{a}})
	r.Submit(&Task{Label: "w2", Out: []Dep{a}}) // WAW on w1 + WAR on r1
	g := r.Graph()
	n := g.Nodes[2]
	if len(n.Preds) != 2 {
		t.Fatalf("w2 preds %v", n.Preds)
	}
	// Both edges are ordering edges (no data read).
	for i := range n.Preds {
		if n.DataPreds[i] {
			t.Fatalf("w2 edge %d should not carry data", i)
		}
	}
}

func TestRecorderDataFlagOnRAW(t *testing.T) {
	r := NewRecorder(false)
	a := key("a")
	r.Submit(&Task{Label: "w", Out: []Dep{a}})
	r.Submit(&Task{Label: "r", In: []Dep{a}})
	g := r.Graph()
	if !g.Nodes[1].DataPreds[0] {
		t.Fatal("RAW edge must carry data")
	}
}

func TestRecorderExecutesWhenAsked(t *testing.T) {
	r := NewRecorder(true)
	ran := 0
	r.Submit(&Task{Fn: func() { ran++ }})
	r.Submit(&Task{Fn: func() { ran++ }})
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran %d", ran)
	}
}

func TestRecorderDoesNotExecuteByDefault(t *testing.T) {
	r := NewRecorder(false)
	ran := 0
	r.Submit(&Task{Fn: func() { ran++ }})
	if ran != 0 {
		t.Fatal("record-only must not execute")
	}
}

func TestRecorderCapturesPanic(t *testing.T) {
	r := NewRecorder(true)
	r.Submit(&Task{Label: "boom", Fn: func() { panic("x") }})
	if err := r.Wait(); err == nil {
		t.Fatal("expected error")
	}
}

func TestGraphMaxWidth(t *testing.T) {
	r := NewRecorder(false)
	root := key("root")
	r.Submit(&Task{Label: "root", Out: []Dep{root}})
	for i := 0; i < 5; i++ {
		r.Submit(&Task{Label: fmt.Sprintf("leaf%d", i), In: []Dep{root}})
	}
	g := r.Graph()
	if w := g.MaxWidth(); w != 5 {
		t.Fatalf("MaxWidth %d, want 5", w)
	}
}

func TestGraphCountKind(t *testing.T) {
	r := NewRecorder(false)
	r.Submit(&Task{Kind: "lstm"})
	r.Submit(&Task{Kind: "lstm"})
	r.Submit(&Task{Kind: "merge"})
	g := r.Graph()
	if g.CountKind("lstm") != 2 || g.CountKind("merge") != 1 || g.CountKind("gru") != 0 {
		t.Fatal("CountKind wrong")
	}
}

// TestQuickRuntimeMatchesRecorderSemantics verifies, over random task
// streams, that the parallel runtime's observed execution respects exactly
// the ordering constraints the recorder derives: for every recorded edge
// (p -> s), p finishes before s starts. This is the linearizability property
// of the dependency runtime.
func TestQuickRuntimeMatchesRecorderSemantics(t *testing.T) {
	f := func(seed uint64) bool {
		type spec struct {
			in, out []Dep
		}
		// Generate a deterministic pseudo-random task stream from the seed.
		nTasks := int(seed%40) + 10
		state := seed
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		keys := []Dep{key("a"), key("b"), key("c"), key("d"), key("e")}
		specs := make([]spec, nTasks)
		for i := range specs {
			for j := 0; j < next(3); j++ {
				specs[i].in = append(specs[i].in, keys[next(len(keys))])
			}
			for j := 0; j < next(2)+1; j++ {
				specs[i].out = append(specs[i].out, keys[next(len(keys))])
			}
		}

		// Record the expected graph.
		rec := NewRecorder(false)
		for i, s := range specs {
			rec.Submit(&Task{Label: fmt.Sprintf("t%d", i), In: s.in, Out: s.out})
		}
		g := rec.Graph()

		// Execute on the parallel runtime, logging completion order.
		rt := New(Options{Workers: 4})
		defer rt.Shutdown()
		done := make([]int32, nTasks)
		violated := make(chan int, nTasks)
		var clock int32
		mu := chanLock{mu: make(chan struct{}, 1)}
		for i, s := range specs {
			i := i
			rt.Submit(&Task{In: s.in, Out: s.out, Fn: func() {
				// Check all recorded predecessors already completed.
				for _, p := range g.Nodes[i].Preds {
					mu.Lock()
					d := done[p]
					mu.Unlock()
					if d == 0 {
						violated <- i
						return
					}
				}
				mu.Lock()
				clock++
				done[i] = clock
				mu.Unlock()
			}})
		}
		if err := rt.Wait(); err != nil {
			return false
		}
		select {
		case <-violated:
			return false
		default:
			return true
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// chanLock is a tiny mutex to keep the quick test self-contained. Its
// channel must be made before the lock is shared: a lazy make inside Lock
// races between the first two concurrent callers.
type chanLock struct{ mu chan struct{} }

func (l *chanLock) Lock()   { l.mu <- struct{}{} }
func (l *chanLock) Unlock() { <-l.mu }

func TestInlineExecutor(t *testing.T) {
	e := NewInline(nil)
	sum := 0
	e.Submit(&Task{Fn: func() { sum += 1 }})
	e.Submit(&Task{Fn: func() { sum += 2 }})
	e.Submit(&Task{Fn: nil})
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	// Fn == nil tasks count as executed empty bodies, matching Runtime.
	if sum != 3 || e.Executed() != 3 {
		t.Fatalf("sum=%d executed=%d", sum, e.Executed())
	}
}

func TestInlineCapturesPanic(t *testing.T) {
	e := NewInline(nil)
	e.Submit(&Task{Label: "boom", Fn: func() { panic("x") }})
	if err := e.Wait(); err == nil {
		t.Fatal("expected error")
	}
	// Later tasks still run.
	ran := false
	e.Submit(&Task{Fn: func() { ran = true }})
	if !ran {
		t.Fatal("inline executor stopped after panic")
	}
}

func TestInlineSinkGetsRecords(t *testing.T) {
	sink := &collectSink{}
	e := NewInline(sink)
	e.Submit(&Task{Label: "a", Kind: "k", Fn: func() {}})
	if len(sink.recs) != 1 || sink.recs[0].Label != "a" {
		t.Fatalf("records %+v", sink.recs)
	}
}

func TestWriteDOT(t *testing.T) {
	r := NewRecorder(false)
	a := key("a")
	r.Submit(&Task{Label: "w", Kind: "lstm", Out: []Dep{a}})
	r.Submit(&Task{Label: "r", Kind: "merge", In: []Dep{a}})
	r.Submit(&Task{Label: "w2", Kind: "head", Out: []Dep{a}}) // WAR: dashed edge
	var buf strings.Builder
	if err := r.Graph().WriteDOT(&buf, "test graph"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph bpar", `label="test graph"`,
		`n0 [label="w", fillcolor="lightblue"]`,
		`n1 [label="r", fillcolor="khaki"]`,
		"n0 -> n1 [style=solid]",
		"n1 -> n2 [style=dashed]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
