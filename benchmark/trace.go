package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bpar/internal/prof"
	"bpar/internal/taskrt"
)

// span is one timed call the traced run made into a layer. Spans of one
// training step or one request share Trace; Parent is the ID of the span
// that caused this one, -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(trace int64, parent int32, name string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans and the host record as one JSON file under dir.
func (t *tracer) write(dir, workload string, seed uint64, host hostInfo) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	doc := struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Host     hostInfo `json:"host"`
		Spans    []span   `json:"spans"`
	}{workload, seed, host, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}

// replayWindow is one template replay on the runtime clock (nanoseconds
// since the runtime started).
type replayWindow struct {
	name       string
	start, end int64
}

// replaySink is the traced run's taskrt.ProfileSink: it forwards every
// callback to a prof.GraphProfiler and keeps, independently of it, the sum
// of all node durations and every replay's window — the inputs of the
// reconciliation checks and of the replay spans.
type replaySink struct {
	gp     *prof.GraphProfiler
	nodeNS atomic.Int64

	mu      sync.Mutex
	started map[*taskrt.Template]int64
	windows []replayWindow
}

func newReplaySink() *replaySink {
	return &replaySink{gp: prof.NewGraphProfiler(), started: make(map[*taskrt.Template]int64)}
}

func (s *replaySink) ReplayStart(tpl *taskrt.Template, atNS int64) {
	s.mu.Lock()
	s.started[tpl] = atNS
	s.mu.Unlock()
	s.gp.ReplayStart(tpl, atNS)
}

func (s *replaySink) NodeDone(tpl *taskrt.Template, idx, worker int, startNS, endNS int64) {
	s.nodeNS.Add(endNS - startNS)
	s.gp.NodeDone(tpl, idx, worker, startNS, endNS)
}

func (s *replaySink) ReplayDone(tpl *taskrt.Template, atNS int64) {
	s.gp.ReplayDone(tpl, atNS)
	s.mu.Lock()
	s.windows = append(s.windows, replayWindow{tpl.Name, s.started[tpl], atNS})
	s.mu.Unlock()
}

// replays returns a copy of the replay windows recorded so far.
func (s *replaySink) replays() []replayWindow {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]replayWindow(nil), s.windows...)
}

// profRollup is the graph profile folded into per-step figures, weighted
// by each template's replay count.
type profRollup struct {
	replays       int64
	sumNodeNS     int64 // Σ per-node durations over every replay, from the dump
	workNS        float64
	spanNS        float64
	elapsedNS     float64
	depWaitFrac   float64
	schedIdleFrac float64
	kindNS        map[string]int64
	kindFlops     map[string]float64
}

// rollup snapshots the profiler and folds every template into per-replay
// means. It must run while no replay is in flight.
func (s *replaySink) rollup(workers int) profRollup {
	pd := s.gp.Snapshot(workers)
	r := profRollup{kindNS: make(map[string]int64), kindFlops: make(map[string]float64)}
	var elapsedSum, lastElapsed float64
	var depWait, schedIdle float64
	for i := range pd.Templates {
		td := &pd.Templates[i]
		if td.Replays == 0 {
			continue
		}
		a := prof.Analyze(td, workers)
		w := float64(td.Replays)
		r.replays += td.Replays
		r.workNS += a.WorkNS * w
		r.spanNS += a.SpanNS * w
		elapsedSum += float64(td.ElapsedSumNS)
		for _, idle := range a.Idle {
			depWait += float64(idle.DepWaitNS) * w
			schedIdle += float64(idle.SchedIdleNS) * w
		}
		lastElapsed += float64(a.ElapsedNS) * w
		for _, n := range td.Nodes {
			r.sumNodeNS += n.SumNS
			r.kindNS[n.Kind] += n.SumNS
			r.kindFlops[n.Kind] += n.Flops * w
		}
	}
	if r.replays == 0 {
		return r
	}
	n := float64(r.replays)
	r.workNS /= n
	r.spanNS /= n
	r.elapsedNS = elapsedSum / n
	if lastElapsed > 0 {
		// Idle attribution comes from each template's last replay.
		r.depWaitFrac = depWait / (float64(workers) * lastElapsed)
		r.schedIdleFrac = schedIdle / (float64(workers) * lastElapsed)
	}
	return r
}

// report stores the prof.* metrics of the rollup.
func (r profRollup) report(out *outcome, workers int) {
	if r.replays == 0 {
		return
	}
	n := float64(r.replays)
	out.values["prof.work_ms_per_step"] = r.workNS / 1e6
	out.values["prof.span_ms_per_step"] = r.spanNS / 1e6
	if r.spanNS > 0 {
		out.values["prof.parallelism"] = r.workNS / r.spanNS
	}
	if r.elapsedNS > 0 {
		out.values["prof.util"] = r.workNS / (float64(workers) * r.elapsedNS)
	}
	out.values["prof.dep_wait_frac"] = r.depWaitFrac
	out.values["prof.sched_idle_frac"] = r.schedIdleFrac
	for _, k := range profKinds {
		ns := r.kindNS[k]
		if ns == 0 {
			continue
		}
		out.values["prof.kind."+k+".ms_per_step"] = float64(ns) / n / 1e6
		out.values["prof.kind."+k+".gflops"] = r.kindFlops[k] / float64(ns)
	}
	for k := range r.kindNS {
		if !slices.Contains(profKinds, k) {
			out.note("prof: task kind %q is not in the reported kind list", k)
		}
	}
}
