package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/obs"
	"bpar/internal/serve"
	"bpar/internal/taskrt"
)

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the workloads and
// metrics the program emits, by name and unit, in order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestReconciliationChecksFailOutsideTolerance(t *testing.T) {
	base := time.Now()
	cases := []struct {
		name string
		err  error
		fail bool
	}{
		{"node sum equal", checkNodeSum(1000, 1000), false},
		{"node sum off by 1ns", checkNodeSum(1000, 1001), true},
		{"work/span in range", checkWorkSpan(200e6, 30e6, 110e6, 1e6, 2), false},
		{"span above elapsed", checkWorkSpan(200e6, 120e6, 110e6, 0, 2), true},
		{"elapsed above greedy bound", checkWorkSpan(200e6, 30e6, 160e6, 0, 2), true},
		{"window inside call", checkContained(base, base.Add(10*time.Millisecond), base, 0, int64(time.Millisecond), int64(9*time.Millisecond)), false},
		{"window before call", checkContained(base.Add(5*time.Millisecond), base.Add(10*time.Millisecond), base, 0, int64(time.Millisecond), int64(9*time.Millisecond)), true},
		{"window after call", checkContained(base, base.Add(10*time.Millisecond), base, 0, int64(time.Millisecond), int64(12*time.Millisecond)), true},
		{"compute stage wraps InferProbs", checkComputeStage(20.4, 20), false},
		{"compute stage far above InferProbs", checkComputeStage(25, 20), true},
		{"compute stage below InferProbs", checkComputeStage(19, 20), true},
		{"compute stage near direct InferProbs", checkDirectCompute(30, 20), false},
		{"compute stage far above direct InferProbs", checkDirectCompute(60, 20), true},
		{"compute stage far below direct InferProbs", checkDirectCompute(10, 20), true},
	}
	for _, c := range cases {
		if (c.err != nil) != c.fail {
			t.Errorf("%s: err = %v, want failure %v", c.name, c.err, c.fail)
		}
	}
}

// tinySpec is a training workload small enough for a unit test.
var tinySpec = trainSpec{
	name: "tiny",
	cfg: core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 8, HiddenSize: 8, Layers: 2, SeqLen: 6, Batch: 4,
		Classes: data.NumDigits, MiniBatches: 2,
	},
	policy: taskrt.LocalityAware, workers: 2,
	refSteps: 2, setupReps: 2, limit: time.Second,
}

// TestTracedTrainRunReconciles runs the traced training path end to end:
// every step must check out and every reconciliation must pass.
func TestTracedTrainRunReconciles(t *testing.T) {
	out := newOutcome()
	tr := newTracer()
	if err := runTrain(tinySpec, opts{seed: 3, seconds: 0.4, trace: true}, out, tr); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
	}
	ok := 0
	for _, n := range out.notes {
		if strings.HasPrefix(n, "reconciliation ok") {
			ok++
		}
	}
	if ok != 3 {
		t.Errorf("%d reconciliation checks passed, want 3:\n%s", ok, strings.Join(out.notes, "\n"))
	}
	for _, name := range []string{"train_seq_per_s", "setup_s", "prof.work_ms_per_step", "taskrt.tasks_per_step", "core.speedup_2w", "prof.kind.lstm.ms_per_step"} {
		if v := out.values[name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if tr.len() == 0 {
		t.Error("no spans recorded")
	}
}

// TestTracedServeRunReconciles runs the traced serving path end to end.
func TestTracedServeRunReconciles(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the server below the workload's fixed offered load")
	}
	out := newOutcome()
	if err := runServe(opts{seed: 3, seconds: 1, trace: true}, out, newTracer()); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
	}
	ok := 0
	for _, n := range out.notes {
		if strings.HasPrefix(n, "reconciliation ok") {
			ok++
		}
	}
	if ok != 4 {
		t.Errorf("%d reconciliation checks passed, want 4:\n%s", ok, strings.Join(out.notes, "\n"))
	}
	for _, name := range []string{"serve_p50_ms", "serve_goodput_rps", "train_seq_per_s", "serve.compute_ms_p50", "prof.kind.gru.ms_per_step"} {
		if v := out.values[name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

// TestVerifyRejectsWrongAnswer: a single flipped bit in a served
// probability is a failed operation.
func TestVerifyRejectsWrongAnswer(t *testing.T) {
	want := []float64{0.25, 0.75}
	body := func(p []float64) []byte {
		b, err := json.Marshal(serve.InferResponse{Results: []serve.SequenceResult{{SeqLen: 3, Probs: [][]float64{p}}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	p := payload{n: 3, want: want}
	if err := verify(&reqRec{code: http.StatusOK, body: body(want)}, p); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	flipped := []float64{0.25, math.Float64frombits(math.Float64bits(0.75) ^ 1)}
	if verify(&reqRec{code: http.StatusOK, body: body(flipped)}, p) == nil {
		t.Error("answer one bit off accepted")
	}
	if verify(&reqRec{code: http.StatusTooManyRequests, body: []byte(`{}`)}, p) == nil {
		t.Error("429 accepted")
	}
}

// TestHistQuantileMatchesObs: quantiles read back from the exposition agree
// with the registry's own estimate.
func TestHistQuantileMatchesObs(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.MustHistogram("x_seconds", "test", obs.DefSecondsBuckets, 0, "stage", "compute")
	for i := 1; i <= 500; i++ {
		h.Observe(float64(i) / 2000)
	}
	p := scrape(reg)
	for _, q := range []float64{0.5, 0.99} {
		got := p.histQuantile("x_seconds", `stage="compute"`, q)
		if want := h.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("q%.2f: %v, obs says %v", q, got, want)
		}
	}
	if got, want := p.histMean("x_seconds", ""), h.Sum()/float64(h.Count()); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if got := quantile([]float64{1, 2, failedLatencyMS}, 0.99); got <= ms(serveLimit) {
		t.Errorf("a failed request must count as missing the latency limit, got %vms", got)
	}
}
