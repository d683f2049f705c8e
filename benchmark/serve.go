package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/obs"
	"bpar/internal/serve"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// The serve-mixed workload: an in-process serve.Server hosting a BGRU,
// driven through its Handler with no sockets by an open-loop Poisson
// generator. It is the only workload where admission, bucketing with masked
// padding, micro-batching and queueing do work, the only forward-only one
// and the only GRU.
const (
	// serveRate is the offered load, about half the saturation a 2-core
	// host reaches on this model and mix.
	serveRate = 100.0
	// serveLimit is the latency limit of serve_goodput_rps.
	serveLimit = 500 * time.Millisecond
	// servePayloadsPerLen distinct sequences exist per request length; the
	// expected answer of each is computed before the run.
	servePayloadsPerLen = 6
	serveSetupReps      = 21
	// serveTrainSeconds is the training window of train_seq_per_s.
	serveTrainSeconds = 5
	// serveWarmSeconds of load precede each measured window.
	serveWarmSeconds  = 1
	serveDrainTimeout = 60 * time.Second
)

var serveBuckets = []int{32, 64, 96}

// serveLens are the request lengths, drawn uniformly: 16..96 in steps of 8.
func serveLens() []int {
	var ls []int
	for l := 16; l <= 96; l += 8 {
		ls = append(ls, l)
	}
	return ls
}

// serveSpec is the served model's configuration; as a training spec it
// also yields the workload's train_seq_per_s (at the middle bucket length).
var serveSpec = trainSpec{
	name: "serve-mixed",
	cfg: core.Config{
		Cell: core.GRU, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 40, HiddenSize: 64, Layers: 2, SeqLen: 64, Batch: 8,
		Classes: data.NumDigits, MiniBatches: 1,
	},
	policy: taskrt.LocalityAware, workers: 2, refSteps: 3,
}

// payload is one pre-marshaled request body and its expected answer.
type payload struct {
	body []byte
	n    int
	want []float64
}

// reqRec is one scheduled request.
type reqRec struct {
	payload         int
	dueOffset       time.Duration // due time from the window's start
	due, sent, done time.Time
	code            int
	body            []byte
	correct         bool
}

// newServer builds the pool and warms every bucket; the two together are
// the workload's set-up.
func newServer(m *core.Model, reg *obs.Registry, sink taskrt.ProfileSink) (*serve.Server, error) {
	srv, err := serve.New(serveConfig(m, reg, sink))
	if err != nil {
		return nil, err
	}
	if err := srv.Warm(serveBuckets); err != nil {
		_ = drain(srv) // the warm-up error is the one to report
		return nil, err
	}
	return srv, nil
}

// serveConfig is the pool bpar-serve runs with its default flags (f64,
// PackPanels off, 2ms batch window, default queue capacity), one engine of
// two workers, and the workload's buckets.
func serveConfig(m *core.Model, reg *obs.Registry, sink taskrt.ProfileSink) serve.Config {
	return serve.Config{
		Model: m, Engines: 1, WorkersPerEngine: 2,
		Buckets: serveBuckets, MaxCachedSeqLens: 16,
		Registry: reg, Profile: sink,
	}
}

func drain(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), serveDrainTimeout)
	defer cancel()
	return srv.Drain(ctx)
}

// makePayloads synthesizes the finite payload set from the seed and
// computes each one's expected probabilities with a direct
// Engine.InferProbs at the sequence's exact length.
func makePayloads(m *core.Model, seed uint64) ([]payload, error) {
	cfg := m.Cfg
	r := rand.New(rand.NewPCG(seed, 0x5e77e))
	rt := taskrt.New(taskrt.Options{Workers: 2, Policy: taskrt.LocalityAware})
	defer rt.Shutdown()
	eng := core.NewEngine(m, rt)
	var ps []payload
	for _, n := range serveLens() {
		for k := 0; k < servePayloadsPerLen; k++ {
			frames := make([][]float64, n)
			X := make([]*tensor.Matrix, n)
			for t := range frames {
				frames[t] = make([]float64, cfg.InputSize)
				for j := range frames[t] {
					frames[t][j] = r.NormFloat64()
				}
				X[t] = tensor.New(cfg.Batch, cfg.InputSize)
				copy(X[t].Row(0), frames[t])
			}
			probs, _, err := eng.InferProbs(&core.Batch{X: X, Real: 1})
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.InferRequest{Sequences: [][][]float64{frames}})
			if err != nil {
				return nil, err
			}
			ps = append(ps, payload{body: body, n: n, want: append([]float64(nil), probs[0].Row(0)...)})
		}
	}
	return ps, nil
}

// schedule draws the open-loop arrivals of one window: a Poisson process
// conditioned on its count, i.e. rate*window arrival times uniform over the
// window, each with a uniformly drawn payload.
func schedule(seed uint64, window time.Duration, nPayloads int) ([]time.Duration, []int) {
	r := rand.New(rand.NewPCG(seed, 0xa771e))
	n := max(1, int(math.Round(serveRate*window.Seconds())))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	which := make([]int, n)
	for i := range which {
		which[i] = r.IntN(nPayloads)
	}
	return due, which
}

// loadWindow drives one window of open-loop load: each request is sent at
// its due time, whatever the previous ones are doing, and timed from it. It
// also returns the most requests that were outstanding at once.
func loadWindow(h http.Handler, ps []payload, due []time.Duration, which []int) ([]reqRec, int64, error) {
	recs := make([]reqRec, len(due))
	var outstanding, peak atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range due {
		recs[i].payload = which[i]
		recs[i].dueOffset = due[i]
		recs[i].due = t0.Add(due[i])
		if d := time.Until(recs[i].due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(rec *reqRec) {
			defer wg.Done()
			n := outstanding.Add(1)
			defer outstanding.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			rec.sent = time.Now()
			req := httptest.NewRequest(http.MethodPost, "/v1/probs", bytes.NewReader(ps[rec.payload].body))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			rec.done = time.Now()
			rec.code = rw.Code
			rec.body = rw.Body.Bytes()
		}(&recs[i])
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return recs, peak.Load(), nil
	case <-time.After(serveDrainTimeout):
		return nil, 0, fmt.Errorf("serve: requests still outstanding %v after the window", serveDrainTimeout)
	}
}

// verify checks one answer against the payload's expected probabilities,
// bit for bit.
func verify(rec *reqRec, p payload) error {
	if rec.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.code, bytes.TrimSpace(rec.body))
	}
	var resp serve.InferResponse
	if err := json.Unmarshal(rec.body, &resp); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].SeqLen != p.n || len(resp.Results[0].Probs) != 1 {
		return fmt.Errorf("answer shape: %d results", len(resp.Results))
	}
	got := resp.Results[0].Probs[0]
	if len(got) != len(p.want) {
		return fmt.Errorf("answer has %d classes, want %d", len(got), len(p.want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(p.want[j]) {
			return fmt.Errorf("class %d: %v, direct InferProbs gives %v", j, got[j], p.want[j])
		}
	}
	return nil
}

// failedLatencyMS is the latency a failed request counts with: it misses
// every limit, yet keeps the percentiles finite and printable.
var failedLatencyMS = ms(serveDrainTimeout)

// windowStats checks every answer of a window and returns the latencies
// from due time (failedLatencyMS for a failed request), the generator's
// lateness and the count of correct answers within serveLimit.
func windowStats(out *outcome, ps []payload, recs []reqRec, tr *tracer, traceBase int64) (lat, late []float64, good int) {
	for i := range recs {
		rec := &recs[i]
		out.attempted++
		t0 := time.Now()
		err := verify(rec, ps[rec.payload])
		if tr != nil {
			id := traceBase + int64(i)
			root := tr.add(id, -1, "request", rec.due, rec.done)
			tr.add(id, root, "loadgen.late", rec.due, rec.sent)
			tr.add(id, root, "serve.Handler.ServeHTTP", rec.sent, rec.done)
			tr.add(id, root, "check", t0, time.Now())
		}
		late = append(late, ms(rec.sent.Sub(rec.due)))
		if err != nil {
			out.fail("request %d (length %d): %v", i, ps[rec.payload].n, err)
			lat = append(lat, failedLatencyMS)
			continue
		}
		rec.correct = true
		d := rec.done.Sub(rec.due)
		lat = append(lat, ms(d))
		if d <= serveLimit {
			good++
		}
	}
	return lat, late, good
}

func runServe(o opts, out *outcome, tr *tracer) error {
	cfg := serveSpec.cfg
	cfg.Seed = o.seed
	model, err := core.NewModel(cfg)
	if err != nil {
		return err
	}

	// Set-up: serve.New plus Warm of every bucket, repeated cold.
	var setups, warms []float64
	var srv *serve.Server
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			if err := drain(srv); err != nil {
				return err
			}
		}
		runtime.GC() // as for the training builds
		t0 := time.Now()
		s, err := serve.New(serveConfig(model, obs.NewRegistry(), nil))
		if err != nil {
			return err
		}
		t1 := time.Now()
		out.attempted++
		if err := s.Warm(serveBuckets); err != nil {
			out.fail("warm: %v", err)
		}
		t2 := time.Now()
		srv = s
		setups = append(setups, t2.Sub(t0).Seconds())
		warms = append(warms, ms(t2.Sub(t1))/float64(len(serveBuckets)))
	}
	out.values["setup_s"] = median(setups)
	out.values["core.first_step_ms"] = median(warms)

	ps, err := makePayloads(model, o.seed)
	if err != nil {
		_ = drain(srv) // the payload error is the one to report
		return err
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	runtime.GC() // the cold builds' garbage
	if err := warmLoad(out, srv, ps, o.seed); err != nil {
		return err
	}
	due, which := schedule(o.seed, window, len(ps))
	recs, peak, err := loadWindow(srv.Handler(), ps, due, which)
	if err != nil {
		return err
	}
	lat, late, good := windowStats(out, ps, recs, nil, 0)
	p50 := quantile(lat, 0.5)
	out.values["serve_p50_ms"] = p50
	out.values["serve_p99_ms"] = quantile(lat, 0.99)
	out.values["serve_goodput_rps"] = float64(good) / windowWall(recs).Seconds()
	out.values["loadgen.late_ms_p99"] = quantile(late, 0.99)
	out.values["heap_live_mb"] = heapLiveMB()
	if err := drain(srv); err != nil {
		return err
	}
	out.note("serve-mixed: %d requests at %.0f req/s over %v (open loop, Poisson), %d samples, %d beyond p99; latency from due time p50 %.2fms p99 %.2fms; goodput limit %v; generator lateness p99 %.3fms",
		len(recs), serveRate, window, len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))), p50, out.values["serve_p99_ms"], serveLimit, out.values["loadgen.late_ms_p99"])
	countCodes(out, recs)
	// Headroom against admission control: beyond the server's queue
	// capacity, requests would be refused with 429 and count as failed.
	out.note("serve-mixed: at most %d requests (one sequence each) outstanding at once", peak)

	// train_seq_per_s: the served model's configuration trained on the
	// speech corpus at the middle bucket length, on its own rig.
	rig, first, _, err := newTrainRig(serveSpec, o.seed, serveSpec.workers, nil)
	if err != nil {
		return err
	}
	checkStep(out, "serve model first train step", first)
	steps, _ := trainWindow(rig, serveTrainSeconds, serveSpec.refSteps)
	rig.close()
	var stepMS []float64
	for i, s := range steps {
		checkStep(out, fmt.Sprintf("serve model train step %d", i+1), s)
		stepMS = append(stepMS, ms(s.totalD()))
	}
	out.values["train_seq_per_s"] = float64(cfg.Batch) / (median(stepMS) / 1e3)

	if !o.trace {
		return nil
	}
	return traceServe(o, out, tr, model, ps, window, p50)
}

// warmLoad runs serveWarmSeconds of the same load, unmeasured but
// checked, so the window starts on a server in its steady state.
func warmLoad(out *outcome, srv *serve.Server, ps []payload, seed uint64) error {
	due, which := schedule(seed^0xfeed, serveWarmSeconds*time.Second, len(ps))
	recs, _, err := loadWindow(srv.Handler(), ps, due, which)
	if err != nil {
		return err
	}
	for i := range recs {
		out.attempted++
		if err := verify(&recs[i], ps[recs[i].payload]); err != nil {
			out.fail("warm-up request %d: %v", i, err)
		}
	}
	return nil
}

// windowWall is the time from the window's start to its last answer.
func windowWall(recs []reqRec) time.Duration {
	var last time.Time
	for _, r := range recs {
		if r.done.After(last) {
			last = r.done
		}
	}
	start := recs[0].due.Add(-recs[0].dueOffset)
	return last.Sub(start)
}

// countCodes reports the window's answers by outcome.
func countCodes(out *outcome, recs []reqRec) {
	var ok, rejected, errs, wrong int
	for _, r := range recs {
		switch {
		case r.code == http.StatusOK && r.correct:
			ok++
		case r.code == http.StatusOK:
			wrong++
		case r.code == http.StatusTooManyRequests:
			rejected++
		default:
			errs++
		}
	}
	out.note("serve-mixed: sent %d, ok %d, 429 %d, errors %d, wrong answers %d",
		len(recs), ok, rejected, errs, wrong)
}

// traceServe is the traced half of a -trace 1 run: a second server with the
// graph profiler installed and spans around every request.
func traceServe(o opts, out *outcome, tr *tracer, model *core.Model, ps []payload, window time.Duration, untracedP50 float64) error {
	sink := newReplaySink()
	reg := obs.NewRegistry()
	rtBase := time.Now()
	srv, err := newServer(model, reg, sink)
	if err != nil {
		return err
	}
	if err := warmLoad(out, srv, ps, o.seed+2); err != nil {
		return err
	}
	before := scrape(reg)
	hit0, miss0 := srv.TemplateStats()
	flops0, calls0 := tensor.GEMMFlops(), tensor.GEMMCalls()
	rs0 := readRuntime()
	// The same arrivals as the untraced window, so the two compare.
	due, which := schedule(o.seed, window, len(ps))
	recs, _, err := loadWindow(srv.Handler(), ps, due, which)
	if err != nil {
		return err
	}
	rs1 := readRuntime()
	flops1, calls1 := tensor.GEMMFlops(), tensor.GEMMCalls()
	hit1, miss1 := srv.TemplateStats()
	// Drained first, so every micro-batch of the window has recorded its
	// stage and engine timings.
	if err := drain(srv); err != nil {
		return err
	}
	win := scrape(reg).minus(before)
	lat, late, _ := windowStats(out, ps, recs, tr, 0)
	countCodes(out, recs)
	for k, w := range sink.replays() {
		tr.add(int64(len(recs)+k), -1, "taskrt.Replay "+w.name,
			rtBase.Add(time.Duration(w.start)), rtBase.Add(time.Duration(w.end)))
	}

	v := out.values
	batches := win["bpar_serve_batches_total"]
	if batches <= 0 {
		return fmt.Errorf("traced serve window dispatched no batches")
	}
	v["tensor.gflop_per_step"] = float64(flops1-flops0) / batches / 1e9
	v["tensor.gemm_calls_per_step"] = float64(calls1-calls0) / batches
	v["core.step_ms_p50"] = 1e3 * win.histQuantile("bpar_engine_step_seconds", `op="infer"`, 0.5)
	v["core.allocs_per_step"] = float64(rs1.allocObjects-rs0.allocObjects) / batches
	v["core.alloc_kb_per_step"] = float64(rs1.allocBytes-rs0.allocBytes) / 1024 / batches
	v["core.gc_cpu_frac"] = gcCPUFrac(rs0, rs1)
	if h, m := hit1-hit0, miss1-miss0; h+m > 0 {
		v["core.tpl_hit_ratio"] = float64(h) / float64(h+m)
	}
	for _, st := range []string{"queue_wait", "batch_wait", "compute"} {
		sel := `stage="` + st + `"`
		v["serve."+st+"_ms_p50"] = 1e3 * win.histQuantile("bpar_serve_stage_seconds", sel, 0.5)
		v["serve."+st+"_ms_p99"] = 1e3 * win.histQuantile("bpar_serve_stage_seconds", sel, 0.99)
	}
	v["serve.batch_fill"] = win.histMean("bpar_serve_batch_fill", "")
	v["serve.padding_frac"] = win.histMean("bpar_serve_padding_overhead", "")
	seqs := win["bpar_serve_sequences_total"]
	if rej := win["bpar_serve_rejected_sequences_total"]; seqs+rej > 0 {
		v["serve.rejected_frac"] = rej / (seqs + rej)
	}
	v["loadgen.late_ms_p99"] = quantile(late, 0.99)
	v["trace.overhead_frac"] = quantile(lat, 0.5)/untracedP50 - 1

	roll := sink.rollup(2)
	roll.report(out, 2)
	ks := kernelShapeOf(serveSpec.cfg)
	measureKernels(out, ks)

	reconcile(out, "node durations sum to prof work", checkNodeSum(sink.nodeNS.Load(), roll.sumNodeNS))
	// The pool's runtime is internal to serve, so its bookkeeping time is not
	// available; the bound is work/P + span alone.
	reconcile(out, "span <= replay elapsed <= work/P + span + overhead",
		checkWorkSpan(roll.workNS, roll.spanNS, roll.elapsedNS, 0, 2))
	stage := win.histMean("bpar_serve_stage_seconds", `stage="compute"`) * 1e3
	infer := win.histMean("bpar_engine_step_seconds", `op="infer"`) * 1e3
	reconcile(out, "serve compute stage wraps its InferProbs calls", checkComputeStage(stage, infer))
	direct, err := directCompute(model, win)
	if err != nil {
		return err
	}
	reconcile(out, "serve compute stage = direct InferProbs at its bucket and batch", checkDirectCompute(stage, direct))
	out.note("serve-mixed traced: %d batches, compute stage mean %.3fms, its InferProbs calls %.3fms; direct InferProbs of the window's bucket mix %.3fms (stage/direct %.2f)",
		int(batches), stage, infer, direct, stage/direct)
	return nil
}

// directCompute times a direct InferProbs of a full serving batch at each
// bucket length and averages them with the window's per-bucket batch
// counts: what the compute stage should cost.
func directCompute(m *core.Model, win promText) (float64, error) {
	cfg := m.Cfg
	rt := taskrt.New(taskrt.Options{Workers: 2, Policy: taskrt.LocalityAware})
	defer rt.Shutdown()
	eng := core.NewEngine(m, rt)
	var sum, n float64
	for _, T := range serveBuckets {
		cnt := win[fmt.Sprintf(`bpar_serve_bucket_batches_total{bucket="%d"}`, T)]
		if cnt == 0 {
			continue
		}
		X := make([]*tensor.Matrix, T)
		for t := range X {
			X[t] = tensor.New(cfg.Batch, cfg.InputSize)
		}
		b := &core.Batch{X: X}
		if _, _, err := eng.InferProbs(b); err != nil {
			return 0, err
		}
		var ts []float64
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			if _, _, err := eng.InferProbs(b); err != nil {
				return 0, err
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		sum += cnt * median(ts)
		n += cnt
	}
	if n == 0 {
		return 0, fmt.Errorf("no bucket batches recorded")
	}
	return sum / n, nil
}
