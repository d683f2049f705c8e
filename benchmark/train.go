package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// trainSpec is one training workload. Engines keep the defaults bpar-train
// ships (f64, split gates, replay on, PackPanels off, GradClip 1, lr 0.1),
// so a later change of a default shows up here.
type trainSpec struct {
	name      string
	cfg       core.Config // Seed is set per run
	policy    taskrt.Policy
	workers   int
	refSteps  int           // warm steps compared against the 1-worker executor
	setupReps int           // cold builds whose median is setup_s
	limit     time.Duration // a step slower than this misses the goodput limit
}

const trainLR = 0.1

// h64Spec is the host-sized BLSTM: kernel-bound mid-size batch-16 GEMMs,
// where the dw/proj kernels, host allocation, GC and the optimizer do the
// work and the task scheduler barely matters.
var h64Spec = trainSpec{
	name: "train-h64",
	cfg: core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 32, HiddenSize: 64, Layers: 4, SeqLen: 24, Batch: 16,
		Classes: data.NumDigits, MiniBatches: 2,
	},
	policy: taskrt.LocalityAware, workers: 2,
	refSteps: 5, setupReps: 21, limit: 400 * time.Millisecond,
}

// b1Spec is the paper's Table III batch-1 row: thousands of tiny
// GEMV-shaped tasks along a 200-step recurrence chain, with ~48 MiB of f64
// weights streamed every pass — latency-bound on taskrt replay, the
// critical path and weight bandwidth.
var b1Spec = trainSpec{
	name: "train-b1-t100",
	cfg: core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 256, HiddenSize: 256, Layers: 6, SeqLen: 100, Batch: 1,
		Classes: data.NumDigits, MiniBatches: 1,
	},
	policy: taskrt.BreadthFirst, workers: 2,
	refSteps: 3, setupReps: 5, limit: 2 * time.Second,
}

// trainRig is one model trained by one engine on one runtime, fed by its
// own speech corpus.
type trainRig struct {
	spec   trainSpec
	rt     *taskrt.Runtime
	eng    *core.Engine
	corpus *data.SpeechCorpus
	// rtBase is the wall time just before taskrt.New, the origin of the
	// runtime's clock to within rtSkew (the duration of the New call).
	rtBase time.Time
	rtSkew time.Duration
}

// stepRec is one training step: batch generation, then TrainStep.
type stepRec struct {
	start, split, end time.Time
	loss              float64
	err               error
}

func (s stepRec) dataD() time.Duration  { return s.split.Sub(s.start) }
func (s stepRec) trainD() time.Duration { return s.end.Sub(s.split) }
func (s stepRec) totalD() time.Duration { return s.end.Sub(s.start) }

// newTrainRig builds the model, runtime and engine cold and runs the first
// step, which captures the step template. setup is the time from NewModel
// to the end of that first step.
func newTrainRig(spec trainSpec, seed uint64, workers int, sink taskrt.ProfileSink) (*trainRig, stepRec, time.Duration, error) {
	cfg := spec.cfg
	cfg.Seed = seed
	r := &trainRig{spec: spec, corpus: data.NewSpeechCorpus(cfg.InputSize, seed)}
	b := r.corpus.Batch(cfg.Batch, cfg.SeqLen)
	t0 := time.Now()
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, stepRec{}, 0, err
	}
	r.rtBase = time.Now()
	r.rt = taskrt.New(taskrt.Options{Workers: workers, Policy: spec.policy, Profile: sink})
	r.rtSkew = time.Since(r.rtBase)
	r.eng = core.NewEngine(m, r.rt)
	r.eng.GradClip = 1.0
	first := stepRec{start: time.Now()}
	first.split = first.start
	first.loss, first.err = r.eng.TrainStep(b, trainLR)
	first.end = time.Now()
	return r, first, first.end.Sub(t0), nil
}

// step generates a fresh batch, as bpar-train does, and trains on it.
func (r *trainRig) step() stepRec {
	s := stepRec{start: time.Now()}
	b := r.corpus.Batch(r.spec.cfg.Batch, r.spec.cfg.SeqLen)
	s.split = time.Now()
	s.loss, s.err = r.eng.TrainStep(b, trainLR)
	s.end = time.Now()
	return s
}

func (r *trainRig) close() { r.rt.Shutdown() }

// checkStep counts one step and fails it on an error or a non-finite loss.
func checkStep(out *outcome, what string, s stepRec) {
	out.attempted++
	switch {
	case s.err != nil:
		out.fail("%s: %v", what, s.err)
	case !finite(s.loss):
		out.fail("%s: non-finite loss %v", what, s.loss)
	}
}

// checkSame counts one comparison and fails it when a loss is not bitwise
// equal to the reference.
func checkSame(out *outcome, what string, got, want float64) {
	out.attempted++
	if math.Float64bits(got) != math.Float64bits(want) {
		out.fail("%s: loss %v is not bitwise equal to the 1-worker reference %v", what, got, want)
	}
}

func runTrain(spec trainSpec, o opts, out *outcome, tr *tracer) error {
	// Set-up: repeated cold builds; the last one trains on.
	var setups, firsts []float64
	var rig *trainRig
	var firstLoss float64
	for i := 0; i < spec.setupReps; i++ {
		if rig != nil {
			rig.close()
		}
		// Each build starts on a collected heap, so one build's garbage does
		// not land a collection inside the next one's timing.
		runtime.GC()
		r, first, setup, err := newTrainRig(spec, o.seed, spec.workers, nil)
		if err != nil {
			return err
		}
		checkStep(out, fmt.Sprintf("cold build %d, first step", i), first)
		if i == 0 {
			firstLoss = first.loss
		} else {
			checkSame(out, fmt.Sprintf("cold build %d, first step", i), first.loss, firstLoss)
		}
		rig = r
		setups = append(setups, setup.Seconds())
		firsts = append(firsts, ms(first.trainD()))
	}
	defer func() { rig.close() }()
	out.values["setup_s"] = median(setups)
	out.values["core.first_step_ms"] = median(firsts)

	// The single-worker baseline: the same model and batches on a 1-worker
	// executor. Its losses are the reference for the first warm steps, and
	// its step times are the denominator of core.speedup_2w. Collections
	// here and before the warm window keep the cold builds' garbage out of
	// the timed steps.
	runtime.GC()
	ref, refFirst, _, err := newTrainRig(spec, o.seed, 1, nil)
	if err != nil {
		return err
	}
	checkStep(out, "1-worker first step", refFirst)
	checkSame(out, "first step", firstLoss, refFirst.loss)
	refLoss := make([]float64, spec.refSteps)
	refMS := make([]float64, spec.refSteps)
	for i := range refLoss {
		s := ref.step()
		checkStep(out, fmt.Sprintf("1-worker step %d", i+1), s)
		refLoss[i], refMS[i] = s.loss, ms(s.trainD())
	}
	ref.close()
	runtime.GC()

	window := o.seconds
	if o.trace {
		window /= 2 // the other half runs traced
	}
	steps, wall := trainWindow(rig, window, spec.refSteps)
	var totals, trains []float64
	good := 0
	for i, s := range steps {
		what := fmt.Sprintf("warm step %d", i+1)
		checkStep(out, what, s)
		if i < spec.refSteps {
			checkSame(out, what, s.loss, refLoss[i])
			trains = append(trains, ms(s.trainD()))
		}
		totals = append(totals, ms(s.totalD()))
		if s.err == nil && finite(s.loss) && s.totalD() <= spec.limit {
			good++
		}
	}
	stepMS := median(totals)
	out.values["train_seq_per_s"] = float64(spec.cfg.Batch) / (stepMS / 1e3)
	// A training run has no server: its served operation is the step the
	// caller waits on, timed from the moment the caller asked for it.
	out.values["serve_p50_ms"] = stepMS
	out.values["serve_p99_ms"] = quantile(totals, 0.99)
	out.values["serve_goodput_rps"] = float64(good) / wall.Seconds()
	out.values["heap_live_mb"] = heapLiveMB()
	out.values["core.speedup_2w"] = median(refMS) / median(trains)
	out.note("%s: %d warm steps in %.2fs, step p50 %.2fms p99 %.2fms (%d samples), goodput limit %v; setup median of %d cold builds",
		spec.name, len(steps), wall.Seconds(), stepMS, out.values["serve_p99_ms"], len(totals), spec.limit, spec.setupReps)
	out.note("%s: first %d warm losses bitwise-checked against a 1-worker executor; 1-worker step p50 %.2fms vs %.2fms on %d workers",
		spec.name, spec.refSteps, median(refMS), median(trains), spec.workers)
	if !o.trace {
		return nil
	}
	return traceTrain(spec, o, out, tr, refLoss, stepMS)
}

// trainWindow runs warm steps until the window has passed and at least
// minSteps ran, and returns them with the window's wall time.
func trainWindow(rig *trainRig, seconds float64, minSteps int) ([]stepRec, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var steps []stepRec
	for len(steps) < minSteps || time.Now().Before(deadline) {
		steps = append(steps, rig.step())
	}
	return steps, time.Since(start)
}

// traceTrain is the traced half of a -trace 1 run: a fresh rig with the
// graph profiler installed, spans around every call into the engine, and
// the per-layer metrics and reconciliation checks.
func traceTrain(spec trainSpec, o opts, out *outcome, tr *tracer, refLoss []float64, untracedMS float64) error {
	sink := newReplaySink()
	rig, first, _, err := newTrainRig(spec, o.seed, spec.workers, sink)
	if err != nil {
		return err
	}
	defer rig.close()
	checkStep(out, "traced first step", first)

	st0 := rig.rt.Stats()
	hit0, miss0 := rig.eng.TemplateStats()
	flops0, calls0 := tensor.GEMMFlops(), tensor.GEMMCalls()
	rs0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	var steps []stepRec
	var allocs, allocKB []float64
	for len(steps) < spec.refSteps || time.Now().Before(deadline) {
		s := stepRec{start: time.Now()}
		b := rig.corpus.Batch(spec.cfg.Batch, spec.cfg.SeqLen)
		s.split = time.Now()
		a0 := readRuntime()
		s.loss, s.err = rig.eng.TrainStep(b, trainLR)
		a1 := readRuntime()
		s.end = time.Now()
		allocs = append(allocs, float64(a1.allocObjects-a0.allocObjects))
		allocKB = append(allocKB, float64(a1.allocBytes-a0.allocBytes)/1024)
		steps = append(steps, s)
	}
	wall := time.Since(start)
	rs1 := readRuntime()
	flops1, calls1 := tensor.GEMMFlops(), tensor.GEMMCalls()
	hit1, miss1 := rig.eng.TemplateStats()
	st1 := rig.rt.Stats()

	// The first replay window belongs to the set-up step.
	windows := sink.replays()
	if len(windows) != len(steps)+1 {
		return fmt.Errorf("traced run: %d replays for %d steps", len(windows), len(steps)+1)
	}
	windows = windows[1:]
	var totals, trains, datas, elapsed, host []float64
	for i, s := range steps {
		what := fmt.Sprintf("traced step %d", i+1)
		checkStep(out, what, s)
		if i < len(refLoss) {
			checkSame(out, what, s.loss, refLoss[i])
		}
		root := tr.add(int64(i), -1, "step", s.start, s.end)
		tr.add(int64(i), root, "data.Batch", s.start, s.split)
		call := tr.add(int64(i), root, "core.Engine.TrainStep", s.split, s.end)
		w := windows[i]
		tr.add(int64(i), call, "taskrt.Replay "+w.name,
			rig.rtBase.Add(time.Duration(w.start)), rig.rtBase.Add(time.Duration(w.end)))
		totals = append(totals, ms(s.totalD()))
		trains = append(trains, ms(s.trainD()))
		datas = append(datas, ms(s.dataD()))
		e := float64(w.end-w.start) / 1e6
		elapsed = append(elapsed, e)
		host = append(host, ms(s.trainD())-e)
	}

	n := float64(len(steps))
	v := out.values
	v["data.batch_ms_per_step"] = median(datas)
	v["tensor.gflop_per_step"] = float64(flops1-flops0) / n / 1e9
	v["tensor.gemm_calls_per_step"] = float64(calls1-calls0) / n
	v["taskrt.tasks_per_step"] = float64(st1.Executed-st0.Executed) / n
	v["taskrt.submit_us_per_step"] = float64(st1.SubmitNS-st0.SubmitNS) / n / 1e3
	v["taskrt.complete_us_per_step"] = float64(st1.CompleteNS-st0.CompleteNS) / n / 1e3
	v["taskrt.lockwait_us_per_step"] = float64(st1.LockWaitNS-st0.LockWaitNS) / n / 1e3
	if dt := st1.TaskNS - st0.TaskNS; dt > 0 {
		v["taskrt.overhead_ratio"] = float64(st1.SubmitNS-st0.SubmitNS+st1.CompleteNS-st0.CompleteNS) / float64(dt)
	}
	v["taskrt.idle_frac"] = float64(st1.IdleNS()-st0.IdleNS()) / (float64(spec.workers) * float64(wall.Nanoseconds()))
	v["taskrt.steals_per_step"] = float64(st1.Steals-st0.Steals) / n
	v["core.step_ms_p50"] = median(trains)
	v["core.allocs_per_step"] = median(allocs)
	v["core.alloc_kb_per_step"] = median(allocKB)
	v["core.gc_cpu_frac"] = gcCPUFrac(rs0, rs1)
	if h, m := hit1-hit0, miss1-miss0; h+m > 0 {
		v["core.tpl_hit_ratio"] = float64(h) / float64(h+m)
	}
	v["core.host_ms_per_step"] = median(host)
	v["trace.overhead_frac"] = median(totals)/untracedMS - 1

	roll := sink.rollup(spec.workers)
	roll.report(out, spec.workers)
	measureKernels(out, kernelShapeOf(spec.cfg))

	// Reconciliation: the layers must add up to the one above them.
	reconcile(out, "node durations sum to prof work", checkNodeSum(sink.nodeNS.Load(), roll.sumNodeNS))
	ovh := float64(st1.SubmitNS+st1.CompleteNS) / float64(max(st1.Replays, 1))
	reconcile(out, "span <= replay elapsed <= work/P + span + overhead",
		checkWorkSpan(roll.workNS, roll.spanNS, roll.elapsedNS, ovh, spec.workers))
	// core.host_ms_per_step is TrainStep wall minus replay elapsed, so the
	// medians add up by definition; what can fail is a step whose replay
	// window does not lie inside its TrainStep, i.e. a negative host time.
	var windowsOK error
	for i, s := range steps {
		w := windows[i]
		if err := checkContained(s.split, s.end, rig.rtBase, rig.rtSkew, w.start, w.end); err != nil {
			windowsOK = fmt.Errorf("step %d: %w", i+1, err)
			break
		}
	}
	reconcile(out, "TrainStep wall = replay elapsed + host, each replay window inside its TrainStep", windowsOK)
	out.note("%s traced: %d steps, replay elapsed p50 %.2fms + host p50 %.3fms vs TrainStep p50 %.2fms; work %.2fms span %.2fms over %d replays",
		spec.name, len(steps), median(elapsed), median(host), median(trains), roll.workNS/1e6, roll.spanNS/1e6, roll.replays)
	return nil
}
