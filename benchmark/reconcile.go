package main

import (
	"fmt"
	"time"
)

// Tolerances of the reconciliation checks. The profiler's node sum is
// checked exactly; the others compare clocks and schedules that a busy
// 2-core host can stretch.
const (
	// workSpanTol is the share by which replay elapsed may exceed the greedy
	// scheduling bound work/P + span + runtime overhead.
	workSpanTol = 0.10
	// workSpanSlack absorbs worker wake-up latency on a short replay.
	workSpanSlack = 200 * time.Microsecond
	// clockTol is the error allowed when mapping the runtime's clock onto
	// the benchmark's.
	clockTol = 100 * time.Microsecond
	// computeTol and computeSlackMS bound serve's compute stage over the
	// InferProbs calls it wraps: batch assembly and answer copies only.
	computeTol     = 0.10
	computeSlackMS = 0.5
	// directRatioMin and directRatioMax bound serve's compute stage against
	// a direct InferProbs of the same bucket mix on an otherwise idle
	// process. Under load the stage runs slower: request decoding and
	// answer encoding share the two cores with the engine's workers.
	directRatioMin = 0.8
	directRatioMax = 2.5
)

// reconcile counts one reconciliation check as an operation; a violated
// check is a failed operation, reported loudly.
func reconcile(out *outcome, name string, err error) {
	out.attempted++
	if err != nil {
		out.fail("reconciliation %q: %v", name, err)
		return
	}
	out.note("reconciliation ok: %s", name)
}

// checkNodeSum: the per-node durations the sink saw must sum exactly to the
// work the profiler accumulated.
func checkNodeSum(sinkNS, profNS int64) error {
	if sinkNS != profNS {
		return fmt.Errorf("sum of node durations %dns != prof work %dns", sinkNS, profNS)
	}
	if sinkNS <= 0 {
		return fmt.Errorf("no node durations recorded")
	}
	return nil
}

// checkWorkSpan: a replay can finish no sooner than its longest dependency
// path, and a greedy scheduler on P workers finishes it no later than
// work/P + span plus its own bookkeeping. All arguments are per-replay means
// in nanoseconds.
func checkWorkSpan(workNS, spanNS, elapsedNS, overheadNS float64, workers int) error {
	if spanNS <= 0 || workNS <= 0 {
		return fmt.Errorf("empty profile (work %gns, span %gns)", workNS, spanNS)
	}
	if spanNS > elapsedNS {
		return fmt.Errorf("span %.0fns exceeds replay elapsed %.0fns", spanNS, elapsedNS)
	}
	bound := workNS/float64(workers) + spanNS + overheadNS
	if limit := bound*(1+workSpanTol) + float64(workSpanSlack); elapsedNS > limit {
		return fmt.Errorf("replay elapsed %.0fns exceeds work/P + span + overhead = %.0fns by more than %.0f%% + %v",
			elapsedNS, bound, workSpanTol*100, workSpanSlack)
	}
	return nil
}

// checkContained: a replay window on the runtime clock (whose origin lies in
// [base, base+skew]) must fall inside the engine call that issued it.
func checkContained(callStart, callEnd, base time.Time, skew time.Duration, startNS, endNS int64) error {
	earliest := base.Add(time.Duration(startNS))
	latest := base.Add(skew + time.Duration(endNS))
	if earliest.Add(skew + clockTol).Before(callStart) {
		return fmt.Errorf("replay started %v before its engine call", callStart.Sub(earliest.Add(skew)))
	}
	if latest.Add(-skew - clockTol).After(callEnd) {
		return fmt.Errorf("replay ended %v after its engine call", latest.Add(-skew).Sub(callEnd))
	}
	return nil
}

// checkComputeStage: serve's compute stage wraps one InferProbs call per
// micro-batch, so its mean must be at least the engine's own InferProbs mean
// over the same window and exceed it only by the batch assembly around the
// call. Both are means in ms.
func checkComputeStage(stageMS, inferMS float64) error {
	if stageMS <= 0 || inferMS <= 0 {
		return fmt.Errorf("no compute measured (stage %.3fms, InferProbs %.3fms)", stageMS, inferMS)
	}
	if stageMS < inferMS {
		return fmt.Errorf("compute stage mean %.3fms is shorter than the InferProbs calls it wraps (%.3fms)", stageMS, inferMS)
	}
	if limit := inferMS*(1+computeTol) + computeSlackMS; stageMS > limit {
		return fmt.Errorf("compute stage mean %.3fms exceeds InferProbs %.3fms by more than %.0f%% + %.1fms",
			stageMS, inferMS, computeTol*100, computeSlackMS)
	}
	return nil
}

// checkDirectCompute: serve's compute stage must cost about what a direct
// InferProbs of a full batch at the same buckets costs, weighted by the
// window's batches per bucket. Both are means in ms.
func checkDirectCompute(stageMS, directMS float64) error {
	if directMS <= 0 {
		return fmt.Errorf("no direct InferProbs measured")
	}
	if r := stageMS / directMS; r < directRatioMin || r > directRatioMax {
		return fmt.Errorf("compute stage mean %.3fms is %.2fx the direct InferProbs %.3fms, outside [%.1f, %.1f]",
			stageMS, r, directMS, directRatioMin, directRatioMax)
	}
	return nil
}
