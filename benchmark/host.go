package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bpar/internal/core"
	"bpar/internal/tensor"
)

// kernelShape is the GEMM geometry one workload's tasks run at: rows per
// mini-batch, the input width of layers above the first, the hidden width,
// gates per cell and the sequence length.
type kernelShape struct {
	rows, in, hidden, gates, steps int
}

func kernelShapeOf(cfg core.Config) kernelShape {
	gates := 1
	switch cfg.Cell {
	case core.LSTM:
		gates = 4
	case core.GRU:
		gates = 3
	}
	return kernelShape{
		rows: cfg.Batch / cfg.MiniBatches, in: cfg.MergeDim(), hidden: cfg.HiddenSize,
		gates: gates, steps: cfg.SeqLen,
	}
}

// streamCapBytes caps the stream arrays: 4x the reported LLC can exceed
// what a small shared host should allocate.
const streamCapBytes = 512 << 20

// measureKernels times the tensor kernels standalone at the workload's own
// shapes, and the host's measured GEMM peak and stream bandwidth they are
// read against. All timings are single-threaded, like one task.
func measureKernels(out *outcome, ks kernelShape) {
	v := out.values
	r := rand.New(rand.NewPCG(1, 2))
	fill := func(m *tensor.Matrix) *tensor.Matrix {
		for i := range m.Data {
			m.Data[i] = r.Float64() - 0.5
		}
		return m
	}
	mats := func(n, rows, cols int) []*tensor.Matrix {
		ms := make([]*tensor.Matrix, n)
		for i := range ms {
			ms[i] = fill(tensor.New(rows, cols))
		}
		return ms
	}

	// Host GEMM peak: the best any of the f64 kernels reaches at a large
	// shape (n x n operands, 16 timesteps for the batched ones).
	const n = 256
	a, b, c := fill(tensor.New(n, n)), fill(tensor.New(n, n)), tensor.New(n, n)
	big, bigDst := mats(16, n, n), mats(16, n, n)
	bigW := fill(tensor.New(n, 2*n))
	peak := max(
		bestRate(2*n*n*n, func() { tensor.GemmTAcc(c, a, b) }),
		bestRate(16*2*n*n*n, func() { tensor.GemmTAccColsBatch(bigDst, big, bigW, 0) }),
		bestRate(16*2*n*n*n, func() { tensor.GemmATAccColsBatch(bigW, 0, bigDst, 0, n, big) }))
	v["host.gemm_peak_gflops"] = peak / 1e9

	gh := ks.gates * ks.hidden
	w := fill(tensor.New(gh, ks.in+ks.hidden))

	// proj: the input projection of one (layer, direction) over the sequence.
	xs, pres := mats(ks.steps, ks.rows, ks.in), mats(ks.steps, ks.rows, gh)
	v["tensor.proj_gflops"] = medianRate(2*ks.rows*ks.in*gh*ks.steps,
		func() { tensor.GemmTAccColsBatch(pres, xs, w, 0) }) / 1e9

	// dw: the batched input-weight gradient of one (layer, direction).
	dw := tensor.New(gh, ks.in+ks.hidden)
	v["tensor.dw_gflops"] = medianRate(2*gh*ks.rows*ks.in*ks.steps,
		func() { tensor.GemmATAccColsBatch(dw, 0, pres, 0, gh, xs) }) / 1e9

	// chain: the recurrent product h_{t-1} * Wh^T along one direction's
	// sequence; bytes are computed (weight panel, h and gate rows), not
	// measured.
	h, g := fill(tensor.New(ks.rows, ks.hidden)), tensor.New(ks.rows, gh)
	chain := func() {
		for t := 0; t < ks.steps; t++ {
			tensor.GemmTAccCols(g, h, w, ks.in)
		}
	}
	flops := 2 * ks.rows * ks.hidden * gh * ks.steps
	bytes := 8 * (gh*ks.hidden + ks.rows*ks.hidden + 2*ks.rows*gh) * ks.steps
	chainRate := medianRate(flops, chain)
	v["tensor.chain_gflops"] = chainRate / 1e9
	v["tensor.chain_gbps"] = chainRate * float64(bytes) / float64(flops) / 1e9

	stream, size := streamGBps()
	v["host.stream_gbps"] = stream
	out.note("host roofline: gemm peak %.2f GFLOP/s (best kernel at n=%d), stream %.2f GB/s (scale kernel over %.0f MiB, reported LLC %.1f MiB)",
		peak/1e9, n, stream, float64(size)/(1<<20), float64(llcBytes())/(1<<20))
	out.note("tensor at %+v: proj %.2f GFLOP/s (%.0f%% of peak), dw %.2f GFLOP/s (%.0f%%), chain %.2f GFLOP/s, %.2f GB/s computed (%.0f%% of stream)",
		ks, v["tensor.proj_gflops"], 100*v["tensor.proj_gflops"]/v["host.gemm_peak_gflops"],
		v["tensor.dw_gflops"], 100*v["tensor.dw_gflops"]/v["host.gemm_peak_gflops"],
		v["tensor.chain_gflops"], v["tensor.chain_gbps"], 100*v["tensor.chain_gbps"]/stream)
}

// timeSamples runs f in batches of at least 2ms and returns each batch's
// seconds per call, after one untimed warm-up call.
func timeSamples(f func(), samples int) []float64 {
	f()
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if time.Since(t0) >= 2*time.Millisecond {
			break
		}
		reps *= 2
	}
	out := make([]float64, samples)
	for s := range out {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		out[s] = time.Since(t0).Seconds() / float64(reps)
	}
	sort.Float64s(out)
	return out
}

// medianRate is flops per second at the median call time.
func medianRate(flops int, f func()) float64 {
	return float64(flops) / median(timeSamples(f, 15))
}

// bestRate is flops per second at the fastest call time.
func bestRate(flops int, f func()) float64 {
	return float64(flops) / timeSamples(f, 7)[0]
}

// streamGBps measures single-threaded memory bandwidth with a scale kernel
// (b = s*a, 16 bytes per element as STREAM counts it) over arrays that
// together hold 4x the reported LLC, capped at streamCapBytes. It returns
// the best pass's GB/s and the bytes the arrays hold.
func streamGBps() (float64, int64) {
	size := 4 * llcBytes()
	if size <= 0 || size > streamCapBytes {
		size = streamCapBytes
	}
	n := int(size / 16)
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	best := 0.0
	for pass := 0; pass < 4; pass++ {
		t0 := time.Now()
		for i := range b {
			b[i] = 3 * a[i]
		}
		if gbps := float64(16*n) / time.Since(t0).Seconds() / 1e9; pass > 0 && gbps > best {
			best = gbps
		}
	}
	runtime.KeepAlive(b)
	debug.FreeOSMemory()
	return best, size
}
