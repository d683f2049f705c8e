package core

import (
	"math"
	"testing"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// f32ProbTol bounds |p32 - p64| for the engine's float32 inference mirror.
// Logit error grows with depth (layers x seq x hidden reductions at eps32 per
// dot, see the tensor-level band) but softmax compresses it by the
// distribution scale; 1e-4 holds with orders of magnitude to spare for the
// small shapes here and catches any dtype-plumbing bug, which shows up at
// 1e-1 scale or as an exact zero diff (f32 graph not exercised).
const f32ProbTol = 1e-4

// inferProbsWith runs one forward pass on a fresh engine over model m with
// the given dtype and replay knobs, returning flattened per-head
// probabilities.
func inferProbsWith(t *testing.T, m *Model, b *Batch, dt tensor.DType, noReplay bool) []*tensor.Matrix {
	t.Helper()
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	e.InferDType = dt
	e.NoReplay = noReplay
	probs, _, err := e.InferProbs(b)
	if err != nil {
		t.Fatal(err)
	}
	return probs
}

func probsMaxDiff(a, b []*tensor.Matrix) float64 {
	d := 0.0
	for h := range a {
		for i := range a[h].Data {
			d = math.Max(d, math.Abs(a[h].Data[i]-b[h].Data[i]))
		}
	}
	return d
}

// TestInferF32MatchesF64 sweeps the full configuration matrix the float32
// mirror must cover — every cell kind, split and fused gates, replayed and
// fresh emission, both architectures — and checks the probabilities stay in
// the tolerance band while genuinely differing from f64 (a bitwise-equal
// result would mean the f32 graph never ran).
func TestInferF32MatchesF64(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, arch := range []Arch{ManyToOne, ManyToMany} {
			for _, fused := range []bool{false, true} {
				for _, noReplay := range []bool{false, true} {
					cfg := smallCfg(cell, arch, 1)
					m, err := NewModel(cfg)
					if err != nil {
						t.Fatal(err)
					}
					b := makeBatch(cfg, 5)
					p64 := inferProbsWith(t, m, b, tensor.F64, noReplay)

					rt := taskrt.New(taskrt.Options{Workers: 2})
					e := NewEngine(m, rt)
					e.FusedGates = fused
					e.InferDType = tensor.F32
					e.NoReplay = noReplay
					p32, _, err := e.InferProbs(b)
					if err != nil {
						t.Fatal(err)
					}
					rt.Shutdown()

					d := probsMaxDiff(p64, p32)
					if d > f32ProbTol {
						t.Errorf("%v/%v fused=%v noReplay=%v: f32 probs off by %g", cell, arch, fused, noReplay, d)
					}
					if d == 0 {
						t.Errorf("%v/%v fused=%v noReplay=%v: f32 probs bitwise-equal to f64; mirror graph not exercised", cell, arch, fused, noReplay)
					}
				}
			}
		}
	}
}

// TestPackPanelsBitwiseInert pins the packed-f64 contract: the packed
// recurrent panels, which the float64 split path always reads, must not
// change a single bit of the inference output, on both the replay and
// fresh-emission paths and across cell kinds. The wanted fingerprints are
// the outputs of the unpacked kernels over the same models and batch,
// captured before the unpacked path was removed (packed and unpacked agreed
// bitwise then).
func TestPackPanelsBitwiseInert(t *testing.T) {
	unpacked := map[CellKind]uint64{
		LSTM: 0xfcf808eae8b5557c,
		GRU:  0x3d0ec94b581727a4,
		RNN:  0x6fe2f06fcdaeb99,
	}
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, noReplay := range []bool{false, true} {
			cfg := smallCfg(cell, ManyToOne, 1)
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := makeBatch(cfg, 9)
			packed := inferProbsWith(t, m, b, tensor.F64, noReplay)
			if got := probsFingerprint(packed); got != unpacked[cell] {
				t.Errorf("%v noReplay=%v: packed f64 output differs from the unpacked kernels (fingerprint 0x%x, want 0x%x)",
					cell, noReplay, got, unpacked[cell])
			}
		}
	}
}

// TestPackPanelsTrainingUnaffected verifies training over the packed panels
// is bitwise-identical to training over the unpacked weights: the loss and
// weights after three steps must match those the unpacked kernels produced,
// captured before the unpacked path was removed.
func TestPackPanelsTrainingUnaffected(t *testing.T) {
	const (
		unpackedWeights = 0x33eb01e7caa74015
		unpackedLoss    = 0x3ff15f42aedad2b5
	)
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	var loss float64
	for i := 0; i < 3; i++ {
		loss, err = e.TrainStep(makeBatch(cfg, uint64(50+i)), 0.05)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := math.Float64bits(loss); got != unpackedLoss {
		t.Fatalf("loss diverged from the unpacked kernels: %v (bits 0x%x, want 0x%x)", loss, got, uint64(unpackedLoss))
	}
	if got := weightFingerprint(m); got != unpackedWeights {
		t.Fatalf("weights diverged from the unpacked kernels (fingerprint 0x%x, want 0x%x)", got, uint64(unpackedWeights))
	}
}

// TestWeightCachesTrackTraining is the invalidation contract: one engine
// alternates training and f32 inference, and after every update its
// inference must match a fresh engine built from the current weights — the
// packed f64 panels the training step reads and the f32 mirror both have to
// repack/reconvert.
func TestWeightCachesTrackTraining(t *testing.T) {
	cfg := smallCfg(GRU, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	e.InferDType = tensor.F32
	b := makeBatch(cfg, 7)
	for i := 0; i < 3; i++ {
		if _, err := e.TrainStep(makeBatch(cfg, uint64(80+i)), 0.1); err != nil {
			t.Fatal(err)
		}
		got, _, err := e.InferProbs(b)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh engine converts the *current* weights from scratch: if the
		// long-lived engine's caches went stale, the two diverge at 1e-2
		// scale (the size of an SGD step), far outside the f32 band.
		fresh := inferProbsWith(t, m, b, tensor.F32, false)
		if d := probsMaxDiff(fresh, got); d > 1e-7 {
			t.Fatalf("after update %d: cached f32 inference drifted %g from fresh conversion", i, d)
		}
		ref := inferProbsWith(t, m, b, tensor.F64, false)
		if d := probsMaxDiff(ref, got); d > f32ProbTol {
			t.Fatalf("after update %d: f32 inference off f64 reference by %g", i, d)
		}
	}
}

// TestF32LeavesF64BuffersUntouched is the structural half of the dtype seam:
// during an f32 inference the f64 cell-state buffers must stay zero (the f64
// graph tasks were not emitted) while the f32 mirrors carry activations.
func TestF32LeavesF64BuffersUntouched(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	e.InferDType = tensor.F32
	if _, _, err := e.InferProbs(makeBatch(cfg, 3)); err != nil {
		t.Fatal(err)
	}
	ws := e.workspaces(cfg.SeqLen)[0]
	if ws.f32 == nil {
		t.Fatal("f32 workspace not allocated")
	}
	for _, v := range ws.fwdSt[0][1].lstm.H.Data {
		if v != 0 {
			t.Fatal("f64 cell state written during f32 inference")
		}
	}
	nonzero := false
	for _, v := range ws.f32.fwdSt[0][1].lstm.H.Data {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("f32 cell state all zero: mirror graph did not run")
	}
}

// TestInferDTypePhantomIgnored: a phantom (graph-emission) engine ignores the
// f32 request — EmitInferGraph must keep describing the f64 graph.
func TestInferDTypePhantomIgnored(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	e.InferDType = tensor.F32
	if e.isF32() != true {
		t.Fatal("isF32 should hold on a real engine")
	}
	e.phantom = true
	if e.isF32() {
		t.Fatal("phantom engine must not build the f32 mirror")
	}
}
