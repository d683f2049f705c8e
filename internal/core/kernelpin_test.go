package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bpar/internal/tensor"
)

// probsFingerprint hashes the exact bit patterns of every head's
// probability matrix, in head order.
func probsFingerprint(probs []*tensor.Matrix) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	for _, p := range probs {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// kernelPinCfg is a split-path config whose GEMM widths land on every
// kernel tail: hidden 20 and 36 leave 4-column remainders past the last
// 16-column group of the recurrent panels, the odd input width leaves dot
// remainder columns in the dW and dX kernels, and batch 1 against batch 8
// (one or two mini-batches) moves the projection between a narrow row tile,
// full row tiles and scalar leftover rows. MergeConcat widens the upper
// layers' input to 2H.
func kernelPinCfg(cell CellKind, batch, hidden, mbs int, merge MergeOp) Config {
	return Config{
		Cell: cell, Arch: ManyToOne, Merge: merge,
		InputSize: 7, HiddenSize: hidden, Layers: 2, SeqLen: 9,
		Batch: batch, Classes: 5, MiniBatches: mbs, Seed: 7,
	}
}

// TestKernelBitwisePin pins the float64 split path — inference outputs and
// the weights after three training steps — and the float32 mirror's
// inference outputs to fingerprints captured from the scalar kernels, before
// any vectorized kernel existed, and identical then with and without packed
// weight panels. Any single-ULP deviation in any GEMM of the split path
// (projection, recurrent chain, dHPrev, dX, dW) changes a hash, on the
// replay and the fresh-emission paths alike.
func TestKernelBitwisePin(t *testing.T) {
	type pin = kernelPin
	cases := []struct {
		name string
		cfg  Config
		want pin
	}{
		{"lstm-b1-h20", kernelPinCfg(LSTM, 1, 20, 1, MergeSum), pin{0xf92acde52eb91c38, 0xdba58b8c15c7405c, 0x3ff9242fd9b67b20, 0x40eb6fa2e0992de0}},
		{"lstm-b8-h36", kernelPinCfg(LSTM, 8, 36, 1, MergeConcat), pin{0x23368d30fb79920c, 0x80680fb3bad8e915, 0x3ff9c5d1d458d0ad, 0xe68b1d7f6a53d425}},
		{"lstm-b8-h20-mbs2", kernelPinCfg(LSTM, 8, 20, 2, MergeSum), pin{0x6f124066e353bed1, 0x926655ecd2990799, 0x3ff9bce1bb32f9f5, 0xd2ef611dd2c47502}},
		{"gru-b1-h36", kernelPinCfg(GRU, 1, 36, 1, MergeConcat), pin{0x19d06091ec5e54ca, 0xe0425fc060f85bc5, 0x3ff8ae8b14bb9587, 0x66d766c450e1a92e}},
		{"gru-b8-h20", kernelPinCfg(GRU, 8, 20, 1, MergeSum), pin{0x41c11205989f5feb, 0xcf9156e6d6fdff22, 0x3ff9b8c63c098192, 0xc3c0348934b5d0d2}},
		{"gru-b8-h36-mbs2", kernelPinCfg(GRU, 8, 36, 2, MergeSum), pin{0x57832be776dde13f, 0xa042b8e392041a8a, 0x3ff9ebe797505c32, 0x2d848b719ee730ec}},
		{"rnn-b1-h36", kernelPinCfg(RNN, 1, 36, 1, MergeSum), pin{0x94999c2b2d62d11d, 0x7094c82c335967b1, 0x3ff9661a60290c46, 0x4422fd0939ef1e5a}},
		{"rnn-b8-h20", kernelPinCfg(RNN, 8, 20, 1, MergeConcat), pin{0x69585cde1109e38e, 0x425a845f70a2ab37, 0x3ff9a6c037953c70, 0x51708045f2a55986}},
		{"rnn-b8-h36-mbs2", kernelPinCfg(RNN, 8, 36, 2, MergeSum), pin{0x8560e49781e9e084, 0xc4790487551720c, 0x3ff9f82c2db3d188, 0xa58cb7434781e5f0}},
		{"gru-b8-h21", kernelPinCfg(GRU, 8, 21, 1, MergeSum), pin{0x82c2fe735e08e957, 0xbcc53228300ebd34, 0x3ff98861656392ba, 0xda2a8c3fd67fc58}},
		{"rnn-b1-h21", kernelPinCfg(RNN, 1, 21, 1, MergeConcat), pin{0x9392a610bea0cd89, 0xb63855e654a67a78, 0x3ff9f384e4d1f915, 0x63f46d52fc972dd0}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, noReplay := range []bool{false, true} {
				got := runKernelPin(t, tc.cfg, false, noReplay)
				if got != tc.want {
					t.Errorf("noReplay=%v: split-path numerics drifted from the scalar-kernel pin:\n  got  %s\n  want %s",
						noReplay, got, tc.want)
				}
			}
		})
	}
	t.Run("multihead-masked", func(t *testing.T) {
		cfg := multiHeadCfg(LSTM, 2)
		cfg.InputSize, cfg.HiddenSize, cfg.Batch, cfg.SeqLen = 7, 20, 8, 9
		want := pin{0x74d3c803973f6548, 0x33a3b02355afdf31, 0x4006e34b03a5a4b1, 0x938a59a2f3fe47f4}
		for _, noReplay := range []bool{false, true} {
			got := runKernelPin(t, cfg, true, noReplay)
			if got != want {
				t.Errorf("noReplay=%v: masked multi-head numerics drifted from the scalar-kernel pin:\n  got  %s\n  want %s",
					noReplay, got, want)
			}
		}
	})
}

// kernelPin holds one config's fingerprints: f64 probabilities, trained
// weights, final loss bits and f32 probabilities.
type kernelPin struct {
	probs, weights, loss, probs32 uint64
}

func (p kernelPin) String() string {
	return fmt.Sprintf("pin{0x%x, 0x%x, 0x%x, 0x%x}", p.probs, p.weights, p.loss, p.probs32)
}

// runKernelPin fingerprints one config: f64 InferProbs on the initial
// weights, the weights and final loss after three TrainSteps, and f32
// InferProbs on the trained weights. masked selects multi-head batches with
// per-row lengths; noReplay re-emits every step's graph instead of replaying
// a captured template.
func runKernelPin(t *testing.T, cfg Config, masked, noReplay bool) (p kernelPin) {
	t.Helper()
	batch := func(seed uint64) *Batch {
		if masked {
			return makeMultiBatch(cfg, seed, true)
		}
		return makeBatch(cfg, seed)
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, inlineExec())
	e.NoReplay = noReplay
	probs, _, err := e.InferProbs(batch(11))
	if err != nil {
		t.Fatal(err)
	}
	p.probs = probsFingerprint(probs)
	var loss float64
	for i := 0; i < 3; i++ {
		if loss, err = e.TrainStep(batch(uint64(200+i)), 0.05); err != nil {
			t.Fatal(err)
		}
	}
	p.weights, p.loss = weightFingerprint(m), math.Float64bits(loss)
	e32 := NewEngine(m, inlineExec())
	e32.InferDType = tensor.F32
	e32.NoReplay = noReplay
	probs32, _, err := e32.InferProbs(batch(11))
	if err != nil {
		t.Fatal(err)
	}
	p.probs32 = probsFingerprint(probs32)
	return p
}
