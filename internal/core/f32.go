package core

import (
	"bpar/internal/cell"
	"bpar/internal/tensor"
)

// Float32 inference support. Training is float64-only and bitwise-stable; an
// engine with InferDType == tensor.F32 additionally keeps a float32 mirror of
// the model weights (dirF32 per layer and direction, plus the classifier
// head) and emits its forward-only task graphs against float32 workspace
// buffers. The mirror is refreshed from the float64 master weights whenever
// the model's weight version moves (refreshWeightCaches), so checkpoints and
// the optimizer never see float32 state.
//
// On the split path the mirror carries packed panels for both the input and
// the recurrent window, in the column-major float32 layout (the packed
// kernels are bitwise-identical to unpacked per dtype; the fused/split
// distinction is what changes the summation order).

// dirF32 is the float32 mirror of one direction of one layer.
type dirF32 struct {
	kind CellKind
	lstm *cell.LSTMWeightsOf[float32]
	gru  *cell.GRUWeightsOf[float32]
	rnn  *cell.RNNWeightsOf[float32]
	// pack holds the split-path packed panels; nil for fused-gate engines.
	pack *cell.PackSet[float32]
}

// newDirF32 converts p's weights into a fresh float32 mirror.
func newDirF32(p *dirParams, split bool) *dirF32 {
	d := &dirF32{kind: p.kind}
	switch p.kind {
	case LSTM:
		d.lstm = cell.ConvertLSTMWeights[float32](p.lstm)
	case GRU:
		d.gru = cell.ConvertGRUWeights[float32](p.gru)
	default:
		d.rnn = cell.ConvertRNNWeights[float32](p.rnn)
	}
	if split {
		switch p.kind {
		case LSTM:
			d.pack = cell.PackLSTM(d.lstm)
		case GRU:
			d.pack = cell.PackGRU(d.gru)
		default:
			d.pack = cell.PackRNN(d.rnn)
		}
	}
	return d
}

// refresh re-converts the mirror from the float64 master weights in place, so
// pointers captured by replay templates and packed panels stay valid.
func (d *dirF32) refresh(p *dirParams) {
	switch d.kind {
	case LSTM:
		cell.ConvertLSTMWeightsInto(d.lstm, p.lstm)
	case GRU:
		cell.ConvertGRUWeightsInto(d.gru, p.gru)
	default:
		cell.ConvertRNNWeightsInto(d.rnn, p.rnn)
	}
	if d.pack != nil {
		d.pack.Repack()
	}
}

// forward runs one fused-gate float32 cell update.
func (d *dirF32) forward(x, hPrev, cPrev *tensor.Mat[float32], st *cellSt32) {
	switch d.kind {
	case LSTM:
		cell.LSTMForward(d.lstm, x, hPrev, cPrev, st.lstm)
	case GRU:
		cell.GRUForward(d.gru, x, hPrev, st.gru)
	default:
		cell.RNNForward(d.rnn, x, hPrev, st.rnn)
	}
}

// forwardPre runs the chain-resident split forward remainder through the
// packed panels.
func (d *dirF32) forwardPre(pre, hPrev, cPrev *tensor.Mat[float32], st *cellSt32) {
	switch d.kind {
	case LSTM:
		cell.LSTMForwardPrePacked(d.lstm, pre, hPrev, cPrev, st.lstm, d.pack)
	case GRU:
		cell.GRUForwardPrePacked(d.gru, pre, hPrev, st.gru, d.pack)
	default:
		cell.RNNForwardPrePacked(d.rnn, pre, hPrev, st.rnn, d.pack)
	}
}

// bias returns the fused bias of the mirror.
func (d *dirF32) bias() []float32 {
	switch d.kind {
	case LSTM:
		return d.lstm.B
	case GRU:
		return d.gru.B
	default:
		return d.rnn.B
	}
}

// preGatesBatch computes pres[s] = xs[s]*Wx^T + B for a tile of timesteps
// from the packed input panel — the float32 twin of dirParams.preGatesBatch,
// with the same bias-first accumulation order.
func (d *dirF32) preGatesBatch(xs, pres []*tensor.Mat[float32]) {
	b := d.bias()
	for _, pre := range pres {
		pre.Zero()
		tensor.AddBiasRows(pre, b)
	}
	tensor.GemmTAccColsPackedBatch(pres, xs, d.pack.X)
}

// cellSt32 is the float32 per-cell activation record.
type cellSt32 struct {
	lstm *cell.LSTMStateOf[float32]
	gru  *cell.GRUStateOf[float32]
	rnn  *cell.RNNStateOf[float32]
}

// newState32 allocates a float32 activation record shaped like p.
func (p *dirParams) newState32(batch int) *cellSt32 {
	switch p.kind {
	case LSTM:
		return &cellSt32{lstm: cell.NewLSTMStateOf[float32](batch, p.lstm.InputSize, p.lstm.HiddenSize)}
	case GRU:
		return &cellSt32{gru: cell.NewGRUStateOf[float32](batch, p.gru.InputSize, p.gru.HiddenSize)}
	default:
		return &cellSt32{rnn: cell.NewRNNStateOf[float32](batch, p.rnn.InputSize, p.rnn.HiddenSize)}
	}
}

// H returns the cell's hidden output H_t.
func (s *cellSt32) H() *tensor.Mat[float32] {
	switch {
	case s.lstm != nil:
		return s.lstm.H
	case s.gru != nil:
		return s.gru.H
	default:
		return s.rnn.H
	}
}

// C returns the LSTM cell state (nil for GRU and RNN).
func (s *cellSt32) C() *tensor.Mat[float32] {
	if s.lstm != nil {
		return s.lstm.C
	}
	return nil
}

// mats enumerates the state's activation matrices for dependency
// registration, mirroring cellSt.mats.
func (s *cellSt32) mats() []*tensor.Mat[float32] {
	switch {
	case s.lstm != nil:
		return []*tensor.Mat[float32]{s.lstm.Z, s.lstm.Gates, s.lstm.C, s.lstm.TanhC, s.lstm.H}
	case s.gru != nil:
		return []*tensor.Mat[float32]{s.gru.Z1, s.gru.Z2, s.gru.ZR, s.gru.RH, s.gru.HBar, s.gru.H}
	default:
		return []*tensor.Mat[float32]{s.rnn.Z, s.rnn.H}
	}
}
