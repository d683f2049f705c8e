package core

import (
	"sync/atomic"

	"bpar/internal/cell"
	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// dirParams wraps one direction of one layer, dispatching on cell kind so
// the emission code is written once for LSTM and GRU.
type dirParams struct {
	kind CellKind
	lstm *cell.LSTMWeights
	gru  *cell.GRUWeights
	rnn  *cell.RNNWeights
}

func newDirParams(kind CellKind, inputSize, hiddenSize int, r *rng.RNG) *dirParams {
	p := &dirParams{kind: kind}
	switch kind {
	case LSTM:
		p.lstm = cell.NewLSTMWeights(inputSize, hiddenSize)
		p.lstm.Init(r)
	case GRU:
		p.gru = cell.NewGRUWeights(inputSize, hiddenSize)
		p.gru.Init(r)
	default:
		p.rnn = cell.NewRNNWeights(inputSize, hiddenSize)
		p.rnn.Init(r)
	}
	return p
}

func (p *dirParams) paramCount() int {
	switch p.kind {
	case LSTM:
		return p.lstm.ParamCount()
	case GRU:
		return p.gru.ParamCount()
	default:
		return p.rnn.ParamCount()
	}
}

// cellSt is the per-cell activation/cache record for either cell kind.
type cellSt struct {
	lstm *cell.LSTMState
	gru  *cell.GRUState
	rnn  *cell.RNNState
}

func (p *dirParams) newState(batch int) *cellSt {
	switch p.kind {
	case LSTM:
		return &cellSt{lstm: cell.NewLSTMState(batch, p.lstm.InputSize, p.lstm.HiddenSize)}
	case GRU:
		return &cellSt{gru: cell.NewGRUState(batch, p.gru.InputSize, p.gru.HiddenSize)}
	default:
		return &cellSt{rnn: cell.NewRNNState(batch, p.rnn.InputSize, p.rnn.HiddenSize)}
	}
}

// H returns the cell's hidden output H_t.
func (s *cellSt) H() *tensor.Matrix {
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
func (s *cellSt) C() *tensor.Matrix {
	if s.lstm != nil {
		return s.lstm.C
	}
	return nil
}

func (s *cellSt) workingSetBytes() int64 {
	switch {
	case s.lstm != nil:
		return s.lstm.WorkingSetBytes()
	case s.gru != nil:
		return s.gru.WorkingSetBytes()
	default:
		return s.rnn.WorkingSetBytes()
	}
}

// forward runs one cell update. cPrev is ignored for GRU and RNN.
func (p *dirParams) forward(x, hPrev, cPrev *tensor.Matrix, st *cellSt) {
	switch p.kind {
	case LSTM:
		cell.LSTMForward(p.lstm, x, hPrev, cPrev, st.lstm)
	case GRU:
		cell.GRUForward(p.gru, x, hPrev, st.gru)
	default:
		cell.RNNForward(p.rnn, x, hPrev, st.rnn)
	}
}

// backward runs one cell's BPTT step. dC/dCPrev are ignored for GRU and RNN.
func (p *dirParams) backward(st *cellSt, hPrev, cPrev, dH, dC, dX, dHPrev, dCPrev *tensor.Matrix, g *dirGrads) {
	switch p.kind {
	case LSTM:
		cell.LSTMBackward(p.lstm, st.lstm, cPrev, dH, dC, dX, dHPrev, dCPrev, g.lstm)
	case GRU:
		cell.GRUBackward(p.gru, st.gru, hPrev, dH, dX, dHPrev, g.gru)
	default:
		cell.RNNBackward(p.rnn, st.rnn, dH, dX, dHPrev, g.rnn)
	}
}

// dims returns the direction's input size and gate-panel width G*H — the
// shape [batch x gw] of one preload/gradient panel.
func (p *dirParams) dims() (in, gw int) {
	switch p.kind {
	case LSTM:
		return p.lstm.InputSize, p.lstm.W.Rows
	case GRU:
		return p.gru.InputSize, p.gru.W.Rows
	default:
		return p.rnn.InputSize, p.rnn.W.Rows
	}
}

// preGatesBatch computes pres[s] = xs[s]*Wx^T + B for a tile of timesteps
// with one batched kernel call, so the Wx panel is streamed from memory once
// per tile instead of once per timestep.
func (p *dirParams) preGatesBatch(xs, pres []*tensor.Matrix) {
	w, b := p.wParams()
	for _, pre := range pres {
		pre.Zero()
		tensor.AddBiasRows(pre, b)
	}
	tensor.GemmTAccColsBatch(pres, xs, w, 0)
}

// packRecurrent packs this direction's recurrent weight window, the only
// packed copy the float64 split path holds: the input projection reads Wx
// in place.
func (p *dirParams) packRecurrent() *cell.PackSet[float64] {
	switch p.kind {
	case LSTM:
		return cell.PackLSTMRecurrent(p.lstm)
	case GRU:
		return cell.PackGRURecurrent(p.gru)
	default:
		return cell.PackRNNRecurrent(p.rnn)
	}
}

// dxBatch accumulates the hoisted input gradients of one timestep tile into
// the layer-below merge-gradient buffers: dsts[s] += panels[s] * Wx.
func (p *dirParams) dxBatch(dsts, panels []*tensor.Matrix) {
	w, _ := p.wParams()
	_, gw := p.dims()
	tensor.GemmAccColsBatch(dsts, panels, 0, gw, w, 0)
}

// dwBatch folds the direction's whole-sequence gate-gradient panels into the
// weight and bias gradients — the body of the batched off-chain dw task. rhs
// is the GRU candidate path's cached r⊙hPrev sequence and ignored for the
// other cells; sc is the workspace's row-stacking scratch.
func (p *dirParams) dwBatch(g *dirGrads, panels, xs, hPrevs, rhs []*tensor.Matrix, sc *cell.DWScratch) {
	switch p.kind {
	case LSTM:
		cell.LSTMDWBatch(p.lstm, g.lstm, panels, xs, hPrevs, sc)
	case GRU:
		cell.GRUDWBatch(p.gru, g.gru, panels, xs, hPrevs, rhs, sc)
	default:
		cell.RNNDWBatch(p.rnn, g.rnn, panels, xs, hPrevs, sc)
	}
}

// hiddenSize returns the direction's hidden width.
func (p *dirParams) hiddenSize() int {
	switch p.kind {
	case LSTM:
		return p.lstm.HiddenSize
	case GRU:
		return p.gru.HiddenSize
	default:
		return p.rnn.HiddenSize
	}
}

// forwardPrePacked runs the chain-resident split forward remainder through
// the packed recurrent panels. cPrev is ignored for GRU and RNN.
func (p *dirParams) forwardPrePacked(ps *cell.PackSet[float64], pre, hPrev, cPrev *tensor.Matrix, st *cellSt) {
	switch p.kind {
	case LSTM:
		cell.LSTMForwardPrePacked(p.lstm, pre, hPrev, cPrev, st.lstm, ps)
	case GRU:
		cell.GRUForwardPrePacked(p.gru, pre, hPrev, st.gru, ps)
	default:
		cell.RNNForwardPrePacked(p.rnn, pre, hPrev, st.rnn, ps)
	}
}

// backwardPre runs the chain-resident split backward remainder, leaving the
// pre-activation gate gradients in dGates for the batched dWx task.
// dC/dCPrev are ignored for GRU and RNN.
func (p *dirParams) backwardPre(st *cellSt, hPrev, cPrev, dH, dC, dGates, dX, dHPrev, dCPrev *tensor.Matrix, g *dirGrads) {
	switch p.kind {
	case LSTM:
		cell.LSTMBackwardPre(p.lstm, st.lstm, hPrev, cPrev, dH, dC, dGates, dX, dHPrev, dCPrev, g.lstm)
	case GRU:
		cell.GRUBackwardPre(p.gru, st.gru, hPrev, dH, dGates, dX, dHPrev, g.gru)
	default:
		cell.RNNBackwardPre(p.rnn, st.rnn, hPrev, dH, dGates, dX, dHPrev, g.rnn)
	}
}

// projFlops estimates one timestep's input-projection task cost.
func (p *dirParams) projFlops(batch int) float64 {
	in, gw := p.dims()
	return cell.ProjFlops(batch, in, gw)
}

// chainFwdFlops estimates the chain-resident split forward cell cost.
func (p *dirParams) chainFwdFlops(batch int) float64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMChainForwardFlops(batch, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUChainForwardFlops(batch, p.gru.HiddenSize)
	default:
		return cell.RNNChainForwardFlops(batch, p.rnn.HiddenSize)
	}
}

// chainBwdFlops estimates the chain-resident split backward cell cost (dX
// and dWx excluded — both are hoisted into batched off-chain tasks).
func (p *dirParams) chainBwdFlops(batch int) float64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMChainBackwardFlops(batch, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUChainBackwardFlops(batch, p.gru.HiddenSize)
	default:
		return cell.RNNChainBackwardFlops(batch, p.rnn.HiddenSize)
	}
}

// dxFlops estimates one timestep's hoisted input-gradient task cost.
func (p *dirParams) dxFlops(batch int) float64 {
	in, gw := p.dims()
	return cell.DXFlops(batch, in, gw)
}

// dwFlops estimates the whole-sequence batched weight-gradient task cost.
func (p *dirParams) dwFlops(seq, batch int) float64 {
	in, gw := p.dims()
	return cell.DWFlops(seq, batch, in, p.hiddenSize(), gw)
}

func (p *dirParams) fwdFlops(batch int) float64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMForwardFlops(batch, p.lstm.InputSize, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUForwardFlops(batch, p.gru.InputSize, p.gru.HiddenSize)
	default:
		return cell.RNNForwardFlops(batch, p.rnn.InputSize, p.rnn.HiddenSize)
	}
}

func (p *dirParams) bwdFlops(batch int) float64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMBackwardFlops(batch, p.lstm.InputSize, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUBackwardFlops(batch, p.gru.InputSize, p.gru.HiddenSize)
	default:
		return cell.RNNBackwardFlops(batch, p.rnn.InputSize, p.rnn.HiddenSize)
	}
}

func (p *dirParams) taskWorkingSet(batch int) int64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMWorkingSetBytes(batch, p.lstm.InputSize, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUWorkingSetBytes(batch, p.gru.InputSize, p.gru.HiddenSize)
	default:
		return cell.RNNWorkingSetBytes(batch, p.rnn.InputSize, p.rnn.HiddenSize)
	}
}

// dirGrads accumulates weight gradients for one direction of one layer.
type dirGrads struct {
	kind CellKind
	lstm *cell.LSTMGrads
	gru  *cell.GRUGrads
	rnn  *cell.RNNGrads
}

func (p *dirParams) newGrads() *dirGrads {
	switch p.kind {
	case LSTM:
		return &dirGrads{kind: LSTM, lstm: cell.NewLSTMGrads(p.lstm)}
	case GRU:
		return &dirGrads{kind: GRU, gru: cell.NewGRUGrads(p.gru)}
	default:
		return &dirGrads{kind: RNN, rnn: cell.NewRNNGrads(p.rnn)}
	}
}

// wData returns the weight-gradient matrix and bias-gradient slice.
func (g *dirGrads) wData() (*tensor.Matrix, []float64) {
	switch g.kind {
	case LSTM:
		return g.lstm.DW, g.lstm.DB
	case GRU:
		return g.gru.DW, g.gru.DB
	default:
		return g.rnn.DW, g.rnn.DB
	}
}

// wParams returns the weight matrix and bias slice of the parameters.
func (p *dirParams) wParams() (*tensor.Matrix, []float64) {
	switch p.kind {
	case LSTM:
		return p.lstm.W, p.lstm.B
	case GRU:
		return p.gru.W, p.gru.B
	default:
		return p.rnn.W, p.rnn.B
	}
}

func (g *dirGrads) zero() {
	dw, db := g.wData()
	dw.Zero()
	for i := range db {
		db[i] = 0
	}
}

// addScaled accumulates alpha * src into g (the mini-batch reduction).
func (g *dirGrads) addScaled(alpha float64, src *dirGrads) {
	dw, db := g.wData()
	sw, sb := src.wData()
	tensor.AxpyMatrix(dw, alpha, sw)
	tensor.Axpy(alpha, sb, db)
}

// applySGD performs w -= lr * g.
func (p *dirParams) applySGD(lr float64, g *dirGrads) {
	w, b := p.wParams()
	dw, db := g.wData()
	tensor.AxpyMatrix(w, -lr, dw)
	tensor.Axpy(-lr, db, b)
}

// clip clamps gradient magnitudes; keeps small-model training stable.
func (g *dirGrads) clip(limit float64) {
	dw, db := g.wData()
	tensor.ClipInPlace(dw, limit)
	clipSlice(db, limit)
}

func clipSlice(s []float64, limit float64) {
	for i, v := range s {
		if v > limit {
			s[i] = limit
		} else if v < -limit {
			s[i] = -limit
		}
	}
}

// Head is one trained output head on the shared bidirectional trunk: a
// [Classes x MergeDim] affine projection plus softmax, applied either to the
// sequence-final merged state (HeadClassify) or to every timestep's merged
// state (HeadTag, HeadGenerate).
type Head struct {
	Kind    HeadKind
	Classes int
	W       *tensor.Matrix // [Classes x MergeDim]
	B       []float64
}

// Model holds the parameters of one BRNN: per layer, one forward-order and
// one reverse-order parameter set (the paper's two sets of weights and
// biases), plus the output heads. Weights are shared across all unrolled
// timestamps of a layer — the working-set optimization of Section II.
type Model struct {
	Cfg Config

	fwd, rev []*dirParams // per layer

	// Heads are the output heads, in Cfg.HeadSpecs() order. Single-head
	// configs hold exactly the pre-refactor classifier parameters.
	Heads []Head

	// mut counts weight updates. Engines key their derived weight caches
	// (packed panels, float32 mirrors) on it so a cache is rebuilt exactly
	// when the weights moved. Shared — not copied — by WithBatch views so an
	// update through any view invalidates every engine's caches.
	mut *atomic.Uint64
}

// weightVersion returns the current weight-update counter (0 for models built
// by struct literal in tests, which then always refresh).
func (m *Model) weightVersion() uint64 {
	if m.mut == nil {
		return 0
	}
	return m.mut.Load()
}

// noteWeightUpdate bumps the weight version.
func (m *Model) noteWeightUpdate() {
	if m.mut != nil {
		m.mut.Add(1)
	}
}

// NewModel validates cfg and builds a deterministically initialized model.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	m := &Model{Cfg: cfg, mut: new(atomic.Uint64)}
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.LayerInputSize(l)
		m.fwd = append(m.fwd, newDirParams(cfg.Cell, in, cfg.HiddenSize, r.Split()))
		m.rev = append(m.rev, newDirParams(cfg.Cell, in, cfg.HiddenSize, r.Split()))
	}
	d := cfg.MergeDim()
	scale := 1.0 / sqrtF(float64(d))
	for _, spec := range cfg.HeadSpecs() {
		h := Head{Kind: spec.Kind, Classes: spec.Classes, W: tensor.New(spec.Classes, d), B: make([]float64, spec.Classes)}
		hr := r.Split()
		hr.FillUniform(h.W.Data, -scale, scale)
		m.Heads = append(m.Heads, h)
	}
	return m, nil
}

// ParamCount returns the recurrent parameter count (matches the paper's
// tables); the head adds HeadParamCount more.
func (m *Model) ParamCount() int {
	total := 0
	for l := range m.fwd {
		total += m.fwd[l].paramCount() + m.rev[l].paramCount()
	}
	return total
}

// Clone returns a deep copy of the model (same config, copied weights).
func (m *Model) Clone() *Model {
	c := &Model{Cfg: m.Cfg, mut: new(atomic.Uint64)}
	for _, h := range m.Heads {
		c.Heads = append(c.Heads, Head{Kind: h.Kind, Classes: h.Classes, W: h.W.Clone(), B: append([]float64(nil), h.B...)})
	}
	for l := range m.fwd {
		c.fwd = append(c.fwd, cloneDir(m.fwd[l]))
		c.rev = append(c.rev, cloneDir(m.rev[l]))
	}
	return c
}

func cloneDir(p *dirParams) *dirParams {
	c := &dirParams{kind: p.kind}
	switch p.kind {
	case LSTM:
		c.lstm = cell.NewLSTMWeights(p.lstm.InputSize, p.lstm.HiddenSize)
	case GRU:
		c.gru = cell.NewGRUWeights(p.gru.InputSize, p.gru.HiddenSize)
	default:
		c.rnn = cell.NewRNNWeights(p.rnn.InputSize, p.rnn.HiddenSize)
	}
	cw, cb := c.wParams()
	pw, pb := p.wParams()
	cw.CopyFrom(pw)
	copy(cb, pb)
	return c
}

// WithBatch returns a model sharing this model's weights but configured for
// a different batch size and mini-batch split — e.g. to run single-sequence
// inference with weights trained at a larger batch. Training through either
// view updates the same parameters.
func (m *Model) WithBatch(batch, miniBatches int) (*Model, error) {
	cfg := m.Cfg
	cfg.Batch = batch
	cfg.MiniBatches = miniBatches
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{Cfg: cfg, fwd: m.fwd, rev: m.rev, Heads: m.Heads, mut: m.mut}, nil
}

// WeightsEqual reports bitwise equality of all parameters — the
// determinism/equivalence check used by the accuracy-preservation tests.
func (m *Model) WeightsEqual(o *Model) bool {
	if len(m.fwd) != len(o.fwd) {
		return false
	}
	for l := range m.fwd {
		if !dirEqual(m.fwd[l], o.fwd[l]) || !dirEqual(m.rev[l], o.rev[l]) {
			return false
		}
	}
	if len(m.Heads) != len(o.Heads) {
		return false
	}
	for h := range m.Heads {
		if !m.Heads[h].W.Equal(o.Heads[h].W) {
			return false
		}
		for i, v := range m.Heads[h].B {
			if v != o.Heads[h].B[i] {
				return false
			}
		}
	}
	return true
}

func dirEqual(a, b *dirParams) bool {
	if a.kind != b.kind {
		return false
	}
	aw, ab := a.wParams()
	bw, bb := b.wParams()
	if !aw.Equal(bw) {
		return false
	}
	for i, v := range ab {
		if v != bb[i] {
			return false
		}
	}
	return true
}

// WeightsMaxAbsDiff returns the largest absolute parameter difference
// between two models with identical configuration.
func (m *Model) WeightsMaxAbsDiff(o *Model) float64 {
	max := 0.0
	upd := func(d float64) {
		if d > max {
			max = d
		}
	}
	for l := range m.fwd {
		for _, pair := range [][2]*dirParams{{m.fwd[l], o.fwd[l]}, {m.rev[l], o.rev[l]}} {
			aw, ab := pair[0].wParams()
			bw, bb := pair[1].wParams()
			upd(aw.MaxAbsDiff(bw))
			upd(sliceMaxAbsDiff(ab, bb))
		}
	}
	for h := range m.Heads {
		upd(m.Heads[h].W.MaxAbsDiff(o.Heads[h].W))
		upd(sliceMaxAbsDiff(m.Heads[h].B, o.Heads[h].B))
	}
	return max
}

func sliceMaxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

func sqrtF(x float64) float64 {
	// local alias to avoid importing math in several files
	return mathSqrt(x)
}
