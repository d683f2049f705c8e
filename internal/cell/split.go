// Split-weight execution path: the fused gate product Gates_t = W*[x_t,
// h_{t-1}] + B decomposes into an input projection x_t*Wx^T + B with no
// recurrence dependency and a recurrent half h_{t-1}*Wh^T that alone stays on
// the sequential chain. The *PreGates functions compute the projection ahead
// of time (batched across timesteps by the task graph); the *ForwardPre /
// *BackwardPre functions are the chain-resident remainders. Wx and Wh are
// column windows of the unchanged fused weight matrix, so the serialized
// layout and the public weight structs are untouched.
//
// The backward analog moves every gradient derivable from the panels off the
// chain too: the chain task only emits its pre-activation gate-gradient panel
// and dHPrev, and one batched task per (layer, direction) folds the whole
// sequence of panels into the weight and bias gradients afterwards. The
// batched task copies the panel, input and state sequences into row stacks
// (tensor.StackRowsInto), so both weight-gradient halves run as dot-form
// GEMMs (tensor.GemmATAccDstCols) — register accumulation over the stacked
// K = seq·batch dimension instead of read-modify-writing the weight
// gradient once per timestep.
package cell

import "bpar/internal/tensor"

// --- LSTM ---

// LSTMPreGates computes the input projection pre = x*Wx^T + B for one
// timestep. pre is [batch x 4H]. No recurrence dependency.
func LSTMPreGates[E tensor.Elt](w *LSTMWeightsOf[E], x, pre *tensor.Mat[E]) {
	tensor.MatMulTColsOf(pre, x, w.W, 0)
	tensor.AddBiasRows(pre, w.B)
}

// LSTMForwardPre is the chain-resident forward remainder: Gates = pre +
// hPrev*Wh^T, then activations and the c/h update. st.Z is not written — the
// split path never materializes the concatenation.
func LSTMForwardPre[E tensor.Elt](w *LSTMWeightsOf[E], pre, hPrev, cPrev *tensor.Mat[E], st *LSTMStateOf[E]) {
	st.Gates.CopyFrom(pre)
	tensor.GemmTAccColsOf(st.Gates, hPrev, w.W, w.InputSize)
	lstmPointwise(w, cPrev, st)
}

// LSTMBackwardPre is the chain-resident backward remainder. The
// pre-activation gate gradients land in dGates (the caller's pooled panel).
// A nil dX selects deferred-gradient mode: the chain computes only the gate
// gradients and dHPrev, and the caller hoists everything derivable from the
// panels — dX, dW (both halves) and DB — into batched off-chain tasks. With
// dX non-nil the kernel is self-contained: it accumulates the recurrent
// weight-gradient window, the bias, and the per-timestep input gradient.
func LSTMBackwardPre(w *LSTMWeights, st *LSTMState, hPrev, cPrev, dH, dC, dGates, dX, dHPrev, dCPrev *tensor.Matrix, grads *LSTMGrads) {
	H := w.HiddenSize
	lstmGateGrads(w, st, cPrev, dH, dC, dGates, dCPrev)

	if dX != nil {
		tensor.GemmATAccCols(grads.DW, w.InputSize, dGates, 0, lstmGates*H, hPrev)
		batch := dH.Rows
		for r := 0; r < batch; r++ {
			row := dGates.Row(r)
			for j, v := range row {
				grads.DB[j] += v
			}
		}
		tensor.MatMulCols(dX, dGates, 0, lstmGates*H, w.W, 0)
	}
	tensor.MatMulCols(dHPrev, dGates, 0, lstmGates*H, w.W, w.InputSize)
}

// DWScratch is the row-stacking scratch of one batched weight-gradient
// task: P holds the gate-gradient panels [K x G*H], X the layer inputs
// [K x In] and H the previous hidden states (and, for the GRU, the cached
// r⊙hPrev panels in turn) [K x H], with K = seq·batch. X and H share one
// buffer. The headers are built once, so a dw task allocates nothing.
type DWScratch struct {
	P, X, H *tensor.Matrix
}

// NewDWScratch allocates the scratch of a dw task over k stacked rows with
// gate width gw, input width in and hidden width h.
func NewDWScratch(k, gw, in, h int) *DWScratch {
	buf := make([]float64, k*max(in, h))
	return &DWScratch{
		P: tensor.New(k, gw),
		X: &tensor.Matrix{Rows: k, Cols: in, Data: buf[:k*in]},
		H: &tensor.Matrix{Rows: k, Cols: h, Data: buf[:k*h]},
	}
}

// LSTMDWBatch folds a whole sequence of deferred gate-gradient panels into
// the weight and bias gradients:
//
//	DW[:, :In)  += stack(panels)^T · stack(xs)
//	DW[:, In:)  += stack(panels)^T · stack(hPrevs)
//	DB          += Σ_t Σ_rows panels_t
//
// panels[t], xs[t] and hPrevs[t] are timestep t's gate-gradient panel, layer
// input and previous hidden state (the caller passes its zero matrix at the
// chain boundary); sc is the caller-owned stacking scratch. Both GEMMs
// accumulate in registers over the stacked K dimension; the summation order
// (t ascending, batch row ascending) is fixed, keeping parallel training
// bitwise deterministic.
func LSTMDWBatch(w *LSTMWeights, grads *LSTMGrads, panels, xs, hPrevs []*tensor.Matrix, sc *DWScratch) {
	dwBiasSum(grads.DB, panels)
	gw := w.W.Rows
	tensor.StackRowsInto(sc.P, panels)
	tensor.StackRowsInto(sc.X, xs)
	tensor.GemmATAccDstCols(grads.DW, 0, sc.P, 0, gw, sc.X)
	tensor.StackRowsInto(sc.H, hPrevs)
	tensor.GemmATAccDstCols(grads.DW, w.InputSize, sc.P, 0, gw, sc.H)
}

// dwBiasSum adds every panel's row sums into db, t ascending then batch row
// ascending — the fixed order the determinism contract pins.
func dwBiasSum(db []float64, panels []*tensor.Matrix) {
	for _, p := range panels {
		for r := 0; r < p.Rows; r++ {
			for j, v := range p.Row(r) {
				db[j] += v
			}
		}
	}
}

// --- GRU ---

// GRUPreGates computes pre = x*Wx^T + B for all three gate blocks; the z/r
// and candidate windows are consumed separately by GRUForwardPre.
func GRUPreGates[E tensor.Elt](w *GRUWeightsOf[E], x, pre *tensor.Mat[E]) {
	tensor.MatMulTColsOf(pre, x, w.W, 0)
	tensor.AddBiasRows(pre, w.B)
}

// GRUForwardPre is the chain-resident forward remainder. st.Z1/st.Z2 are not
// written; st.RH caches r⊙hPrev for the backward candidate GEMM.
func GRUForwardPre[E tensor.Elt](w *GRUWeightsOf[E], pre, hPrev *tensor.Mat[E], st *GRUStateOf[E]) {
	H := w.HiddenSize
	In := w.InputSize
	batch := pre.Rows

	wZR := w.viewZR()
	tensor.CopyColsInto(st.ZR, pre, 0)
	tensor.GemmTAccColsOf(st.ZR, hPrev, wZR, In)
	tensor.SigmoidInPlace(st.ZR)

	for rI := 0; rI < batch; rI++ {
		r := st.ZR.Row(rI)[gruGateR*H : (gruGateR+1)*H]
		hp := hPrev.Row(rI)
		rh := st.RH.Row(rI)
		for j := 0; j < H; j++ {
			rh[j] = r[j] * hp[j]
		}
	}
	wH := w.viewH()
	tensor.CopyColsInto(st.HBar, pre, 2*H)
	tensor.GemmTAccColsOf(st.HBar, st.RH, wH, In)
	tensor.TanhInPlace(st.HBar)

	for rI := 0; rI < batch; rI++ {
		z := st.ZR.Row(rI)[gruGateZ*H : (gruGateZ+1)*H]
		hb := st.HBar.Row(rI)
		hp := hPrev.Row(rI)
		h := st.H.Row(rI)
		for j := 0; j < H; j++ {
			h[j] = z[j]*hb[j] + (1-z[j])*hp[j] // Equation 10
		}
	}
}

// GRUBackwardPre is the chain-resident backward remainder. dGates is the
// pooled [batch x 3H] panel in (z, r, hbar) pre-activation order — the same
// layout as the weight rows, so the batched dW tasks and the fused-bias
// accumulation index it directly. A nil dX selects deferred-gradient mode:
// dX, dW and DB are all left to the caller's batched off-chain tasks and
// only the gate gradients, dRHh and dHPrev are computed here.
func GRUBackwardPre(w *GRUWeights, st *GRUState, hPrev, dH, dGates, dX, dHPrev *tensor.Matrix, grads *GRUGrads) {
	H := w.HiddenSize
	In := w.InputSize
	batch := dH.Rows
	grads.ensureSplitScratch(batch)
	dRHh := grads.dRHh // grad of r⊙hPrev through the candidate GEMM
	dHPrev.Zero()

	// Candidate path: dhbar = dh ⊙ z ; pre-activation grad into the panel.
	for rI := 0; rI < batch; rI++ {
		z := st.ZR.Row(rI)[gruGateZ*H : (gruGateZ+1)*H]
		hb := st.HBar.Row(rI)
		dh := dH.Row(rI)
		dg := dGates.Row(rI)
		for j := 0; j < H; j++ {
			dg[gruGateH*H+j] = dh[j] * z[j] * tensor.DTanhFromY(hb[j])
		}
	}
	wH := w.viewH()
	if dX != nil {
		dWH := grads.viewDH()
		tensor.GemmATAccCols(dWH, In, dGates, gruGateH*H, gruGates*H, st.RH)
	}
	tensor.MatMulCols(dRHh, dGates, gruGateH*H, gruGates*H, wH, In)

	// Gate gradients and the direct hPrev contributions.
	for rI := 0; rI < batch; rI++ {
		zr := st.ZR.Row(rI)
		z := zr[gruGateZ*H : (gruGateZ+1)*H]
		r := zr[gruGateR*H : (gruGateR+1)*H]
		hb := st.HBar.Row(rI)
		hp := hPrev.Row(rI)
		dh := dH.Row(rI)
		dg := dGates.Row(rI)
		drhh := dRHh.Row(rI)
		dhp := dHPrev.Row(rI)
		for j := 0; j < H; j++ {
			dg[gruGateZ*H+j] = dh[j] * (hb[j] - hp[j]) * tensor.DSigmoidFromY(z[j])
			dg[gruGateR*H+j] = drhh[j] * hp[j] * tensor.DSigmoidFromY(r[j])
			dhp[j] = dh[j]*(1-z[j]) + drhh[j]*r[j]
		}
	}
	wZR := w.viewZR()
	if dX != nil {
		dWZR := grads.viewDZR()
		tensor.GemmATAccCols(dWZR, In, dGates, 0, 2*H, hPrev)
		for rI := 0; rI < batch; rI++ {
			row := dGates.Row(rI)
			for j, v := range row {
				grads.DB[j] += v
			}
		}
		// dX covers both the gate and candidate x-paths in one product:
		// the W rows stack [Wzr; Wh], matching the panel's gate order.
		tensor.MatMulCols(dX, dGates, 0, gruGates*H, w.W, 0)
	}
	// dHPrev += gate-path hPrev grad (candidate path went through RH above).
	tensor.GemmAccCols(dHPrev, dGates, 0, 2*H, wZR, In)
}

// GRUDWBatch is the GRU analog of LSTMDWBatch. The input half is one GEMM
// over the full [K x 3H] panel stack, but the recurrent half splits by gate
// column block: the z/r rows multiplied hPrev in the forward pass while the
// candidate rows multiplied r⊙hPrev, so rhs[t] must carry timestep t's
// cached RH panel (GRUState.RH). sc.H is reused for the hPrev and RH stacks
// in turn.
func GRUDWBatch(w *GRUWeights, grads *GRUGrads, panels, xs, hPrevs, rhs []*tensor.Matrix, sc *DWScratch) {
	H := w.HiddenSize
	In := w.InputSize
	dwBiasSum(grads.DB, panels)
	tensor.StackRowsInto(sc.P, panels)
	tensor.StackRowsInto(sc.X, xs)
	tensor.GemmATAccDstCols(grads.DW, 0, sc.P, 0, gruGates*H, sc.X)
	tensor.StackRowsInto(sc.H, hPrevs)
	tensor.GemmATAccDstCols(grads.viewDZR(), In, sc.P, 0, 2*H, sc.H)
	tensor.StackRowsInto(sc.H, rhs)
	tensor.GemmATAccDstCols(grads.viewDH(), In, sc.P, 2*H, gruGates*H, sc.H)
}

// --- RNN ---

// RNNPreGates computes pre = x*Wx^T + B for one timestep.
func RNNPreGates[E tensor.Elt](w *RNNWeightsOf[E], x, pre *tensor.Mat[E]) {
	tensor.MatMulTColsOf(pre, x, w.W, 0)
	tensor.AddBiasRows(pre, w.B)
}

// RNNForwardPre is the chain-resident forward remainder; st.Z is not written.
func RNNForwardPre[E tensor.Elt](w *RNNWeightsOf[E], pre, hPrev *tensor.Mat[E], st *RNNStateOf[E]) {
	st.H.CopyFrom(pre)
	tensor.GemmTAccColsOf(st.H, hPrev, w.W, w.InputSize)
	tensor.TanhInPlace(st.H)
}

// rnnPreGrads computes the pre-activation gradient dPre = dH ⊙ (1 - H²),
// shared by the fused and split backward paths.
func rnnPreGrads(st *RNNState, dH, dPre *tensor.Matrix) {
	batch := dH.Rows
	for r := 0; r < batch; r++ {
		h := st.H.Row(r)
		dh := dH.Row(r)
		dp := dPre.Row(r)
		for j := range dp {
			dp[j] = dh[j] * tensor.DTanhFromY(h[j])
		}
	}
}

// RNNBackwardPre is the chain-resident backward remainder; dPre is the
// caller's pooled panel. A nil dX selects deferred-gradient mode: dX, dW and
// DB are all left to the caller's batched off-chain tasks.
func RNNBackwardPre(w *RNNWeights, st *RNNState, hPrev, dH, dPre, dX, dHPrev *tensor.Matrix, grads *RNNGrads) {
	H := w.HiddenSize
	rnnPreGrads(st, dH, dPre)
	if dX != nil {
		tensor.GemmATAccCols(grads.DW, w.InputSize, dPre, 0, H, hPrev)
		batch := dH.Rows
		for r := 0; r < batch; r++ {
			row := dPre.Row(r)
			for j, v := range row {
				grads.DB[j] += v
			}
		}
		tensor.MatMulCols(dX, dPre, 0, H, w.W, 0)
	}
	tensor.MatMulCols(dHPrev, dPre, 0, H, w.W, w.InputSize)
}

// RNNDWBatch is the RNN analog of LSTMDWBatch (one gate block, H wide).
func RNNDWBatch(w *RNNWeights, grads *RNNGrads, panels, xs, hPrevs []*tensor.Matrix, sc *DWScratch) {
	dwBiasSum(grads.DB, panels)
	gw := w.W.Rows
	tensor.StackRowsInto(sc.P, panels)
	tensor.StackRowsInto(sc.X, xs)
	tensor.GemmATAccDstCols(grads.DW, 0, sc.P, 0, gw, sc.X)
	tensor.StackRowsInto(sc.H, hPrevs)
	tensor.GemmATAccDstCols(grads.DW, w.InputSize, sc.P, 0, gw, sc.H)
}

// ProjFlops estimates one timestep's input-projection flops for a gate panel
// gateWidth wide: the x*Wx^T GEMM plus the bias add.
func ProjFlops(batch, inputSize, gateWidth int) float64 {
	return 2.0*float64(batch)*float64(inputSize)*float64(gateWidth) + float64(batch)*float64(gateWidth)
}

// LSTMChainForwardFlops estimates the chain-resident part of a split forward
// cell update: the recurrent GEMM plus the elementwise work.
func LSTMChainForwardFlops(batch, hiddenSize int) float64 {
	gemm := 2.0 * float64(batch) * float64(hiddenSize) * float64(lstmGates*hiddenSize)
	return gemm + 12.0*float64(batch)*float64(hiddenSize)
}

// LSTMChainBackwardFlops estimates the chain-resident part of a split
// backward cell update in deferred-gradient mode: the dHPrev GEMM plus
// elementwise work (dX, dW and DB are all hoisted into batched tasks).
func LSTMChainBackwardFlops(batch, hiddenSize int) float64 {
	g := float64(lstmGates * hiddenSize)
	gemm := 2.0 * float64(batch) * g * float64(hiddenSize)
	return gemm + 20.0*float64(batch)*float64(hiddenSize)
}

// DXFlops estimates one timestep's hoisted input-gradient flops for a gate
// panel gateWidth wide: the dX += dGates*Wx GEMM.
func DXFlops(batch, inputSize, gateWidth int) float64 {
	return 2.0 * float64(batch) * float64(inputSize) * float64(gateWidth)
}

// DWFlops estimates the whole-sequence hoisted weight-gradient flops for a
// gate panel gateWidth wide: the stacked dW += dGates^T*[X, HPrev] GEMM over
// seq timesteps plus the bias reduction.
func DWFlops(seq, batch, inputSize, hiddenSize, gateWidth int) float64 {
	k := float64(seq) * float64(batch)
	return 2.0*k*float64(gateWidth)*float64(inputSize+hiddenSize) + k*float64(gateWidth)
}

// GRUChainForwardFlops estimates the chain-resident split GRU forward.
func GRUChainForwardFlops(batch, hiddenSize int) float64 {
	gemm := 2.0 * float64(batch) * float64(hiddenSize) * float64(gruGates*hiddenSize)
	return gemm + 10.0*float64(batch)*float64(hiddenSize)
}

// GRUChainBackwardFlops estimates the chain-resident split GRU backward in
// deferred-gradient mode: the dRHh and dHPrev GEMMs plus elementwise work
// (dX, dW and DB are all hoisted into batched tasks).
func GRUChainBackwardFlops(batch, hiddenSize int) float64 {
	g := float64(gruGates * hiddenSize)
	gemm := 2.0 * float64(batch) * g * float64(hiddenSize)
	return gemm + 18.0*float64(batch)*float64(hiddenSize)
}

// RNNChainForwardFlops estimates the chain-resident split RNN forward.
func RNNChainForwardFlops(batch, hiddenSize int) float64 {
	return 2.0*float64(batch)*float64(hiddenSize)*float64(hiddenSize) + 2.0*float64(batch)*float64(hiddenSize)
}

// RNNChainBackwardFlops estimates the chain-resident split RNN backward in
// deferred-gradient mode: the dHPrev GEMM plus elementwise work.
func RNNChainBackwardFlops(batch, hiddenSize int) float64 {
	return 2.0*float64(batch)*float64(hiddenSize)*float64(hiddenSize) + 4.0*float64(batch)*float64(hiddenSize)
}
