package cell

import "bpar/internal/tensor"

// PackSet bundles the packed weight panels one direction of one layer needs
// on the split execution path. The input projection packs the [0, In) column
// window of the full fused matrix; the chain-resident recurrent GEMMs pack
// the [In, In+H) window — for the LSTM and RNN over all gate rows at once,
// for the GRU separately over the z/r and candidate row blocks because
// GRUForwardPre multiplies them by different operands (hPrev vs r⊙hPrev).
//
// Panels copy the weights; after a weight update call Repack. The engine
// caches one PackSet per (layer, direction) keyed on the model's weight
// version, so in steady-state inference the packing cost is paid once per
// model, not per sequence. The float64 engine packs only the recurrent
// windows (Pack*Recurrent, X nil): its input projection reads Wx in place.
type PackSet[E tensor.Elt] struct {
	// X packs W[:, 0:In) — the off-chain input projection window.
	X *tensor.PackedPanel[E]
	// H packs W[:, In:In+H) for LSTM and RNN — the recurrent window.
	H *tensor.PackedPanel[E]
	// HZR and HH pack the recurrent window of the GRU's z/r row block and
	// candidate row block respectively; nil for LSTM and RNN (and vice versa).
	HZR, HH *tensor.PackedPanel[E]
}

// PackLSTM packs the split-path panels of one LSTM direction.
func PackLSTM[E tensor.Elt](w *LSTMWeightsOf[E]) *PackSet[E] {
	ps := PackLSTMRecurrent(w)
	ps.X = tensor.NewPackedPanel(w.W, 0, w.InputSize)
	return ps
}

// PackLSTMRecurrent packs only the recurrent window of one LSTM direction.
func PackLSTMRecurrent[E tensor.Elt](w *LSTMWeightsOf[E]) *PackSet[E] {
	return &PackSet[E]{H: tensor.NewPackedPanel(w.W, w.InputSize, w.HiddenSize)}
}

// PackGRU packs the split-path panels of one GRU direction.
func PackGRU[E tensor.Elt](w *GRUWeightsOf[E]) *PackSet[E] {
	ps := PackGRURecurrent(w)
	ps.X = tensor.NewPackedPanel(w.W, 0, w.InputSize)
	return ps
}

// PackGRURecurrent packs only the recurrent windows of one GRU direction.
func PackGRURecurrent[E tensor.Elt](w *GRUWeightsOf[E]) *PackSet[E] {
	return &PackSet[E]{
		HZR: tensor.NewPackedPanel(w.viewZR(), w.InputSize, w.HiddenSize),
		HH:  tensor.NewPackedPanel(w.viewH(), w.InputSize, w.HiddenSize),
	}
}

// PackRNN packs the split-path panels of one RNN direction.
func PackRNN[E tensor.Elt](w *RNNWeightsOf[E]) *PackSet[E] {
	ps := PackRNNRecurrent(w)
	ps.X = tensor.NewPackedPanel(w.W, 0, w.InputSize)
	return ps
}

// PackRNNRecurrent packs only the recurrent window of one RNN direction.
func PackRNNRecurrent[E tensor.Elt](w *RNNWeightsOf[E]) *PackSet[E] {
	return &PackSet[E]{H: tensor.NewPackedPanel(w.W, w.InputSize, w.HiddenSize)}
}

// Repack refreshes every panel from the live weights, in place; pointers held
// by captured replay templates stay valid.
func (ps *PackSet[E]) Repack() {
	for _, pp := range []*tensor.PackedPanel[E]{ps.X, ps.H, ps.HZR, ps.HH} {
		if pp != nil {
			pp.Repack()
		}
	}
}

// Bytes returns the total packed-buffer footprint.
func (ps *PackSet[E]) Bytes() int {
	n := 0
	for _, pp := range []*tensor.PackedPanel[E]{ps.X, ps.H, ps.HZR, ps.HH} {
		if pp != nil {
			n += pp.Bytes()
		}
	}
	return n
}

// --- Packed forward variants (split path only) ---
//
// Each mirrors its unpacked counterpart exactly — same bias handling, same
// pointwise code — with the column-window GEMM swapped for its packed twin,
// which accumulates bitwise-identically per dtype. The fused path is never
// packed: GemmTAcc's per-column dot order differs from the 4-wide panel
// microkernel, so packing there would not be a pure layout change.

// LSTMPreGatesPacked is LSTMPreGates reading the packed input panel.
func LSTMPreGatesPacked[E tensor.Elt](w *LSTMWeightsOf[E], x, pre *tensor.Mat[E], ps *PackSet[E]) {
	tensor.MatMulTColsPacked(pre, x, ps.X)
	tensor.AddBiasRows(pre, w.B)
}

// LSTMForwardPrePacked is LSTMForwardPre reading the packed recurrent panel.
func LSTMForwardPrePacked[E tensor.Elt](w *LSTMWeightsOf[E], pre, hPrev, cPrev *tensor.Mat[E], st *LSTMStateOf[E], ps *PackSet[E]) {
	st.Gates.CopyFrom(pre)
	tensor.GemmTAccColsPacked(st.Gates, hPrev, ps.H)
	lstmPointwise(w, cPrev, st)
}

// GRUPreGatesPacked is GRUPreGates reading the packed input panel.
func GRUPreGatesPacked[E tensor.Elt](w *GRUWeightsOf[E], x, pre *tensor.Mat[E], ps *PackSet[E]) {
	tensor.MatMulTColsPacked(pre, x, ps.X)
	tensor.AddBiasRows(pre, w.B)
}

// GRUForwardPrePacked is GRUForwardPre reading the packed recurrent panels.
func GRUForwardPrePacked[E tensor.Elt](w *GRUWeightsOf[E], pre, hPrev *tensor.Mat[E], st *GRUStateOf[E], ps *PackSet[E]) {
	H := w.HiddenSize
	batch := pre.Rows

	tensor.CopyColsInto(st.ZR, pre, 0)
	tensor.GemmTAccColsPacked(st.ZR, hPrev, ps.HZR)
	tensor.SigmoidInPlace(st.ZR)

	for rI := 0; rI < batch; rI++ {
		r := st.ZR.Row(rI)[gruGateR*H : (gruGateR+1)*H]
		hp := hPrev.Row(rI)
		rh := st.RH.Row(rI)
		for j := 0; j < H; j++ {
			rh[j] = r[j] * hp[j]
		}
	}
	tensor.CopyColsInto(st.HBar, pre, 2*H)
	tensor.GemmTAccColsPacked(st.HBar, st.RH, ps.HH)
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

// RNNPreGatesPacked is RNNPreGates reading the packed input panel.
func RNNPreGatesPacked[E tensor.Elt](w *RNNWeightsOf[E], x, pre *tensor.Mat[E], ps *PackSet[E]) {
	tensor.MatMulTColsPacked(pre, x, ps.X)
	tensor.AddBiasRows(pre, w.B)
}

// RNNForwardPrePacked is RNNForwardPre reading the packed recurrent panel.
func RNNForwardPrePacked[E tensor.Elt](w *RNNWeightsOf[E], pre, hPrev *tensor.Mat[E], st *RNNStateOf[E], ps *PackSet[E]) {
	st.H.CopyFrom(pre)
	tensor.GemmTAccColsPacked(st.H, hPrev, ps.H)
	tensor.TanhInPlace(st.H)
}
