package core

import (
	"fmt"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// emitBackward emits the backward-propagation task graph of one mini-batch.
// It mirrors the forward graph (the red arrows of Figure 2): starting from
// the classifier head, gradients flow down through merge-backward tasks and
// along each direction's cell chain in the order opposite to forward
// processing. Gradient accumulation into the shared per-layer weight
// gradients is serialized by an inout dependency, which both removes data
// races and fixes the floating-point summation order, so parallel training
// is bitwise identical to sequential training.
func (e *Engine) emitBackward(ws *workspace, mbIdx int) {
	cfg := e.M.Cfg
	L := cfg.Layers

	for l := L - 1; l >= 0; l-- {
		if l == L-1 {
			e.emitHeadBackward(ws, mbIdx)
			if cfg.anyClassify() {
				e.emitFinalMergeBackward(ws, mbIdx)
			}
		}
		if cfg.hasMergePerTimestep(l) {
			e.emitMergeBackward(ws, l, mbIdx)
		}
		e.emitCellBackward(ws, l, mbIdx)
	}
}

// kindBwdCell returns the task-kind string of a backward cell task.
func (e *Engine) kindBwdCell() string {
	switch e.M.Cfg.Cell {
	case GRU:
		return "gru-bwd"
	case RNN:
		return "rnn-bwd"
	default:
		return "lstm-bwd"
	}
}

// emitHeadBackward emits the head gradient tasks of every head: dLogits =
// probs - onehot (sum convention), head weight gradients, and the gradient
// flowing into the final merge (classification heads) or the timestep's merge
// slot (per-frame heads). The merge-gradient buffers are zeroed by
// resetForStep and every head *accumulates* into them (inout), so heads
// sharing the trunk serialize in declaration order — race-free and bitwise
// deterministic — while a single head reproduces the legacy overwrite
// (Zero + GemmAcc ≡ MatMul) exactly.
func (e *Engine) emitHeadBackward(ws *workspace, mbIdx int) {
	cfg := e.M.Cfg
	D := cfg.MergeDim()
	L, T := cfg.Layers, ws.T

	for h, spec := range cfg.HeadSpecs() {
		h, spec := h, spec
		lo, _ := cfg.HeadSlotRange(h, T)
		hFlops := 4 * float64(ws.rows) * float64(D) * float64(spec.Classes)
		hWS := int64(8 * (2*ws.rows*D + ws.rows*spec.Classes + 2*spec.Classes*D))

		if !spec.Kind.PerFrame() {
			task := &taskrt.Task{
				Label: fmt.Sprintf("head%d-bwd mb%d", h, mbIdx),
				Kind:  "head-bwd",
				In:    []taskrt.Dep{ws.kProbs[lo], ws.kFinalMerged},
				InOut: []taskrt.Dep{ws.kHeadGrads[h], ws.kDFinalMerged},
				Flops: hFlops, WorkingSet: hWS,
			}
			if !ws.phantom {
				task.Fn = func() {
					e.headBackward(ws, h, lo, ws.finalMerged, ws.bind.targets, ws.dFinalMerged)
				}
			}
			e.Exec.Submit(task)
			continue
		}

		batch := make([]*taskrt.Task, 0, T)
		for t := T - 1; t >= 0; t-- {
			task := &taskrt.Task{
				Label: fmt.Sprintf("head%d-bwd t%d mb%d", h, t, mbIdx),
				Kind:  "head-bwd",
				In:    []taskrt.Dep{ws.kProbs[lo+t], ws.kMerged[L-1][t]},
				InOut: []taskrt.Dep{ws.kHeadGrads[h], ws.kDMerged[L-1][t]},
				Flops: hFlops, WorkingSet: hWS,
			}
			if !ws.phantom {
				t := t
				task.Fn = func() {
					e.headBackward(ws, h, lo+t, ws.merged[L-1][t], ws.headTargetsAt(spec.Kind, t), ws.dMerged[L-1][t])
				}
			}
			batch = append(batch, task)
		}
		taskrt.SubmitBatch(e.Exec, batch)
	}
}

// headBackward computes, for head h's slot `slot`: dLogits = probs -
// onehot(targets), accumulates head h's weight gradients, and accumulates
// dInput += dLogits * W (the caller zeroes dInput once per step; heads
// sharing a merge slot are serialized by their inout dependency on it).
func (e *Engine) headBackward(ws *workspace, h, slot int, input *tensor.Matrix, targets []int, dInput *tensor.Matrix) {
	// ws.dLogits[h] is shared across head h's slots; safe because the head's
	// backward tasks are serialized by the inout dependency on kHeadGrads[h].
	head := &e.M.Heads[h]
	dLogits := ws.dLogits[h]
	dLogits.CopyFrom(ws.probs[slot])
	for i, tgt := range targets {
		if tgt == tensor.IgnoreLabel {
			// Padding rows and frames of variable-length sequences carry no
			// gradient.
			for j := 0; j < dLogits.Cols; j++ {
				dLogits.Set(i, j, 0)
			}
			continue
		}
		dLogits.Set(i, tgt, dLogits.At(i, tgt)-1)
	}
	tensor.GemmATAcc(ws.headGrads[h].DW, dLogits, input)
	for i := 0; i < dLogits.Rows; i++ {
		row := dLogits.Row(i)
		for j, v := range row {
			ws.headGrads[h].DB[j] += v
		}
	}
	tensor.GemmAcc(dInput, dLogits, head.W)
}

// emitFinalMergeBackward splits the accumulated final-merge gradient into the
// two direction-specific gradients dFinalHFwd/dFinalHRev. These are dedicated
// buffers (not the per-timestep merge-gradient slots) so classification heads
// coexist with per-frame heads on the same trunk; the top layer's chain tasks
// inject them at each row's true boundary step. The task re-runs the forward
// gather (GatherRows reads every top-layer forward state under Lens, and the
// multiplicative merge consumes the gathered values), so like the final merge
// it conservatively depends on every top-layer forward cell plus the reverse
// boundary cell — one In set for every merge op and lens shape, keeping the
// template replayable across masked and full-length batches.
func (e *Engine) emitFinalMergeBackward(ws *workspace, mbIdx int) {
	cfg := e.M.Cfg
	L, T := cfg.Layers, ws.T
	in := []taskrt.Dep{ws.kDFinalMerged}
	for t := 0; t < T; t++ {
		in = append(in, ws.kFwdSt[L-1][t])
	}
	in = append(in, ws.kRevSt[L-1][0])
	task := &taskrt.Task{
		Label:      fmt.Sprintf("merge-final-bwd mb%d", mbIdx),
		Kind:       "merge-bwd",
		In:         in,
		Out:        []taskrt.Dep{ws.kDFinalHFwd, ws.kDFinalHRev},
		Flops:      mergeFlops(cfg.Merge, ws.rows, cfg.HiddenSize),
		WorkingSet: mergeWorkingSetBytes(cfg.Merge, ws.rows, cfg.HiddenSize),
	}
	if !ws.phantom {
		task.Fn = func() {
			mergeBackward(cfg.Merge, ws.dFinalMerged,
				ws.gatherLastHFwd(), ws.revSt[L-1][0].H(),
				ws.dFinalHFwd, ws.dFinalHRev)
		}
	}
	e.Exec.Submit(task)
}

// emitMergeBackward emits one merge-backward task per timestep of layer l,
// converting the accumulated dMerged into per-direction cell gradients.
func (e *Engine) emitMergeBackward(ws *workspace, l, mbIdx int) {
	cfg := e.M.Cfg
	mFlops := mergeFlops(cfg.Merge, ws.rows, cfg.HiddenSize)
	mWS := mergeWorkingSetBytes(cfg.Merge, ws.rows, cfg.HiddenSize)
	batch := make([]*taskrt.Task, 0, ws.T)
	for t := 0; t < ws.T; t++ {
		in := []taskrt.Dep{ws.kDMerged[l][t]}
		if cfg.Merge == MergeMul {
			in = append(in, ws.kFwdSt[l][t], ws.kRevSt[l][t])
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("merge-bwd L%d t%d mb%d", l, t, mbIdx),
			Kind:  "merge-bwd",
			In:    in,
			Out:   []taskrt.Dep{ws.kDHMergeFwd[l][t], ws.kDHMergeRev[l][t]},
			Flops: mFlops, WorkingSet: mWS,
		}
		if !ws.phantom {
			l, t := l, t
			task.Fn = func() {
				mergeBackward(cfg.Merge, ws.dMerged[l][t],
					ws.fwdSt[l][t].H(), ws.revSt[l][t].H(),
					ws.dHMergeFwd[l][t], ws.dHMergeRev[l][t])
			}
		}
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
}

// emitCellBackward emits the backward cell tasks of layer l: the forward
// direction's chain runs t=T-1 → 0, the reverse direction's chain t=0 → T-1
// (each chain is the forward chain reversed). Every task:
//
//   - sums its merge gradient and chain gradient into the total dH,
//   - runs the cell's BPTT kernel,
//   - in fused mode, accumulates its dX into the merge-gradient buffer of
//     the layer below (inout — two directions may target the same buffer)
//     and the weight gradients (inout on the layer's grads); in split mode
//     both are hoisted off the chain into the batched dx tile tasks and the
//     per-direction dw task, leaving only gate gradients and dHPrev here.
func (e *Engine) emitCellBackward(ws *workspace, l, mbIdx int) {
	e.emitFwdCellBackward(ws, l, mbIdx)
	e.emitRevCellBackward(ws, l, mbIdx)
}

// emitDW emits the single batched weight-gradient task of layer l's given
// direction: DW += stack(dGates)^T · [stack(X) ‖ stack(HPrev)] and DB += Σ_t
// dGates_t, hoisted out of the recurrence so the per-timestep backward tasks
// compute only gate gradients and dHPrev. Transposing the sequences into
// contiguous stacks turns both weight halves into dot-form GEMMs that
// accumulate in registers over K = T·rows instead of read-modify-writing the
// gradient panel once per timestep. Serializing on the inout gradient key
// pins the task after every chain task and fixes the summation order (t
// ascending), keeping parallel training bitwise identical to sequential.
func (e *Engine) emitDW(ws *workspace, mbIdx, l int, rev bool) {
	T := ws.T
	p, kDG, kGrads, kSt, dir := e.M.fwd[l], ws.kDGatesFwd, ws.kGradsFwd, ws.kFwdSt, "fwd"
	if rev {
		p, kDG, kGrads, kSt, dir = e.M.rev[l], ws.kDGatesRev, ws.kGradsRev, ws.kRevSt, "rev"
	}
	in, gw := p.dims()
	hs := p.hiddenSize()
	deps := make([]taskrt.Dep, 0, 3*T)
	for t := 0; t < T; t++ {
		deps = append(deps, kDG[l][t], e.inputKey(ws, l, t, false), kSt[l][t])
	}
	task := &taskrt.Task{
		Label:      fmt.Sprintf("dw-%s L%d mb%d", dir, l, mbIdx),
		Kind:       "dw",
		In:         deps,
		InOut:      []taskrt.Dep{kGrads[l]},
		Flops:      p.dwFlops(T, ws.rows),
		WorkingSet: int64(8 * (gw*(in+hs) + T*ws.rows*(in+hs+gw))),
	}
	if !ws.phantom {
		panels, grads := ws.dGatesFwd[l], ws.gradsFwd[l]
		sts := ws.fwdSt[l]
		sc := ws.dwFwd[l]
		if rev {
			panels, grads = ws.dGatesRev[l], ws.gradsRev[l]
			sts = ws.revSt[l]
			sc = ws.dwRev[l]
		}
		xs := make([]*tensor.Matrix, T)
		hPrevs := make([]*tensor.Matrix, T)
		var rhs []*tensor.Matrix
		if e.M.Cfg.Cell == GRU {
			rhs = make([]*tensor.Matrix, T)
		}
		for t := 0; t < T; t++ {
			// The cell at t consumed the neighbor state in processing order;
			// the boundary cell consumed the zero state.
			hPrevs[t] = ws.zeroH
			if rev && t < T-1 {
				hPrevs[t] = sts[t+1].H()
			} else if !rev && t > 0 {
				hPrevs[t] = sts[t-1].H()
			}
			if rhs != nil {
				rhs[t] = sts[t].gru.RH
			}
		}
		task.Fn = func() {
			for t := range xs {
				xs[t] = ws.input(l, t)
			}
			p.dwBatch(grads, panels, xs, hPrevs, rhs, sc)
		}
	}
	e.Exec.Submit(task)
}

// emitDX emits the batched input-gradient tasks of layer l's given
// direction: per timestep tile, dMerged[l-1][t] += dGates_t * Wx. Like the
// forward projection, dX has no recurrence dependency — it only feeds the
// layer below — so it streams the Wx panel once per tile instead of once per
// chain step. Layer 0 has no consumer for its input gradient, so the split
// path skips it entirely there (the fused kernel cannot: its dZ product
// computes the dX and dHPrev halves in one GEMM). The inout dependencies on
// the merge-gradient buffers serialize the two directions' accumulations in
// submission order, keeping parallel training bitwise deterministic.
func (e *Engine) emitDX(ws *workspace, mbIdx, l int, rev bool) {
	T := ws.T
	p, kDG, dir := e.M.fwd[l], ws.kDGatesFwd, "fwd"
	if rev {
		p, kDG, dir = e.M.rev[l], ws.kDGatesRev, "rev"
	}
	in, gw := p.dims()
	step := p.dxFlops(ws.rows)
	for t0 := 0; t0 < T; t0 += projTileT {
		t1 := min(t0+projTileT, T)
		deps := make([]taskrt.Dep, 0, t1-t0)
		inout := make([]taskrt.Dep, 0, t1-t0)
		for t := t0; t < t1; t++ {
			deps = append(deps, kDG[l][t])
			inout = append(inout, ws.kDMerged[l-1][t])
		}
		task := &taskrt.Task{
			Label:      fmt.Sprintf("dx-%s L%d t%d:%d mb%d", dir, l, t0, t1, mbIdx),
			Kind:       "dx",
			In:         deps,
			InOut:      inout,
			Flops:      step * float64(t1-t0),
			WorkingSet: int64(8 * (gw*in + (t1-t0)*ws.rows*(in+gw))),
		}
		if !ws.phantom {
			panels := ws.dGatesFwd[l]
			if rev {
				panels = ws.dGatesRev[l]
			}
			dsts := make([]*tensor.Matrix, 0, t1-t0)
			as := make([]*tensor.Matrix, 0, t1-t0)
			for t := t0; t < t1; t++ {
				dsts = append(dsts, ws.dMerged[l-1][t])
				as = append(as, panels[t])
			}
			task.Fn = func() { p.dxBatch(dsts, as) }
		}
		e.Exec.Submit(task)
	}
}

// emitFwdCellBackward emits the forward direction's backward chain of layer
// l: t = T-1 down to 0, followed in split mode by the batched dw task and
// the dx tile tasks.
func (e *Engine) emitFwdCellBackward(ws *workspace, l, mbIdx int) {
	cfg := e.M.Cfg
	T := ws.T
	lF := e.M.fwd[l]
	bFlops := lF.bwdFlops(ws.rows)
	if ws.split {
		bFlops = lF.chainBwdFlops(ws.rows)
	}
	cellWS := lF.taskWorkingSet(ws.rows)
	kind := e.kindBwdCell()
	isLSTM := cfg.Cell == LSTM
	// The top layer's chain injects the final-merge gradient at each row's
	// true boundary step (row i's last real forward step is lens[i]-1, or
	// T-1 with no lens bound), so every chain task reads dFinalHFwd.
	classify := cfg.anyClassify() && l == cfg.Layers-1

	batch := make([]*taskrt.Task, 0, T)
	for t := T - 1; t >= 0; t-- {
		in := []taskrt.Dep{ws.kFwdSt[l][t], ws.kDHMergeFwd[l][t], ws.kDHChainFwd[l][t]}
		if classify {
			in = append(in, ws.kDFinalHFwd)
		}
		if isLSTM {
			in = append(in, ws.kDCChainFwd[l][t])
		}
		if t > 0 {
			in = append(in, ws.kFwdSt[l][t-1])
		}
		inout := []taskrt.Dep{ws.kGradsFwd[l]}
		if l > 0 && !ws.split {
			// Split mode hoists the dX accumulation into the dx tile tasks.
			inout = append(inout, ws.kDMerged[l-1][t])
		}
		var out []taskrt.Dep
		if ws.split {
			out = append(out, ws.kDGatesFwd[l][t])
		}
		if t > 0 {
			out = append(out, ws.kDHChainFwd[l][t-1])
			if isLSTM {
				out = append(out, ws.kDCChainFwd[l][t-1])
			}
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("fwd-bwd L%d t%d mb%d", l, t, mbIdx),
			Kind:  kind,
			In:    in, InOut: inout, Out: out,
			Flops: bFlops, WorkingSet: cellWS,
		}
		if !ws.phantom {
			l, t := l, t
			task.Fn = func() {
				tensor.Add(ws.dHSumFwd[l], ws.dHMergeFwd[l][t], ws.dHChainFwd[l][t])
				if classify {
					tensor.AddRowsWhere(ws.dHSumFwd[l], ws.dFinalHFwd, ws.bind.lens, t, ws.T-1)
				}
				hPrev, cPrev := ws.zeroH, ws.zeroC
				if t > 0 {
					hPrev = ws.fwdSt[l][t-1].H()
					cPrev = ws.fwdSt[l][t-1].C()
				}
				dHPrev, dCPrev := ws.dHSinkFwd[l], ws.dCSinkFwd[l]
				if t > 0 {
					dHPrev = ws.dHChainFwd[l][t-1]
					dCPrev = ws.dCChainFwd[l][t-1]
				}
				if ws.split {
					lF.backwardPre(ws.fwdSt[l][t], hPrev, cPrev,
						ws.dHSumFwd[l], ws.dCChainFwd[l][t], ws.dGatesFwd[l][t],
						nil, dHPrev, dCPrev, ws.gradsFwd[l])
				} else {
					lF.backward(ws.fwdSt[l][t], hPrev, cPrev,
						ws.dHSumFwd[l], ws.dCChainFwd[l][t],
						ws.dXScratchFwd[l], dHPrev, dCPrev, ws.gradsFwd[l])
					if l > 0 {
						tensor.AddAcc(ws.dMerged[l-1][t], ws.dXScratchFwd[l])
					}
				}
			}
		}
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
	if ws.split {
		e.emitDW(ws, mbIdx, l, false)
		if l > 0 {
			e.emitDX(ws, mbIdx, l, false)
		}
	}
}

// emitRevCellBackward emits the reverse direction's backward chain of layer
// l: t = 0 up to T-1. The reverse RNN processed t = T-1 first, so its BPTT
// starts at t = 0; the cell's "previous" state in processing order lives at
// t+1.
func (e *Engine) emitRevCellBackward(ws *workspace, l, mbIdx int) {
	cfg := e.M.Cfg
	T := ws.T
	lR := e.M.rev[l]
	bFlops := lR.bwdFlops(ws.rows)
	if ws.split {
		bFlops = lR.chainBwdFlops(ws.rows)
	}
	cellWS := lR.taskWorkingSet(ws.rows)
	kind := e.kindBwdCell()
	isLSTM := cfg.Cell == LSTM
	// The reverse direction's final processed state is always t=0 (masking
	// restarts each short row's chain, so its t=0 state is its true reverse
	// output), so the top layer's t=0 chain task injects all of dFinalHRev.
	classify := cfg.anyClassify() && l == cfg.Layers-1

	batch := make([]*taskrt.Task, 0, T)
	for t := 0; t < T; t++ {
		in := []taskrt.Dep{ws.kRevSt[l][t], ws.kDHMergeRev[l][t], ws.kDHChainRev[l][t]}
		if classify && t == 0 {
			in = append(in, ws.kDFinalHRev)
		}
		if isLSTM {
			in = append(in, ws.kDCChainRev[l][t])
		}
		if t < T-1 {
			in = append(in, ws.kRevSt[l][t+1])
		}
		inout := []taskrt.Dep{ws.kGradsRev[l]}
		if l > 0 && !ws.split {
			// Split mode hoists the dX accumulation into the dx tile tasks.
			inout = append(inout, ws.kDMerged[l-1][t])
		}
		var out []taskrt.Dep
		if ws.split {
			out = append(out, ws.kDGatesRev[l][t])
		}
		if t < T-1 {
			out = append(out, ws.kDHChainRev[l][t+1])
			if isLSTM {
				out = append(out, ws.kDCChainRev[l][t+1])
			}
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("rev-bwd L%d t%d mb%d", l, t, mbIdx),
			Kind:  kind,
			In:    in, InOut: inout, Out: out,
			Flops: bFlops, WorkingSet: cellWS,
		}
		if !ws.phantom {
			l, t := l, t
			task.Fn = func() {
				tensor.Add(ws.dHSumRev[l], ws.dHMergeRev[l][t], ws.dHChainRev[l][t])
				if classify && t == 0 {
					tensor.AddAcc(ws.dHSumRev[l], ws.dFinalHRev)
				}
				hPrev, cPrev := ws.zeroH, ws.zeroC
				if t < T-1 {
					hPrev = ws.revSt[l][t+1].H()
					cPrev = ws.revSt[l][t+1].C()
				}
				dHPrev, dCPrev := ws.dHSinkRev[l], ws.dCSinkRev[l]
				if t < T-1 {
					dHPrev = ws.dHChainRev[l][t+1]
					dCPrev = ws.dCChainRev[l][t+1]
				}
				if ws.split {
					lR.backwardPre(ws.revSt[l][t], hPrev, cPrev,
						ws.dHSumRev[l], ws.dCChainRev[l][t], ws.dGatesRev[l][t],
						nil, dHPrev, dCPrev, ws.gradsRev[l])
				} else {
					lR.backward(ws.revSt[l][t], hPrev, cPrev,
						ws.dHSumRev[l], ws.dCChainRev[l][t],
						ws.dXScratchRev[l], dHPrev, dCPrev, ws.gradsRev[l])
					if l > 0 {
						tensor.AddAcc(ws.dMerged[l-1][t], ws.dXScratchRev[l])
					}
				}
				if t < T-1 {
					// The gradient w.r.t. a masked (constant-zero) boundary
					// state must not leak into the padded steps' chain: zero
					// the rows whose reverse chain restarted at this step.
					tensor.MaskRowsZero(ws.dHChainRev[l][t+1], ws.bind.lens, t+1)
					if isLSTM {
						tensor.MaskRowsZero(ws.dCChainRev[l][t+1], ws.bind.lens, t+1)
					}
				}
			}
		}
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
	if ws.split {
		e.emitDW(ws, mbIdx, l, true)
		if l > 0 {
			e.emitDX(ws, mbIdx, l, true)
		}
	}
}

// emitReduce emits the mini-batch gradient reduction tasks: one task per
// layer and direction (plus one per head) that folds every mini-batch's
// gradients into workspace 0. These are the dependencies that, in the
// paper's words, "enforce gradient synchronization among model replicas" —
// expressed purely as dataflow, with no barrier.
func (e *Engine) emitReduce(wss []*workspace) {
	if len(wss) == 1 {
		return
	}
	cfg := e.M.Cfg
	w0 := wss[0]
	batch := make([]*taskrt.Task, 0, 2*cfg.Layers+1)
	for l := 0; l < cfg.Layers; l++ {
		for dir := 0; dir < 2; dir++ {
			l, dir := l, dir
			var in []taskrt.Dep
			for _, ws := range wss[1:] {
				if dir == 0 {
					in = append(in, ws.kGradsFwd[l])
				} else {
					in = append(in, ws.kGradsRev[l])
				}
			}
			target := w0.kGradsFwd[l]
			if dir == 1 {
				target = w0.kGradsRev[l]
			}
			params := e.M.fwd[l]
			task := &taskrt.Task{
				Label:      fmt.Sprintf("reduce L%d dir%d", l, dir),
				Kind:       "reduce",
				In:         in,
				InOut:      []taskrt.Dep{target},
				Flops:      2 * float64(params.paramCount()) * float64(len(wss)-1),
				WorkingSet: int64(params.paramCount()) * 8 * int64(len(wss)),
			}
			if !w0.phantom {
				task.Fn = func() {
					for _, ws := range wss[1:] {
						if dir == 0 {
							w0.gradsFwd[l].addScaled(1, ws.gradsFwd[l])
						} else {
							w0.gradsRev[l].addScaled(1, ws.gradsRev[l])
						}
					}
				}
			}
			batch = append(batch, task)
		}
	}

	D := cfg.MergeDim()
	for h, spec := range cfg.HeadSpecs() {
		h := h
		params := spec.Classes*D + spec.Classes
		var in []taskrt.Dep
		for _, ws := range wss[1:] {
			in = append(in, ws.kHeadGrads[h])
		}
		task := &taskrt.Task{
			Label:      fmt.Sprintf("reduce head%d", h),
			Kind:       "reduce",
			In:         in,
			InOut:      []taskrt.Dep{w0.kHeadGrads[h]},
			Flops:      2 * float64(params) * float64(len(wss)-1),
			WorkingSet: int64(params) * 8 * int64(len(wss)),
		}
		if !w0.phantom {
			task.Fn = func() {
				for _, ws := range wss[1:] {
					tensor.AxpyMatrix(w0.headGrads[h].DW, 1, ws.headGrads[h].DW)
					tensor.Axpy(1, ws.headGrads[h].DB, w0.headGrads[h].DB)
				}
			}
		}
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
}
