package core

import (
	"fmt"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// kindFwdCell returns the task-kind string of a forward-propagation cell.
func (e *Engine) kindFwdCell() string {
	switch e.M.Cfg.Cell {
	case GRU:
		return "gru"
	case RNN:
		return "rnn"
	default:
		return "lstm"
	}
}

// emitForward emits the forward-propagation task graph of one mini-batch,
// following the structure of Algorithms 2 and 3: per layer, the reverse-order
// cells (a dependency chain from t=T-1 down to 0), the forward-order cells
// (a chain from t=0 up to T-1), and the merge cells (each depending on
// exactly one forward and one reverse cell — Equation 11). Tasks are created
// in topological order; the run-time system overlaps their execution across
// layers and directions with no barrier.
//
// Per-step data (the mini-batch's input views and labels) is never captured
// by task closures: bodies read it through the workspace's step binding
// (ws.bind, set by bindStep), so one emission can be captured into a
// taskrt.Template and replayed for every later batch of the same shape.
// Phantom workspaces emit metadata-only tasks with no bodies.
// withHead controls whether classifier-head tasks are emitted.
//
// When f32 is true the same graph is emitted against the workspace's float32
// mirror buffers: identical topology and dependency keys, plus one conv task
// per timestep converting the bound f64 input views into the kX32 panels.
// f32 graphs are forward-only (training stays float64).
func (e *Engine) emitForward(ws *workspace, mbIdx int, withHead, f32 bool) {
	if f32 {
		e.emitConvertInputs(ws, mbIdx)
	}
	for l := 0; l < e.M.Cfg.Layers; l++ {
		e.emitForwardLayer(ws, mbIdx, l, f32)
	}
	e.emitFinalMerge(ws, mbIdx, f32)
	if withHead {
		e.emitHeadForward(ws, mbIdx, f32)
	}
}

// emitForwardLayer emits the forward-propagation tasks of one layer:
// reverse-order cells, forward-order cells, and merge cells.
func (e *Engine) emitForwardLayer(ws *workspace, mbIdx, l int, f32 bool) {
	e.emitRevCells(ws, mbIdx, l, f32)
	e.emitFwdCells(ws, mbIdx, l, f32)
	e.emitMergeCells(ws, mbIdx, l, f32)
}

// emitConvertInputs emits one conversion task per timestep, widening the
// bound float64 batch views into the workspace's float32 input panels. Conv
// tasks are the only tasks that read both representations; everything
// downstream of kX32 is pure float32.
func (e *Engine) emitConvertInputs(ws *workspace, mbIdx int) {
	in := e.M.Cfg.InputSize
	batch := make([]*taskrt.Task, 0, ws.T)
	for t := 0; t < ws.T; t++ {
		task := &taskrt.Task{
			Label:      fmt.Sprintf("conv t%d mb%d", t, mbIdx),
			Kind:       "conv",
			In:         []taskrt.Dep{ws.kX[t]},
			Out:        []taskrt.Dep{ws.kX32[t]},
			Flops:      float64(ws.rows * in),
			WorkingSet: int64(12 * ws.rows * in),
		}
		t := t
		task.Fn = func() { tensor.ConvertInto(ws.f32.x[t], ws.bind.x[t]) }
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
}

// projTileT is the timestep-tile width of one input-projection task. Tiling
// amortizes the Wx panel's memory traffic across several timesteps while
// keeping enough projection tasks in flight to overlap with the recurrence.
const projTileT = 8

// emitProjection emits layer l's blocked input-projection tasks for one
// direction: Pre_t = X_t*Wx^T + B for every timestep of a tile. These tasks
// depend only on the layer input — never on the recurrence — so they are the
// off-critical-path half of the split-gate decomposition. Tiles of the
// reverse direction are submitted high-t first, matching the order its chain
// consumes them.
func (e *Engine) emitProjection(ws *workspace, mbIdx, l int, rev, f32 bool) {
	T := ws.T
	p, kPre, dir := e.M.fwd[l], ws.kPreFwd, "fwd"
	if rev {
		p, kPre, dir = e.M.rev[l], ws.kPreRev, "rev"
	}
	in, gw := p.dims()
	stepFlops := p.projFlops(ws.rows)

	tiles := make([][2]int, 0, (T+projTileT-1)/projTileT)
	for t0 := 0; t0 < T; t0 += projTileT {
		tiles = append(tiles, [2]int{t0, min(t0+projTileT, T)})
	}
	if rev {
		for i, j := 0, len(tiles)-1; i < j; i, j = i+1, j-1 {
			tiles[i], tiles[j] = tiles[j], tiles[i]
		}
	}

	batch := make([]*taskrt.Task, 0, len(tiles))
	for _, tile := range tiles {
		t0, t1 := tile[0], tile[1]
		deps := make([]taskrt.Dep, 0, t1-t0)
		outs := make([]taskrt.Dep, 0, t1-t0)
		for t := t0; t < t1; t++ {
			deps = append(deps, e.inputKey(ws, l, t, f32))
			outs = append(outs, kPre[l][t])
		}
		task := &taskrt.Task{
			Label:      fmt.Sprintf("proj-%s L%d t%d:%d mb%d", dir, l, t0, t1, mbIdx),
			Kind:       "proj",
			In:         deps,
			Out:        outs,
			Flops:      stepFlops * float64(t1-t0),
			WorkingSet: int64(8 * (gw*(in+1) + (t1-t0)*ws.rows*(in+gw))),
		}
		if !ws.phantom {
			if f32 {
				d32 := e.fm32[p]
				pres := ws.f32.preFwd
				if rev {
					pres = ws.f32.preRev
				}
				xs := make([]*tensor.Mat[float32], t1-t0)
				ps := make([]*tensor.Mat[float32], 0, t1-t0)
				for t := t0; t < t1; t++ {
					ps = append(ps, pres[l][t])
				}
				task.Fn = func() {
					for i := range xs {
						xs[i] = ws.inputF32(l, t0+i)
					}
					d32.preGatesBatch(xs, ps)
				}
			} else {
				pres := ws.preFwd
				if rev {
					pres = ws.preRev
				}
				xs := make([]*tensor.Matrix, t1-t0)
				ps := make([]*tensor.Matrix, 0, t1-t0)
				for t := t0; t < t1; t++ {
					ps = append(ps, pres[l][t])
				}
				task.Fn = func() {
					for i := range xs {
						xs[i] = ws.input(l, t0+i)
					}
					p.preGatesBatch(xs, ps)
				}
			}
		}
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
}

// emitRevCells emits layer l's reverse-order cells, processed T-1 → 0
// (Algorithm 3). In split mode the chain task consumes the gate preload
// instead of the raw input, so its only serial dependency is the previous
// state.
//
// Variable-length batches: each body masks its state rows to zero where
// timestep t is padding (lens[i] <= t), so row i's reverse chain effectively
// restarts from the zero boundary state at its true last timestep lens[i]-1 —
// bitwise-identical to running that row at its own length. The forward
// direction needs no mask: padded-tail garbage stays confined to rows whose
// real outputs never read it (rows are independent, and padded frames carry
// IgnoreLabel losses and zero gradients).
func (e *Engine) emitRevCells(ws *workspace, mbIdx, l int, f32 bool) {
	T := ws.T
	cellKind := e.kindFwdCell()
	lR := e.M.rev[l]
	fwdFlops := lR.fwdFlops(ws.rows)
	cellWS := lR.taskWorkingSet(ws.rows)
	if ws.split {
		e.emitProjection(ws, mbIdx, l, true, f32)
		fwdFlops = lR.chainFwdFlops(ws.rows)
	}

	batch := make([]*taskrt.Task, 0, T)
	for u := 0; u < T; u++ {
		t := T - 1 - u
		var in []taskrt.Dep
		if ws.split {
			in = []taskrt.Dep{ws.kPreRev[l][t]}
		} else {
			in = []taskrt.Dep{e.inputKey(ws, l, t, f32)}
		}
		if t < T-1 {
			in = append(in, ws.kRevSt[l][t+1])
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("rev L%d t%d mb%d", l, t, mbIdx),
			Kind:  cellKind,
			In:    in,
			Out:   []taskrt.Dep{ws.kRevSt[l][t]},
			Flops: fwdFlops, WorkingSet: cellWS,
		}
		if !ws.phantom {
			l, t := l, t
			switch {
			case f32 && ws.split:
				d32 := e.fm32[lR]
				pre := ws.f32.preRev[l][t]
				task.Fn = func() {
					hPrev, cPrev := ws.f32.zeroH, ws.f32.zeroC
					if t < T-1 {
						hPrev = ws.f32.revSt[l][t+1].H()
						cPrev = ws.f32.revSt[l][t+1].C()
					}
					d32.forwardPre(pre, hPrev, cPrev, ws.f32.revSt[l][t])
					ws.maskRevState32(l, t)
				}
			case f32:
				d32 := e.fm32[lR]
				task.Fn = func() {
					hPrev, cPrev := ws.f32.zeroH, ws.f32.zeroC
					if t < T-1 {
						hPrev = ws.f32.revSt[l][t+1].H()
						cPrev = ws.f32.revSt[l][t+1].C()
					}
					d32.forward(ws.inputF32(l, t), hPrev, cPrev, ws.f32.revSt[l][t])
					ws.maskRevState32(l, t)
				}
			case ws.split:
				ps := e.pack64[lR]
				pre := ws.preRev[l][t]
				task.Fn = func() {
					hPrev, cPrev := ws.zeroH, ws.zeroC
					if t < T-1 {
						hPrev = ws.revSt[l][t+1].H()
						cPrev = ws.revSt[l][t+1].C()
					}
					lR.forwardPrePacked(ps, pre, hPrev, cPrev, ws.revSt[l][t])
					ws.maskRevState(l, t)
				}
			default:
				task.Fn = func() {
					hPrev, cPrev := ws.zeroH, ws.zeroC
					if t < T-1 {
						hPrev = ws.revSt[l][t+1].H()
						cPrev = ws.revSt[l][t+1].C()
					}
					lR.forward(ws.input(l, t), hPrev, cPrev, ws.revSt[l][t])
					ws.maskRevState(l, t)
				}
			}
		}
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
}

// emitFwdCells emits layer l's forward-order cells, processed 0 → T-1
// (Algorithm 2). See emitRevCells for the split-mode dependency shape.
func (e *Engine) emitFwdCells(ws *workspace, mbIdx, l int, f32 bool) {
	T := ws.T
	cellKind := e.kindFwdCell()
	lF := e.M.fwd[l]
	fwdFlops := lF.fwdFlops(ws.rows)
	cellWS := lF.taskWorkingSet(ws.rows)
	if ws.split {
		e.emitProjection(ws, mbIdx, l, false, f32)
		fwdFlops = lF.chainFwdFlops(ws.rows)
	}

	batch := make([]*taskrt.Task, 0, T)
	for t := 0; t < T; t++ {
		var in []taskrt.Dep
		if ws.split {
			in = []taskrt.Dep{ws.kPreFwd[l][t]}
		} else {
			in = []taskrt.Dep{e.inputKey(ws, l, t, f32)}
		}
		if t > 0 {
			in = append(in, ws.kFwdSt[l][t-1])
		}
		task := &taskrt.Task{
			Label: fmt.Sprintf("fwd L%d t%d mb%d", l, t, mbIdx),
			Kind:  cellKind,
			In:    in,
			Out:   []taskrt.Dep{ws.kFwdSt[l][t]},
			Flops: fwdFlops, WorkingSet: cellWS,
		}
		if !ws.phantom {
			l, t := l, t
			switch {
			case f32 && ws.split:
				d32 := e.fm32[lF]
				pre := ws.f32.preFwd[l][t]
				task.Fn = func() {
					hPrev, cPrev := ws.f32.zeroH, ws.f32.zeroC
					if t > 0 {
						hPrev = ws.f32.fwdSt[l][t-1].H()
						cPrev = ws.f32.fwdSt[l][t-1].C()
					}
					d32.forwardPre(pre, hPrev, cPrev, ws.f32.fwdSt[l][t])
				}
			case f32:
				d32 := e.fm32[lF]
				task.Fn = func() {
					hPrev, cPrev := ws.f32.zeroH, ws.f32.zeroC
					if t > 0 {
						hPrev = ws.f32.fwdSt[l][t-1].H()
						cPrev = ws.f32.fwdSt[l][t-1].C()
					}
					d32.forward(ws.inputF32(l, t), hPrev, cPrev, ws.f32.fwdSt[l][t])
				}
			case ws.split:
				ps := e.pack64[lF]
				pre := ws.preFwd[l][t]
				task.Fn = func() {
					hPrev, cPrev := ws.zeroH, ws.zeroC
					if t > 0 {
						hPrev = ws.fwdSt[l][t-1].H()
						cPrev = ws.fwdSt[l][t-1].C()
					}
					lF.forwardPrePacked(ps, pre, hPrev, cPrev, ws.fwdSt[l][t])
				}
			default:
				task.Fn = func() {
					hPrev, cPrev := ws.zeroH, ws.zeroC
					if t > 0 {
						hPrev = ws.fwdSt[l][t-1].H()
						cPrev = ws.fwdSt[l][t-1].C()
					}
					lF.forward(ws.input(l, t), hPrev, cPrev, ws.fwdSt[l][t])
				}
			}
		}
		batch = append(batch, task)
	}
	taskrt.SubmitBatch(e.Exec, batch)
}

// emitMergeCells emits layer l's merge cells. Merges are kept as separate
// tasks precisely so that forward and reverse cells of the same layer never
// depend on each other.
func (e *Engine) emitMergeCells(ws *workspace, mbIdx, l int, f32 bool) {
	cfg := e.M.Cfg
	T := ws.T
	if cfg.hasMergePerTimestep(l) {
		mFlops := mergeFlops(cfg.Merge, ws.rows, cfg.HiddenSize)
		mWS := mergeWorkingSetBytes(cfg.Merge, ws.rows, cfg.HiddenSize)
		batch := make([]*taskrt.Task, 0, T)
		for t := 0; t < T; t++ {
			task := &taskrt.Task{
				Label: fmt.Sprintf("merge L%d t%d mb%d", l, t, mbIdx),
				Kind:  "merge",
				In:    []taskrt.Dep{ws.kFwdSt[l][t], ws.kRevSt[l][t]},
				Out:   []taskrt.Dep{ws.kMerged[l][t]},
				Flops: mFlops, WorkingSet: mWS,
			}
			if !ws.phantom {
				l, t := l, t
				if f32 {
					task.Fn = func() {
						mergeForward(cfg.Merge, ws.f32.merged[l][t], ws.f32.fwdSt[l][t].H(), ws.f32.revSt[l][t].H())
					}
				} else {
					task.Fn = func() {
						mergeForward(cfg.Merge, ws.merged[l][t], ws.fwdSt[l][t].H(), ws.revSt[l][t].H())
					}
				}
			}
			batch = append(batch, task)
		}
		taskrt.SubmitBatch(e.Exec, batch)
	}
}

// emitFinalMerge emits the single final merge feeding the classification
// heads: cells 9f and 9r of Figure 1 — the forward direction's sequence-final
// state and the last-processed reverse cell. Under a lens binding the
// sequence-final forward state is per-row fwdSt[L-1][lens[i]-1], so the task
// conservatively depends on every top-layer forward cell (one template serves
// both full-length and masked batches of the same T) and gathers the rows it
// needs at run time. No-op when no head classifies.
func (e *Engine) emitFinalMerge(ws *workspace, mbIdx int, f32 bool) {
	cfg := e.M.Cfg
	L, T := cfg.Layers, ws.T
	if !cfg.anyClassify() {
		return
	}
	in := make([]taskrt.Dep, 0, T+1)
	for t := 0; t < T; t++ {
		in = append(in, ws.kFwdSt[L-1][t])
	}
	in = append(in, ws.kRevSt[L-1][0])
	task := &taskrt.Task{
		Label:      fmt.Sprintf("merge-final mb%d", mbIdx),
		Kind:       "merge",
		In:         in,
		Out:        []taskrt.Dep{ws.kFinalMerged},
		Flops:      mergeFlops(cfg.Merge, ws.rows, cfg.HiddenSize),
		WorkingSet: mergeWorkingSetBytes(cfg.Merge, ws.rows, cfg.HiddenSize),
	}
	if !ws.phantom {
		if f32 {
			task.Fn = func() {
				mergeForward(cfg.Merge, ws.f32.finalMerged, ws.gatherLastHFwd32(), ws.f32.revSt[L-1][0].H())
			}
		} else {
			task.Fn = func() {
				mergeForward(cfg.Merge, ws.finalMerged, ws.gatherLastHFwd(), ws.revSt[L-1][0].H())
			}
		}
	}
	e.Exec.Submit(task)
}

// inputKey returns the dependency key of the input consumed by layer l at
// timestep t: the raw batch input for layer 0 (its converted panel on the
// float32 graph), the merge output below otherwise.
func (e *Engine) inputKey(ws *workspace, l, t int, f32 bool) taskrt.Dep {
	if l == 0 {
		if f32 {
			return ws.kX32[t]
		}
		return ws.kX[t]
	}
	return ws.kMerged[l-1][t]
}

// emitHeadForward emits one task per output slot of every head: logits,
// softmax and summed cross-entropy, fed by the final merge (classification
// heads) or the timestep's merge (per-frame heads). Labels are read from the
// step binding at run time, so the same task serves labeled and unlabeled
// batches across replays. Slot layout is head-major (Config.HeadSlotRange).
func (e *Engine) emitHeadForward(ws *workspace, mbIdx int, f32 bool) {
	cfg := e.M.Cfg
	D := cfg.MergeDim()
	L, T := cfg.Layers, ws.T

	for h, spec := range cfg.HeadSpecs() {
		h, spec := h, spec
		lo, _ := cfg.HeadSlotRange(h, T)
		hFlops := 2 * float64(ws.rows) * float64(D) * float64(spec.Classes)
		hWS := int64(8 * (ws.rows*D + ws.rows*spec.Classes + spec.Classes*D))

		if !spec.Kind.PerFrame() {
			task := &taskrt.Task{
				Label: fmt.Sprintf("head%d mb%d", h, mbIdx),
				Kind:  "head",
				In:    []taskrt.Dep{ws.kFinalMerged},
				Out:   []taskrt.Dep{ws.kProbs[lo]},
				Flops: hFlops, WorkingSet: hWS,
			}
			if !ws.phantom {
				if f32 {
					task.Fn = func() { e.headForward32(ws, h, lo, ws.f32.finalMerged, ws.bind.targets) }
				} else {
					task.Fn = func() { e.headForward(ws, h, lo, ws.finalMerged, ws.bind.targets) }
				}
			}
			e.Exec.Submit(task)
			continue
		}

		batch := make([]*taskrt.Task, 0, T)
		for t := 0; t < T; t++ {
			task := &taskrt.Task{
				Label: fmt.Sprintf("head%d t%d mb%d", h, t, mbIdx),
				Kind:  "head",
				In:    []taskrt.Dep{ws.kMerged[L-1][t]},
				Out:   []taskrt.Dep{ws.kProbs[lo+t]},
				Flops: hFlops, WorkingSet: hWS,
			}
			if !ws.phantom {
				t := t
				if f32 {
					task.Fn = func() { e.headForward32(ws, h, lo+t, ws.f32.merged[L-1][t], ws.headTargetsAt(spec.Kind, t)) }
				} else {
					task.Fn = func() { e.headForward(ws, h, lo+t, ws.merged[L-1][t], ws.headTargetsAt(spec.Kind, t)) }
				}
			}
			batch = append(batch, task)
		}
		taskrt.SubmitBatch(e.Exec, batch)
	}
}

// headForward computes logits, probabilities, and (when labels are present)
// the summed cross-entropy for head h's output slot writing into slot index
// `slot`, fed by input.
func (e *Engine) headForward(ws *workspace, h, slot int, input *tensor.Matrix, targets []int) {
	head := &e.M.Heads[h]
	tensor.MatMulT(ws.logits[slot], input, head.W)
	tensor.AddBiasRows(ws.logits[slot], head.B)
	ws.probs[slot].CopyFrom(ws.logits[slot])
	tensor.SoftmaxRows(ws.probs[slot])
	if targets != nil {
		ws.losses[slot] = sumCrossEntropy(ws.probs[slot], targets)
	}
}

// headForward32 is headForward against the float32 head mirror.
func (e *Engine) headForward32(ws *workspace, h, slot int, input *tensor.Mat[float32], targets []int) {
	s := ws.f32
	tensor.MatMulTOf(s.logits[slot], input, e.head32W[h])
	tensor.AddBiasRows(s.logits[slot], e.head32B[h])
	s.probs[slot].CopyFrom(s.logits[slot])
	tensor.SoftmaxRows(s.probs[slot])
	if targets != nil {
		ws.losses[slot] = sumCrossEntropy(s.probs[slot], targets)
	}
}

// sumCrossEntropy totals the negative log-likelihood over rows, skipping
// IgnoreLabel rows (padding of variable-length sequences).
func sumCrossEntropy[E tensor.Elt](probs *tensor.Mat[E], targets []int) float64 {
	loss := 0.0
	for i, tgt := range targets {
		if tgt == tensor.IgnoreLabel {
			continue
		}
		p := float64(probs.At(i, tgt))
		loss -= logF(p + 1e-12)
	}
	return loss
}
