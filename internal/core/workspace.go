package core

import (
	"bpar/internal/cell"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// headGrads accumulates one output head's gradients.
type headGrads struct {
	DW *tensor.Matrix
	DB []float64
}

func (g *headGrads) zero() {
	g.DW.Zero()
	for i := range g.DB {
		g.DB[i] = 0
	}
}

// stepBinding is the per-step data a task graph reads at run time: the
// current batch's input-matrix views and labels. Emitter task closures must
// never capture these values structurally — they read them through ws.bind,
// swapped by bindStep before each emission or replay, which is what lets a
// frozen taskrt.Template be replayed for any batch of the same shape. The
// learning rate and loss scale stay host-side: applySGD consumes them after
// Wait, outside the task graph.
type stepBinding struct {
	x           []*tensor.Matrix // layer-0 input views, one per timestep
	targets     []int            // many-to-one labels; nil for unlabeled inference
	stepTargets [][]int          // many-to-many labels, [timestep][sequence]
	lens        []int            // per-row real lengths; nil for full-length batches
	genTargets  [][]int          // stepTargets shifted one frame left (generate heads)
}

// workspace holds the unrolled activations, caches and gradient buffers for
// one mini-batch, plus the dependency keys that name them in task
// annotations.
//
// In phantom mode no numeric buffers are allocated: only dependency keys
// exist, and emitted tasks carry metadata but no bodies. Phantom mode lets
// the discrete-event simulator record task graphs for configurations far too
// large to execute on the host (e.g. hidden 1024, batch 256, 48 cores).
type workspace struct {
	phantom bool
	split   bool // split-gate decomposition: projection + chain tasks
	rows    int  // sequences in this mini-batch
	T       int  // sequence length
	cfg     Config

	// bind is the current step's batch view; see stepBinding.
	bind stepBinding

	// Dependency keys, always present. Indexing: [layer][timestep].
	// Chain-buffer conventions:
	//   kDHChainFwd[l][t] — grad w.r.t. H of forward cell (l,t), written by
	//     the backward task of cell (l,t+1); zero (never written) at t=T-1.
	//   kDHChainRev[l][t] — grad w.r.t. H of reverse cell (l,t), written by
	//     the backward task of cell (l,t-1); zero at t=0.
	kX            []taskrt.Dep
	kX32          []taskrt.Dep // float32 input mirror, written by conv tasks
	kFwdSt        [][]taskrt.Dep
	kRevSt        [][]taskrt.Dep
	kMerged       [][]taskrt.Dep
	kFinalMerged  taskrt.Dep
	kProbs        []taskrt.Dep // one per output slot (see Config.HeadSlots)
	kDMerged      [][]taskrt.Dep
	kDFinalMerged taskrt.Dep
	kDFinalHFwd   taskrt.Dep // final-merge grad w.r.t. the forward direction
	kDFinalHRev   taskrt.Dep // final-merge grad w.r.t. the reverse direction
	kDHMergeFwd   [][]taskrt.Dep
	kDHMergeRev   [][]taskrt.Dep
	kDHChainFwd   [][]taskrt.Dep
	kDCChainFwd   [][]taskrt.Dep
	kDHChainRev   [][]taskrt.Dep
	kDCChainRev   [][]taskrt.Dep
	kGradsFwd     []taskrt.Dep
	kGradsRev     []taskrt.Dep
	kHeadGrads    []taskrt.Dep // one per head

	// Split-gate decomposition keys, always present so phantom graphs can be
	// emitted in either mode. kPre*[l][t] names the gate-preload panel
	// Pre_t = X_t*Wx^T + B written by the projection task; kDGates*[l][t]
	// names the pre-activation gate-gradient panel left behind by the split
	// backward chain for the batched dWx task.
	kPreFwd    [][]taskrt.Dep
	kPreRev    [][]taskrt.Dep
	kDGatesFwd [][]taskrt.Dep
	kDGatesRev [][]taskrt.Dep

	// Real buffers; nil in phantom mode.
	fwdSt, revSt             [][]*cellSt
	merged                   [][]*tensor.Matrix
	finalMerged              *tensor.Matrix
	logits, probs            []*tensor.Matrix // one per output slot
	losses                   []float64        // one per output slot
	dMerged                  [][]*tensor.Matrix
	dFinalMerged             *tensor.Matrix
	dFinalHFwd, dFinalHRev   *tensor.Matrix // final-merge backward outputs
	dHMergeFwd, dHMergeRev   [][]*tensor.Matrix
	dHChainFwd, dCChainFwd   [][]*tensor.Matrix
	dHChainRev, dCChainRev   [][]*tensor.Matrix
	dXScratchFwd             []*tensor.Matrix // per layer
	dXScratchRev             []*tensor.Matrix
	dHSumFwd, dHSumRev       []*tensor.Matrix // per layer dH accumulation scratch
	dHSinkFwd, dCSinkFwd     []*tensor.Matrix // discard targets at chain boundaries
	dHSinkRev, dCSinkRev     []*tensor.Matrix
	zeroH, zeroC, zeroChainH *tensor.Matrix
	gradsFwd, gradsRev       []*dirGrads
	headGrads                []*headGrads     // one per head
	dLogits                  []*tensor.Matrix // per-head backward scratch (serialized by kHeadGrads[h])

	// Variable-length final-merge support: with a bound lens the forward
	// direction's sequence-final state is row i of fwdSt[L-1][lens[i]-1], not
	// fwdSt[L-1][T-1]. gatherH assembles it (via gatherIdx = lens[i]-1 over
	// the lastHFwd views); written by the final-merge forward task and reread
	// by the final-merge backward task, which the head tasks already order,
	// so it stays unregistered with the dependency sanitizer.
	lastHFwd  []*tensor.Matrix // views of fwdSt[L-1][t].H()
	gatherH   *tensor.Matrix
	gatherIdx []int

	// genTargets/ignoreRow back the generate heads' shifted label binding:
	// bindStep points genTargets[t] at stepTargets[t+1] and the final frame
	// at ignoreRow (all tensor.IgnoreLabel).
	genTargets [][]int
	ignoreRow  []int

	// Pooled split-gate panels, allocated only when split && !phantom.
	// Indexing: [layer][timestep], each [rows x G*H].
	preFwd, preRev       [][]*tensor.Matrix
	dGatesFwd, dGatesRev [][]*tensor.Matrix

	// f32 holds the float32 forward-only mirror buffers; nil unless the
	// owning engine infers at float32. Mirror buffers share the f64 buffers'
	// dependency keys (the graph topology is identical), except the converted
	// inputs which get their own kX32 keys.
	f32 *f32Space

	// Per-(layer, direction) row-stacking scratch of the batched dw tasks.
	// Private to one task each (the dw tasks of a layer's two directions
	// serialize on different grad keys), so it stays unregistered with the
	// dependency sanitizer.
	dwFwd, dwRev []*cell.DWScratch
}

// f32Space holds the float32 mirror of the forward-only slice of a
// workspace: converted inputs, cell states, merge outputs, head buffers, and
// (split path) the pooled gate-preload panels. Backward buffers have no
// mirror — training is float64-only.
type f32Space struct {
	x            []*tensor.Mat[float32] // converted layer-0 inputs, per timestep
	fwdSt, revSt [][]*cellSt32
	merged       [][]*tensor.Mat[float32]
	finalMerged  *tensor.Mat[float32]
	logits       []*tensor.Mat[float32] // one per output slot
	probs        []*tensor.Mat[float32]
	zeroH, zeroC *tensor.Mat[float32]
	// lastHFwd/gatherH mirror the f64 variable-length final-merge gather.
	lastHFwd []*tensor.Mat[float32]
	gatherH  *tensor.Mat[float32]
	// preFwd/preRev pool the split-gate preload panels; nil when fused.
	preFwd, preRev [][]*tensor.Mat[float32]
}

// token is a unique comparable dependency key for phantom buffers.
type token struct{ _ byte }

func newToken() taskrt.Dep { return &token{} }

// hasMergePerTimestep reports whether layer l has a merge cell at every
// timestep (true for all layers except the top layer of a model with no
// per-frame head, which has only the single final merge).
func (c Config) hasMergePerTimestep(l int) bool {
	return l < c.Layers-1 || c.anyPerFrame()
}

// newWorkspace builds a workspace for one mini-batch of `rows` sequences of
// length T. When phantom is true, only dependency keys are created. When
// split is true, the workspace additionally pools the gate-preload and
// gate-gradient panels of the split-gate decomposition. When f32 is true, a
// float32 mirror of the forward-only buffers is allocated as well.
func newWorkspace(m *Model, rows, T int, phantom, split, f32 bool) *workspace {
	cfg := m.Cfg
	w := &workspace{phantom: phantom, split: split, rows: rows, T: T, cfg: cfg}
	L := cfg.Layers
	H := cfg.HiddenSize
	D := cfg.MergeDim()

	grid := func() [][]taskrt.Dep {
		g := make([][]taskrt.Dep, L)
		for l := range g {
			g[l] = make([]taskrt.Dep, T)
			for t := range g[l] {
				g[l][t] = newToken()
			}
		}
		return g
	}

	w.kX = make([]taskrt.Dep, T)
	w.kX32 = make([]taskrt.Dep, T)
	for t := range w.kX {
		w.kX[t] = newToken()
		w.kX32[t] = newToken()
	}
	w.kFwdSt, w.kRevSt = grid(), grid()
	w.kPreFwd, w.kPreRev = grid(), grid()
	w.kDGatesFwd, w.kDGatesRev = grid(), grid()
	w.kMerged, w.kDMerged = grid(), grid()
	w.kDHMergeFwd, w.kDHMergeRev = grid(), grid()
	w.kDHChainFwd, w.kDCChainFwd = grid(), grid()
	w.kDHChainRev, w.kDCChainRev = grid(), grid()
	w.kFinalMerged, w.kDFinalMerged = newToken(), newToken()
	w.kDFinalHFwd, w.kDFinalHRev = newToken(), newToken()
	specs := cfg.HeadSpecs()
	nSlots := cfg.HeadSlots(T)
	w.kHeadGrads = make([]taskrt.Dep, len(specs))
	for i := range w.kHeadGrads {
		w.kHeadGrads[i] = newToken()
	}
	w.kProbs = make([]taskrt.Dep, nSlots)
	for i := range w.kProbs {
		w.kProbs[i] = newToken()
	}
	w.kGradsFwd = make([]taskrt.Dep, L)
	w.kGradsRev = make([]taskrt.Dep, L)
	for l := 0; l < L; l++ {
		w.kGradsFwd[l] = newToken()
		w.kGradsRev[l] = newToken()
	}
	w.losses = make([]float64, nSlots)
	if phantom {
		return w
	}

	// Real buffers.
	w.fwdSt = make([][]*cellSt, L)
	w.revSt = make([][]*cellSt, L)
	w.merged = make([][]*tensor.Matrix, L)
	w.dMerged = make([][]*tensor.Matrix, L)
	w.dHMergeFwd = make([][]*tensor.Matrix, L)
	w.dHMergeRev = make([][]*tensor.Matrix, L)
	w.dHChainFwd = make([][]*tensor.Matrix, L)
	w.dCChainFwd = make([][]*tensor.Matrix, L)
	w.dHChainRev = make([][]*tensor.Matrix, L)
	w.dCChainRev = make([][]*tensor.Matrix, L)
	for l := 0; l < L; l++ {
		w.fwdSt[l] = make([]*cellSt, T)
		w.revSt[l] = make([]*cellSt, T)
		for t := 0; t < T; t++ {
			w.fwdSt[l][t] = m.fwd[l].newState(rows)
			w.revSt[l][t] = m.rev[l].newState(rows)
		}
		if cfg.hasMergePerTimestep(l) {
			w.merged[l] = make([]*tensor.Matrix, T)
			w.dMerged[l] = make([]*tensor.Matrix, T)
			for t := 0; t < T; t++ {
				w.merged[l][t] = tensor.New(rows, D)
				w.dMerged[l][t] = tensor.New(rows, D)
			}
		}
		w.dHMergeFwd[l] = matRow(T, rows, H)
		w.dHMergeRev[l] = matRow(T, rows, H)
		w.dHChainFwd[l] = matRow(T, rows, H)
		w.dCChainFwd[l] = matRow(T, rows, H)
		w.dHChainRev[l] = matRow(T, rows, H)
		w.dCChainRev[l] = matRow(T, rows, H)
	}
	if cfg.anyClassify() {
		w.finalMerged = tensor.New(rows, D)
		w.dFinalMerged = tensor.New(rows, D)
		w.dFinalHFwd = tensor.New(rows, H)
		w.dFinalHRev = tensor.New(rows, H)
		w.gatherH = tensor.New(rows, H)
		w.gatherIdx = make([]int, rows)
		w.lastHFwd = make([]*tensor.Matrix, T)
		for t := 0; t < T; t++ {
			w.lastHFwd[t] = w.fwdSt[L-1][t].H()
		}
	}
	w.logits = make([]*tensor.Matrix, nSlots)
	w.probs = make([]*tensor.Matrix, nSlots)
	for h, spec := range specs {
		lo, n := cfg.HeadSlotRange(h, T)
		for s := lo; s < lo+n; s++ {
			w.logits[s] = tensor.New(rows, spec.Classes)
			w.probs[s] = tensor.New(rows, spec.Classes)
		}
	}

	w.dXScratchFwd = make([]*tensor.Matrix, L)
	w.dXScratchRev = make([]*tensor.Matrix, L)
	w.dHSumFwd = matRow(L, rows, H)
	w.dHSumRev = matRow(L, rows, H)
	w.dHSinkFwd = matRow(L, rows, H)
	w.dCSinkFwd = matRow(L, rows, H)
	w.dHSinkRev = matRow(L, rows, H)
	w.dCSinkRev = matRow(L, rows, H)
	for l := 0; l < L; l++ {
		in := cfg.LayerInputSize(l)
		w.dXScratchFwd[l] = tensor.New(rows, in)
		w.dXScratchRev[l] = tensor.New(rows, in)
	}
	w.zeroH = tensor.New(rows, H)
	w.zeroC = tensor.New(rows, H)

	w.gradsFwd = make([]*dirGrads, L)
	w.gradsRev = make([]*dirGrads, L)
	for l := 0; l < L; l++ {
		w.gradsFwd[l] = m.fwd[l].newGrads()
		w.gradsRev[l] = m.rev[l].newGrads()
	}
	w.headGrads = make([]*headGrads, len(specs))
	w.dLogits = make([]*tensor.Matrix, len(specs))
	for h, spec := range specs {
		w.headGrads[h] = &headGrads{DW: tensor.New(spec.Classes, D), DB: make([]float64, spec.Classes)}
		w.dLogits[h] = tensor.New(rows, spec.Classes)
	}
	for _, spec := range specs {
		if spec.Kind == HeadGenerate {
			w.genTargets = make([][]int, T)
			w.ignoreRow = make([]int, rows)
			for i := range w.ignoreRow {
				w.ignoreRow[i] = tensor.IgnoreLabel
			}
			break
		}
	}

	if split {
		w.preFwd = make([][]*tensor.Matrix, L)
		w.preRev = make([][]*tensor.Matrix, L)
		w.dGatesFwd = make([][]*tensor.Matrix, L)
		w.dGatesRev = make([][]*tensor.Matrix, L)
		w.dwFwd = make([]*cell.DWScratch, L)
		w.dwRev = make([]*cell.DWScratch, L)
		K := T * rows
		for l := 0; l < L; l++ {
			inF, gwF := m.fwd[l].dims()
			inR, gwR := m.rev[l].dims()
			w.preFwd[l] = matRow(T, rows, gwF)
			w.dGatesFwd[l] = matRow(T, rows, gwF)
			w.preRev[l] = matRow(T, rows, gwR)
			w.dGatesRev[l] = matRow(T, rows, gwR)
			w.dwFwd[l] = cell.NewDWScratch(K, gwF, inF, H)
			w.dwRev[l] = cell.NewDWScratch(K, gwR, inR, H)
		}
	}
	if f32 {
		w.f32 = newF32Space(m, rows, T, split)
	}
	return w
}

// newF32Space allocates the float32 forward-only mirror buffers.
func newF32Space(m *Model, rows, T int, split bool) *f32Space {
	cfg := m.Cfg
	L := cfg.Layers
	H := cfg.HiddenSize
	D := cfg.MergeDim()
	s := &f32Space{}
	s.x = matRow32(T, rows, cfg.InputSize)
	s.fwdSt = make([][]*cellSt32, L)
	s.revSt = make([][]*cellSt32, L)
	s.merged = make([][]*tensor.Mat[float32], L)
	for l := 0; l < L; l++ {
		s.fwdSt[l] = make([]*cellSt32, T)
		s.revSt[l] = make([]*cellSt32, T)
		for t := 0; t < T; t++ {
			s.fwdSt[l][t] = m.fwd[l].newState32(rows)
			s.revSt[l][t] = m.rev[l].newState32(rows)
		}
		if cfg.hasMergePerTimestep(l) {
			s.merged[l] = matRow32(T, rows, D)
		}
	}
	if cfg.anyClassify() {
		s.finalMerged = tensor.NewOf[float32](rows, D)
		s.gatherH = tensor.NewOf[float32](rows, H)
		s.lastHFwd = make([]*tensor.Mat[float32], T)
		for t := 0; t < T; t++ {
			s.lastHFwd[t] = s.fwdSt[L-1][t].H()
		}
	}
	specs := cfg.HeadSpecs()
	nSlots := cfg.HeadSlots(T)
	s.logits = make([]*tensor.Mat[float32], nSlots)
	s.probs = make([]*tensor.Mat[float32], nSlots)
	for h, spec := range specs {
		lo, n := cfg.HeadSlotRange(h, T)
		for sl := lo; sl < lo+n; sl++ {
			s.logits[sl] = tensor.NewOf[float32](rows, spec.Classes)
			s.probs[sl] = tensor.NewOf[float32](rows, spec.Classes)
		}
	}
	s.zeroH = tensor.NewOf[float32](rows, H)
	s.zeroC = tensor.NewOf[float32](rows, H)
	if split {
		s.preFwd = make([][]*tensor.Mat[float32], L)
		s.preRev = make([][]*tensor.Mat[float32], L)
		for l := 0; l < L; l++ {
			_, gwF := m.fwd[l].dims()
			_, gwR := m.rev[l].dims()
			s.preFwd[l] = matRow32(T, rows, gwF)
			s.preRev[l] = matRow32(T, rows, gwR)
		}
	}
	return s
}

func matRow(n, rows, cols int) []*tensor.Matrix {
	out := make([]*tensor.Matrix, n)
	for i := range out {
		out[i] = tensor.New(rows, cols)
	}
	return out
}

func matRow32(n, rows, cols int) []*tensor.Mat[float32] {
	out := make([]*tensor.Mat[float32], n)
	for i := range out {
		out[i] = tensor.NewOf[float32](rows, cols)
	}
	return out
}

// bindStep points the workspace's per-step binding at mb's views. It must
// run before emitting or replaying any non-phantom graph over this workspace.
func (w *workspace) bindStep(mb *Batch) {
	w.bind.x = mb.X
	w.bind.targets = mb.Targets
	w.bind.stepTargets = mb.StepTargets
	w.bind.lens = mb.Lens
	w.bind.genTargets = nil
	if w.genTargets != nil && mb.StepTargets != nil {
		for t := 0; t < w.T-1; t++ {
			w.genTargets[t] = mb.StepTargets[t+1]
		}
		w.genTargets[w.T-1] = w.ignoreRow
		w.bind.genTargets = w.genTargets
	}
}

// input returns the matrix feeding layer l at timestep t: the bound batch
// view for layer 0, the merge output of the layer below otherwise. Task
// bodies call it at run time so replayed closures see the current binding.
func (w *workspace) input(l, t int) *tensor.Matrix {
	if l == 0 {
		return w.bind.x[t]
	}
	return w.merged[l-1][t]
}

// inputF32 is input for the float32 mirror. Layer 0 reads the converted
// input panel (written by the conv task of timestep t) instead of the bound
// batch view.
func (w *workspace) inputF32(l, t int) *tensor.Mat[float32] {
	if l == 0 {
		return w.f32.x[t]
	}
	return w.f32.merged[l-1][t]
}

// stepTargetsAt returns the bound many-to-many labels of timestep t, nil
// when the current batch is unlabeled.
func (w *workspace) stepTargetsAt(t int) []int {
	if w.bind.stepTargets == nil {
		return nil
	}
	return w.bind.stepTargets[t]
}

// headTargetsAt returns the labels a per-frame head of the given kind trains
// on at timestep t: the bound step targets for tagging, the shifted stream
// for generation; nil when the current batch is unlabeled.
func (w *workspace) headTargetsAt(kind HeadKind, t int) []int {
	if kind == HeadGenerate {
		if w.bind.genTargets == nil {
			return nil
		}
		return w.bind.genTargets[t]
	}
	return w.stepTargetsAt(t)
}

// maskRevState zeroes the rows of reverse state (l,t) for which timestep t
// is padding under the current lens binding (no-op with no lens bound), so
// the next reverse cell's hPrev/cPrev restart each short row's chain from
// the zero boundary state.
func (w *workspace) maskRevState(l, t int) {
	tensor.MaskRowsZero(w.revSt[l][t].H(), w.bind.lens, t)
	tensor.MaskRowsZero(w.revSt[l][t].C(), w.bind.lens, t)
}

// maskRevState32 is maskRevState for the float32 mirror.
func (w *workspace) maskRevState32(l, t int) {
	tensor.MaskRowsZero(w.f32.revSt[l][t].H(), w.bind.lens, t)
	tensor.MaskRowsZero(w.f32.revSt[l][t].C(), w.bind.lens, t)
}

// gatherLastHFwd assembles the forward direction's sequence-final hidden
// state under the current lens binding into gatherH and returns it; with no
// lens bound it returns the T-1 state directly (the full-length fast path).
func (w *workspace) gatherLastHFwd() *tensor.Matrix {
	if w.bind.lens == nil {
		return w.lastHFwd[w.T-1]
	}
	for i, n := range w.bind.lens {
		w.gatherIdx[i] = n - 1
	}
	tensor.GatherRows(w.gatherH, w.lastHFwd, w.gatherIdx)
	return w.gatherH
}

// gatherLastHFwd32 is gatherLastHFwd for the float32 mirror.
func (w *workspace) gatherLastHFwd32() *tensor.Mat[float32] {
	if w.bind.lens == nil {
		return w.f32.lastHFwd[w.T-1]
	}
	for i, n := range w.bind.lens {
		w.gatherIdx[i] = n - 1
	}
	tensor.GatherRows(w.f32.gatherH, w.f32.lastHFwd, w.gatherIdx)
	return w.f32.gatherH
}

// resetForStep zeroes the buffers that accumulate across tasks within one
// training step: dMerged and dFinalMerged (summed into by cell-backward and
// head-backward tasks) and the per-mini-batch gradients. Chain and merge-grad
// buffers at graph boundaries stay zero by construction.
func (w *workspace) resetForStep() {
	if w.phantom {
		return
	}
	for l := range w.dMerged {
		for _, m := range w.dMerged[l] {
			if m != nil {
				m.Zero()
			}
		}
	}
	if w.dFinalMerged != nil {
		w.dFinalMerged.Zero()
	}
	for l := range w.gradsFwd {
		w.gradsFwd[l].zero()
		w.gradsRev[l].zero()
	}
	for _, g := range w.headGrads {
		g.zero()
	}
	for i := range w.losses {
		w.losses[i] = 0
	}
}

// workingSetBytes estimates the resident bytes of all live activation and
// gradient buffers of this workspace — the quantity the paper's memory
// study reports (75.36 MB without per-layer sync vs 28.26 MB with, for an
// 8-layer BLSTM at mbs:6). The split-gate preload/gradient panels are
// deliberately excluded so the fused-vs-split memory comparison (and the
// phantom analytic formula) measure the same activation footprint.
func (w *workspace) workingSetBytes() int64 {
	if w.phantom {
		return w.phantomWorkingSetBytes()
	}
	var total int64
	add := func(m *tensor.Matrix) {
		if m != nil {
			total += int64(len(m.Data)) * 8
		}
	}
	for l := range w.fwdSt {
		for t := range w.fwdSt[l] {
			total += w.fwdSt[l][t].workingSetBytes()
			total += w.revSt[l][t].workingSetBytes()
		}
		for _, grid := range [][]*tensor.Matrix{
			w.merged[l], w.dMerged[l], w.dHMergeFwd[l], w.dHMergeRev[l],
			w.dHChainFwd[l], w.dCChainFwd[l], w.dHChainRev[l], w.dCChainRev[l],
		} {
			for _, m := range grid {
				add(m)
			}
		}
	}
	add(w.finalMerged)
	add(w.dFinalMerged)
	for i := range w.logits {
		add(w.logits[i])
		add(w.probs[i])
	}
	return total
}

// phantomWorkingSetBytes computes the same estimate analytically.
func (w *workspace) phantomWorkingSetBytes() int64 {
	cfg := w.cfg
	var total int64
	gates := int64(cfg.gatesPerCell())
	H := int64(cfg.HiddenSize)
	D := int64(cfg.MergeDim())
	rows := int64(w.rows)
	T := int64(w.T)
	for l := 0; l < cfg.Layers; l++ {
		in := int64(cfg.LayerInputSize(l))
		var perState int64
		if cfg.Cell == LSTM {
			perState = rows*(in+H) + rows*gates*H + 3*rows*H
		} else {
			perState = 2*rows*(in+H) + rows*2*H + 2*rows*H
		}
		total += 2 * T * perState * 8
		if cfg.hasMergePerTimestep(l) {
			total += 2 * T * rows * D * 8 // merged + dMerged
		}
		total += 6 * T * rows * H * 8 // merge-grad and chain buffers
	}
	if cfg.anyClassify() {
		total += 2 * rows * D * 8
	}
	for _, spec := range cfg.HeadSpecs() {
		slots := int64(1)
		if spec.Kind.PerFrame() {
			slots = T
		}
		total += 2 * slots * rows * int64(spec.Classes) * 8
	}
	return total
}
