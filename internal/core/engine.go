package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bpar/internal/cell"
	"bpar/internal/obs"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// ErrEngineBusy is returned when TrainStep, Infer, or InferProbs is called
// while another step is still executing on the same engine. Engine is
// single-threaded by design — the per-step workspaces are shared mutable
// state — so concurrent callers must use one engine each (see
// internal/serve's engine pool).
var ErrEngineBusy = errors.New("core: engine already executing a step (Engine is single-threaded; use one engine per goroutine)")

// Batch is one training or inference batch: per-timestep input matrices and
// the labels appropriate to the architecture.
type Batch struct {
	// X has one [Batch x InputSize] matrix per timestep.
	X []*tensor.Matrix
	// Targets holds the per-sequence class labels (many-to-one).
	Targets []int
	// StepTargets holds per-timestep class labels (many-to-many),
	// indexed [timestep][sequence].
	StepTargets [][]int
	// Real is the number of leading rows that carry real sequences; rows
	// [Real, Batch) are padding added to fill a partial batch (the serving
	// path pads micro-batches up to Cfg.Batch). Zero means every row is
	// real; negative means every row is padding (a value mini-batch slicing
	// produces when a partial batch's real rows all land in earlier slices).
	// Padding rows are still computed — row independence of the forward pass
	// makes them numerically inert — but throughput metrics count only real
	// rows.
	Real int

	// Lens, when non-nil, gives each row's true sequence length (1 ≤
	// Lens[i] ≤ SeqLen): row i's timesteps [Lens[i], SeqLen) are padding.
	// The engine masks the reverse direction's state at padded steps and
	// gathers each row's forward output at its own boundary, so a masked
	// row trains and infers bitwise-equal (under ==) to running it at its
	// true length. Per-frame labels beyond a row's length must be
	// tensor.IgnoreLabel. Nil means every row spans the full SeqLen.
	Lens []int
}

// SeqLen returns the batch's sequence length.
func (b *Batch) SeqLen() int { return len(b.X) }

// realRows returns the number of non-padding rows given the configured
// batch size.
func (b *Batch) realRows(batch int) int {
	switch {
	case b.Real > 0:
		return b.Real
	case b.Real < 0:
		return 0
	default:
		return batch
	}
}

// Engine drives B-Par execution of one model on one executor: it emits the
// forward and backward task graphs for each batch, waits for dataflow
// completion, and applies the optimizer. It owns the per-mini-batch
// workspaces (the mbs:N data parallelism of the paper).
type Engine struct {
	M    *Model
	Exec taskrt.Executor

	// GradClip, when positive, clamps each normalized gradient element to
	// [-GradClip, GradClip] before the SGD update.
	GradClip float64

	// Momentum, when positive, enables classical momentum SGD:
	// v = Momentum*v + g; w -= lr*v. The paper cites momentum methods
	// (MomentumRNN) as directly composable with B-Par — the optimizer step
	// is outside the task graph, so nothing else changes.
	Momentum float64

	// Adam, when non-nil, selects the Adam optimizer (overrides Momentum).
	Adam *AdamOpts

	// WeightDecay, when positive, applies decoupled L2 regularization
	// before each update: w *= (1 - lr*WeightDecay).
	WeightDecay float64

	// FusedGates, when true, emits the legacy fused-gate cell tasks (one
	// task computes Gates = [X_t, H_{t-1}]*W^T + B in full). The default
	// (false) uses the split-gate decomposition: batched off-critical-path
	// input-projection tasks compute Pre_t = X_t*Wx^T + B, the recurrence
	// chain only adds H_{t-1}*Wh^T, and backward defers dWx to one batched
	// task per layer and direction. Both modes are bitwise deterministic
	// across worker counts and schedule policies, but they order the gate
	// summation differently, so they agree only to rounding (~1e-9), not
	// bitwise. Set before the first step; workspaces are built per mode.
	// Phantom engines default to fused so recorded graph shapes stay stable.
	FusedGates bool

	// MaxCachedSeqLens bounds how many distinct sequence lengths keep live
	// workspaces in the cache (LRU eviction). Zero means the default of 8;
	// negative means unbounded. Variable-length serving workloads would
	// otherwise accumulate one workspace set per length seen.
	MaxCachedSeqLens int

	// NoReplay disables graph capture & replay: every step re-emits the task
	// graph through the executor's dependency table. Replay is the default
	// whenever the executor can replay a frozen template (taskrt.Replayer);
	// fresh emission remains both the fallback for executors without the
	// capability and the equivalence oracle replay is tested against.
	NoReplay bool

	// InferDType selects the numeric representation of forward-only steps
	// (Infer/InferProbs): tensor.F64 (zero value, the default) runs the
	// float64 graph; tensor.F32 runs a float32 mirror of the model — weights
	// converted once per weight version, activations in float32 throughout,
	// and (split mode) packed weight panels. Training is always float64.
	// Set before the first step, like FusedGates; phantom engines ignore it.
	InferDType tensor.DType

	// NoReduceGraph freezes captured templates with the full derived edge
	// set instead of the transitive reduction taskrt applies by default.
	// The two freezes replay identically (the reduction preserves the
	// dependency closure); the flag exists for edge-set A/B benchmarks and
	// graph diffing. Set before the first step, like FusedGates.
	NoReduceGraph bool

	phantom bool
	// inStep guards against concurrent TrainStep/Infer/InferProbs calls: a
	// CAS taken at step entry, released on every exit path. Mirrors the
	// replay `live` guard in taskrt.Template, but returns ErrEngineBusy
	// instead of panicking — concurrent use is an expected caller error on
	// the serving path, not runtime corruption.
	inStep atomic.Bool
	// tplHitN/tplMissN count template-cache lookups independently of obs so
	// serving code can compute hit rates without a registry.
	tplHitN, tplMissN atomic.Int64
	wsByT             map[int][]*workspace
	wsLRU             []int // cached sequence lengths, most recently used first
	// tpls caches one frozen task graph per (step kind, sequence length).
	// Template closures reference the workspaces of their T, so the two
	// caches live and die together: evicting a T's workspaces evicts its
	// templates in the same breath.
	tpls map[tplKey]*taskrt.Template
	vel  *velocity
	adam *adamState
	obs  *engineObs // live metrics; nil unless EnableObs was called

	// Derived weight caches, each keyed on the model's weight version: the
	// packed float64 recurrent panels every split-path chain task reads, and
	// the float32 weight mirror (InferDType == F32). Built host-side by
	// refreshWeightCaches at the entry of a step that reads them, before
	// the step emits or captures its graph, and refreshed in place, so
	// emitters capture their pointers; task bodies only read them.
	pack64  map[*dirParams]*cell.PackSet[float64]
	fm32    map[*dirParams]*dirF32
	head32W []*tensor.Mat[float32] // one mirror per head
	head32B [][]float32
	packVer cache
	f32Ver  cache

	// lastHeadLosses caches the per-head mean losses of the most recent
	// labeled step; read through HeadLosses.
	lastHeadLosses []float64
}

// tplKey identifies one cached step template: training (forward + backward +
// reduce) or forward-only, at one sequence length.
type tplKey struct {
	train bool
	T     int
}

// defaultMaxCachedSeqLens is the workspace-cache bound when
// MaxCachedSeqLens is left zero.
const defaultMaxCachedSeqLens = 8

// NewEngine creates an engine executing real numeric tasks.
func NewEngine(m *Model, exec taskrt.Executor) *Engine {
	e := &Engine{M: m, Exec: exec, wsByT: make(map[int][]*workspace), tpls: make(map[tplKey]*taskrt.Template)}
	if dc := e.depChecker(); dc != nil {
		installDepCheckHook(dc)
	}
	return e
}

// NewPhantomEngine creates an engine that emits dependency-and-metadata-only
// task graphs (no numeric buffers, no task bodies); used with
// taskrt.Recorder to capture graphs for the discrete-event simulator.
func NewPhantomEngine(m *Model, exec taskrt.Executor) *Engine {
	return &Engine{M: m, Exec: exec, phantom: true, FusedGates: true, wsByT: make(map[int][]*workspace), tpls: make(map[tplKey]*taskrt.Template)}
}

// workspaces returns (building if needed) the per-mini-batch workspaces for
// sequence length T. B-Par adjusts the computation graph dynamically when
// the sequence length changes between batches. The cache holds at most
// MaxCachedSeqLens distinct lengths; the least recently used is evicted.
func (e *Engine) workspaces(T int) []*workspace {
	if ws, ok := e.wsByT[T]; ok {
		if e.obs != nil {
			e.obs.cacheHits.Inc()
		}
		e.touchSeqLen(T)
		return ws
	}
	if e.obs != nil {
		e.obs.cacheMisses.Inc()
	}
	cfg := e.M.Cfg
	n := cfg.MiniBatches
	ws := make([]*workspace, n)
	base := cfg.Batch / n
	rem := cfg.Batch % n
	for i := 0; i < n; i++ {
		rows := base
		if i < rem {
			rows++
		}
		ws[i] = newWorkspace(e.M, rows, T, e.phantom, !e.FusedGates, e.isF32())
	}
	if dc := e.depChecker(); dc != nil {
		for i, w := range ws {
			w.registerDeps(dc, i)
		}
	}
	e.wsByT[T] = ws
	e.touchSeqLen(T)
	if bound := e.wsCacheBound(); bound > 0 {
		for len(e.wsLRU) > bound {
			victim := e.wsLRU[len(e.wsLRU)-1]
			e.wsLRU = e.wsLRU[:len(e.wsLRU)-1]
			delete(e.wsByT, victim)
			// Captured templates close over the victim's workspace buffers;
			// they must not outlive them.
			delete(e.tpls, tplKey{train: true, T: victim})
			delete(e.tpls, tplKey{train: false, T: victim})
			if e.obs != nil {
				e.obs.cacheEvicts.Inc()
			}
			obs.Logger("core").Debug("workspace evicted", "seq_len", victim, "cached", len(e.wsLRU))
		}
	}
	obs.Logger("core").Debug("workspaces built", "seq_len", T, "mini_batches", n)
	return ws
}

func (e *Engine) wsCacheBound() int {
	switch {
	case e.MaxCachedSeqLens > 0:
		return e.MaxCachedSeqLens
	case e.MaxCachedSeqLens < 0:
		return 0 // unbounded
	default:
		return defaultMaxCachedSeqLens
	}
}

// touchSeqLen moves T to the most-recently-used slot of the LRU list.
func (e *Engine) touchSeqLen(T int) {
	for i, v := range e.wsLRU {
		if v == T {
			copy(e.wsLRU[1:i+1], e.wsLRU[:i])
			e.wsLRU[0] = T
			return
		}
	}
	e.wsLRU = append([]int{T}, e.wsLRU...)
}

// isF32 reports whether forward-only steps run the float32 mirror graph.
func (e *Engine) isF32() bool {
	return e.InferDType == tensor.F32 && !e.phantom
}

// cache records the weight version a derived weight cache was built at.
type cache struct {
	ver   uint64
	valid bool
}

// stale reports whether a cache built at c must be rebuilt for model m, and
// marks it current.
func (c *cache) stale(m *Model) bool {
	ver := m.weightVersion()
	if c.valid && m.mut != nil && ver == c.ver {
		return false
	}
	c.ver, c.valid = ver, true
	return true
}

// refreshWeightCaches rebuilds the derived weight caches a step reads when
// the model's weight version has moved since they were last built: the
// float32 mirror for an f32 step, the packed float64 recurrent panels for
// any other split-path step. Runs host-side at step entry; the refreshed
// buffers are updated in place so pointers captured by replay templates stay
// valid.
func (e *Engine) refreshWeightCaches(f32 bool) {
	switch {
	case e.phantom:
	case f32:
		if e.f32Ver.stale(e.M) {
			e.refreshF32()
		}
	case !e.FusedGates:
		if e.packVer.stale(e.M) {
			e.refreshPanels()
		}
	}
}

// refreshPanels repacks (or first packs) every direction's recurrent
// window: the one packed copy the float64 split path holds.
func (e *Engine) refreshPanels() {
	for l := range e.M.fwd {
		for _, p := range []*dirParams{e.M.fwd[l], e.M.rev[l]} {
			if ps, ok := e.pack64[p]; ok {
				ps.Repack()
				continue
			}
			if e.pack64 == nil {
				e.pack64 = make(map[*dirParams]*cell.PackSet[float64])
			}
			e.pack64[p] = p.packRecurrent()
		}
	}
}

// refreshF32 reconverts (or first converts) the float32 weight mirror.
func (e *Engine) refreshF32() {
	split := !e.FusedGates
	for l := range e.M.fwd {
		for _, p := range []*dirParams{e.M.fwd[l], e.M.rev[l]} {
			if d, ok := e.fm32[p]; ok {
				d.refresh(p)
				continue
			}
			if e.fm32 == nil {
				e.fm32 = make(map[*dirParams]*dirF32)
			}
			e.fm32[p] = newDirF32(p, split)
		}
	}
	if e.head32W == nil {
		for h := range e.M.Heads {
			e.head32W = append(e.head32W, tensor.NewOf[float32](e.M.Heads[h].W.Rows, e.M.Heads[h].W.Cols))
			e.head32B = append(e.head32B, make([]float32, len(e.M.Heads[h].B)))
		}
	}
	for h := range e.M.Heads {
		tensor.ConvertInto(e.head32W[h], e.M.Heads[h].W)
		tensor.ConvertSlice(e.head32B[h], e.M.Heads[h].B)
	}
}

// mbBounds returns the row range of mini-batch i.
func (e *Engine) mbBounds(i int) (lo, hi int) {
	cfg := e.M.Cfg
	n := cfg.MiniBatches
	base := cfg.Batch / n
	rem := cfg.Batch % n
	for j := 0; j < i; j++ {
		lo += base
		if j < rem {
			lo++
		}
	}
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// beginStep acquires the single-caller step guard; endStep releases it.
func (e *Engine) beginStep() error {
	if !e.inStep.CompareAndSwap(false, true) {
		return ErrEngineBusy
	}
	return nil
}

func (e *Engine) endStep() { e.inStep.Store(false) }

// hasLabels reports whether b carries the labels the configured heads train
// against — the condition under which a step's loss is meaningful.
func (e *Engine) hasLabels(b *Batch) bool {
	cfg := e.M.Cfg
	if cfg.anyClassify() && b.Targets == nil {
		return false
	}
	if cfg.anyPerFrame() && b.StepTargets == nil {
		return false
	}
	return true
}

func (e *Engine) checkBatch(b *Batch, needTargets bool) error {
	cfg := e.M.Cfg
	if len(b.X) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	if b.Real > cfg.Batch {
		return fmt.Errorf("core: Real = %d out of range [0, %d]", b.Real, cfg.Batch)
	}
	for t, x := range b.X {
		if x.Rows != cfg.Batch || x.Cols != cfg.InputSize {
			return fmt.Errorf("core: X[%d] is %dx%d, want %dx%d", t, x.Rows, x.Cols, cfg.Batch, cfg.InputSize)
		}
	}
	if b.Lens != nil {
		if len(b.Lens) != cfg.Batch {
			return fmt.Errorf("core: got %d lens, want %d", len(b.Lens), cfg.Batch)
		}
		for i, n := range b.Lens {
			if n < 1 || n > len(b.X) {
				return fmt.Errorf("core: Lens[%d] = %d out of range [1, %d]", i, n, len(b.X))
			}
		}
	}
	if cfg.anyClassify() && (b.Targets != nil || needTargets) {
		if len(b.Targets) != cfg.Batch {
			return fmt.Errorf("core: got %d targets, want %d", len(b.Targets), cfg.Batch)
		}
	}
	if cfg.anyPerFrame() && (b.StepTargets != nil || needTargets) {
		if len(b.StepTargets) != len(b.X) {
			return fmt.Errorf("core: got %d step-target rows, want %d", len(b.StepTargets), len(b.X))
		}
		for t := range b.StepTargets {
			if len(b.StepTargets[t]) != cfg.Batch {
				return fmt.Errorf("core: StepTargets[%d] has %d labels, want %d", t, len(b.StepTargets[t]), cfg.Batch)
			}
		}
	}
	return nil
}

// lossScale is the normalizer turning summed per-row losses/gradients into
// means: batch size, times sequence length when any head is per-frame — or,
// for a masked variable-length batch, the total count of real frames, so a
// uniformly short masked batch scales identically to the same batch run at
// its true length.
func (e *Engine) lossScale(b *Batch) float64 { return e.M.Cfg.lossScale(b) }

func (cfg Config) lossScale(b *Batch) float64 {
	s := float64(cfg.Batch)
	if cfg.anyPerFrame() {
		if b.Lens != nil {
			s = 0
			for _, n := range b.Lens {
				s += float64(min(n, b.SeqLen()))
			}
		} else {
			s *= float64(b.SeqLen())
		}
	}
	return s
}

// TrainStep runs one full training step — forward propagation, backward
// propagation, mini-batch gradient reduction, all as one barrier-free task
// graph — then applies an SGD update. It returns the mean batch loss.
func (e *Engine) TrainStep(b *Batch, lr float64) (float64, error) {
	if e.phantom {
		return 0, fmt.Errorf("core: TrainStep on a phantom engine; use EmitTrainGraph")
	}
	if err := e.checkBatch(b, true); err != nil {
		return 0, err
	}
	if err := e.beginStep(); err != nil {
		return 0, err
	}
	defer e.endStep()
	stepStart := time.Now()
	T := b.SeqLen()
	wss := e.workspaces(T)
	e.refreshWeightCaches(false)
	dc := e.bindWorkspaces(wss, b)
	if rp := e.replayer(); rp != nil {
		rp.Replay(e.template(true, T))
	} else {
		for i, ws := range wss {
			e.emitForward(ws, i, true, false)
			e.emitBackward(ws, i)
		}
		e.emitReduce(wss)
	}
	if err := e.Exec.Wait(); err != nil {
		return 0, err
	}

	scale := e.lossScale(b)
	loss := 0.0
	for _, ws := range wss {
		loss += ws.sumLosses()
	}
	loss /= scale
	e.recordHeadLosses(wss, T, scale)

	e.applySGD(wss[0], lr, scale)
	e.finishStep(dc)
	e.recordStep(stepStart, loss, false, true, b.realRows(e.M.Cfg.Batch))
	return loss, nil
}

// bindWorkspaces prepares every workspace for one step over batch b: reset
// the step accumulators, bind the per-step batch views, and (under depcheck)
// register this step's input matrices. Returns the sanitizer for finishStep.
func (e *Engine) bindWorkspaces(wss []*workspace, b *Batch) *taskrt.DepChecker {
	dc := e.depChecker()
	for i, ws := range wss {
		ws.resetForStep()
		lo, hi := e.mbBounds(i)
		mb := e.sliceBatch(b, lo, hi)
		ws.bindStep(mb)
		if dc != nil {
			e.registerStepInputs(dc, ws, mb, i)
		}
	}
	return dc
}

// replayer returns the executor's replay capability when graph replay is in
// effect for this engine, nil when fresh emission should run instead
// (phantom engines, NoReplay, or executors without the capability).
func (e *Engine) replayer() taskrt.Replayer {
	if e.phantom || e.NoReplay {
		return nil
	}
	rp, _ := e.Exec.(taskrt.Replayer)
	return rp
}

// template returns (capturing on a miss) the frozen task graph of one step
// kind at sequence length T. Capture swaps the engine's executor for a
// taskrt.Capture, runs the ordinary emitters once, and freezes the recorded
// sequence; because the emitters' closures read only stable workspace
// buffers and the step binding, the resulting template stays valid for every
// later batch of the same shape, for exactly as long as T's workspaces live.
func (e *Engine) template(train bool, T int) *taskrt.Template {
	key := tplKey{train: train, T: T}
	if tpl, ok := e.tpls[key]; ok {
		e.tplHitN.Add(1)
		if e.obs != nil {
			e.obs.tplHits.Inc()
		}
		return tpl
	}
	e.tplMissN.Add(1)
	if e.obs != nil {
		e.obs.tplMisses.Inc()
	}
	start := time.Now()
	wss := e.wsByT[T]
	rec := taskrt.NewCapture()
	rec.NoReduce = e.NoReduceGraph
	saved := e.Exec
	e.Exec = rec
	f32 := !train && e.isF32()
	func() {
		defer func() { e.Exec = saved }()
		for i, ws := range wss {
			e.emitForward(ws, i, true, f32)
			if train {
				e.emitBackward(ws, i)
			}
		}
		if train {
			e.emitReduce(wss)
		}
	}()
	tpl := rec.Freeze()
	if train {
		tpl.Name = fmt.Sprintf("train T=%d", T)
	} else {
		tpl.Name = fmt.Sprintf("infer T=%d", T)
	}
	e.tpls[key] = tpl
	if e.obs != nil {
		e.obs.tplCaptureNS.Add(time.Since(start).Nanoseconds())
	}
	obs.Logger("core").Debug("task graph captured",
		"train", train, "seq_len", T, "tasks", tpl.Len(), "edges", tpl.Edges())
	return tpl
}

// finishStep performs the between-steps dependency hygiene of the path just
// taken. Fresh emission populated the executor's dependency table, so it is
// cleared (along with the sanitizer's shadow state). Replay never touched
// the table: only the sanitizer's per-step buffer registrations are dropped,
// and no ResetDeps churn happens at all.
func (e *Engine) finishStep(dc *taskrt.DepChecker) {
	if e.replayer() == nil {
		e.maybeResetDeps()
		return
	}
	if dc != nil {
		dc.ResetStepOwners()
	}
}

// Infer runs forward propagation only and returns, per output slot, the
// predicted class of every sequence, plus the mean loss when labels are
// present. Slots are laid out head-major (Config.HeadSlotRange): a
// classification head owns one slot, a per-frame head one per timestep — so
// a legacy many-to-one model returns one row and a legacy many-to-many model
// one row per timestep, exactly as before.
func (e *Engine) Infer(b *Batch) ([][]int, float64, error) {
	if e.phantom {
		return nil, 0, fmt.Errorf("core: Infer on a phantom engine; use EmitInferGraph")
	}
	if err := e.checkBatch(b, false); err != nil {
		return nil, 0, err
	}
	if err := e.beginStep(); err != nil {
		return nil, 0, err
	}
	defer e.endStep()
	stepStart := time.Now()
	T := b.SeqLen()
	wss := e.workspaces(T)
	f32 := e.isF32()
	e.refreshWeightCaches(f32)
	dc := e.bindWorkspaces(wss, b)
	if rp := e.replayer(); rp != nil {
		rp.Replay(e.template(false, T))
	} else {
		for i, ws := range wss {
			e.emitForward(ws, i, true, f32)
		}
	}
	if err := e.Exec.Wait(); err != nil {
		return nil, 0, err
	}

	nSlots := e.M.Cfg.HeadSlots(T)
	preds := make([][]int, nSlots)
	for s := 0; s < nSlots; s++ {
		preds[s] = make([]int, 0, e.M.Cfg.Batch)
		for _, ws := range wss {
			if f32 {
				preds[s] = append(preds[s], tensor.ArgmaxRows(ws.f32.probs[s])...)
			} else {
				preds[s] = append(preds[s], tensor.ArgmaxRows(ws.probs[s])...)
			}
		}
	}
	loss := 0.0
	for _, ws := range wss {
		loss += ws.sumLosses()
	}
	scale := e.lossScale(b)
	loss /= scale
	e.recordHeadLosses(wss, T, scale)
	e.finishStep(dc)
	e.recordStep(stepStart, loss, true, e.hasLabels(b), b.realRows(e.M.Cfg.Batch))
	return preds, loss, nil
}

// InferProbs runs forward propagation and returns, per output slot, the full
// class-probability matrix ([Batch x head Classes]) for every sequence, plus
// the mean loss when labels are present. Slots are head-major, as in Infer.
// Useful for sampling-based generation and calibration analysis; Infer is the
// argmax convenience on top of the same forward pass.
func (e *Engine) InferProbs(b *Batch) ([]*tensor.Matrix, float64, error) {
	if e.phantom {
		return nil, 0, fmt.Errorf("core: InferProbs on a phantom engine")
	}
	if err := e.checkBatch(b, false); err != nil {
		return nil, 0, err
	}
	if err := e.beginStep(); err != nil {
		return nil, 0, err
	}
	defer e.endStep()
	stepStart := time.Now()
	T := b.SeqLen()
	wss := e.workspaces(T)
	f32 := e.isF32()
	e.refreshWeightCaches(f32)
	dc := e.bindWorkspaces(wss, b)
	if rp := e.replayer(); rp != nil {
		rp.Replay(e.template(false, T))
	} else {
		for i, ws := range wss {
			e.emitForward(ws, i, true, f32)
		}
	}
	if err := e.Exec.Wait(); err != nil {
		return nil, 0, err
	}
	cfg := e.M.Cfg
	probs := make([]*tensor.Matrix, cfg.HeadSlots(T))
	for h, spec := range cfg.HeadSpecs() {
		lo, n := cfg.HeadSlotRange(h, T)
		for s := lo; s < lo+n; s++ {
			probs[s] = tensor.New(cfg.Batch, spec.Classes)
			row := 0
			for _, ws := range wss {
				rows := ws.probs[s].Rows
				for r := 0; r < rows; r++ {
					if f32 {
						tensor.ConvertSlice(probs[s].Row(row), ws.f32.probs[s].Row(r))
					} else {
						copy(probs[s].Row(row), ws.probs[s].Row(r))
					}
					row++
				}
			}
		}
	}
	loss := 0.0
	for _, ws := range wss {
		loss += ws.sumLosses()
	}
	scale := e.lossScale(b)
	loss /= scale
	e.recordHeadLosses(wss, T, scale)
	e.finishStep(dc)
	e.recordStep(stepStart, loss, true, e.hasLabels(b), b.realRows(e.M.Cfg.Batch))
	return probs, loss, nil
}

// EmitTrainGraph emits the dependency/metadata-only task graph of one
// training step of sequence length T (phantom engines only). The caller
// owns Wait on the executor (typically a taskrt.Recorder).
func (e *Engine) EmitTrainGraph(T int) {
	wss := e.workspaces(T)
	for i, ws := range wss {
		e.emitForward(ws, i, true, false)
		e.emitBackward(ws, i)
	}
	e.emitReduce(wss)
}

// EmitInferGraph emits the forward-only task graph of sequence length T.
func (e *Engine) EmitInferGraph(T int) {
	wss := e.workspaces(T)
	for i, ws := range wss {
		e.emitForward(ws, i, true, false)
	}
}

// WorkingSetBytes reports the total activation/gradient working set across
// all mini-batch workspaces for sequence length T (the memory study).
func (e *Engine) WorkingSetBytes(T int) int64 {
	var total int64
	for _, ws := range e.workspaces(T) {
		total += ws.workingSetBytes()
	}
	return total
}

// sliceBatch returns the mini-batch view of rows [lo, hi).
func (e *Engine) sliceBatch(b *Batch, lo, hi int) *Batch {
	mb := &Batch{X: make([]*tensor.Matrix, len(b.X))}
	for t := range b.X {
		mb.X[t] = b.X[t].SliceRows(lo, hi)
	}
	if b.Targets != nil {
		mb.Targets = b.Targets[lo:hi]
	}
	if b.StepTargets != nil {
		mb.StepTargets = make([][]int, len(b.StepTargets))
		for t := range b.StepTargets {
			mb.StepTargets[t] = b.StepTargets[t][lo:hi]
		}
	}
	if b.Lens != nil {
		mb.Lens = b.Lens[lo:hi]
	}
	mb.Real = sliceReal(b.Real, lo, hi)
	return mb
}

// sliceReal maps a batch's Real count onto the row slice [lo, hi): 0 (all
// real) stays 0, a positive count clamps to the slice, and a slice left with
// no real rows reports the all-padding sentinel -1.
func sliceReal(real, lo, hi int) int {
	switch {
	case real == 0:
		return 0
	case real < 0 || real <= lo:
		return -1
	case real >= hi:
		return 0
	default:
		return real - lo
	}
}

// applySGD folds mini-batch gradients (already reduced into workspace 0),
// normalizes, optionally clips, folds momentum, and updates the weights.
func (e *Engine) applySGD(ws *workspace, lr, scale float64) {
	e.M.noteWeightUpdate()
	if e.WeightDecay > 0 {
		decay := 1 - lr*e.WeightDecay
		for l := range e.M.fwd {
			for _, p := range []*dirParams{e.M.fwd[l], e.M.rev[l]} {
				w, b := p.wParams()
				tensor.ScaleInPlace(w, decay)
				for i := range b {
					b[i] *= decay
				}
			}
		}
		for h := range e.M.Heads {
			tensor.ScaleInPlace(e.M.Heads[h].W, decay)
			for i := range e.M.Heads[h].B {
				e.M.Heads[h].B[i] *= decay
			}
		}
	}
	inv := 1.0 / scale
	if e.GradClip > 0 || e.Momentum > 0 || e.Adam != nil {
		// Normalize in place so clipping and momentum see mean gradients.
		for l := range ws.gradsFwd {
			scaleDirGrads(ws.gradsFwd[l], inv)
			scaleDirGrads(ws.gradsRev[l], inv)
		}
		for _, g := range ws.headGrads {
			tensor.ScaleInPlace(g.DW, inv)
			for i := range g.DB {
				g.DB[i] *= inv
			}
		}
		inv = 1
	}
	if e.GradClip > 0 {
		for l := range ws.gradsFwd {
			ws.gradsFwd[l].clip(e.GradClip)
			ws.gradsRev[l].clip(e.GradClip)
		}
		for _, g := range ws.headGrads {
			tensor.ClipInPlace(g.DW, e.GradClip)
			clipSlice(g.DB, e.GradClip)
		}
	}
	if e.Adam != nil {
		e.applyAdam(ws, lr)
		return
	}
	if e.Momentum > 0 {
		if e.vel == nil {
			e.vel = newVelocity(e.M)
		}
		mu := e.Momentum
		for l := range ws.gradsFwd {
			vF, vR := e.vel.dirs[2*l], e.vel.dirs[2*l+1]
			scaleDirGrads(vF, mu)
			vF.addScaled(1, ws.gradsFwd[l])
			scaleDirGrads(vR, mu)
			vR.addScaled(1, ws.gradsRev[l])
			e.M.fwd[l].applySGD(lr, vF)
			e.M.rev[l].applySGD(lr, vR)
		}
		for h := range e.M.Heads {
			tensor.ScaleInPlace(e.vel.headW[h], mu)
			tensor.AxpyMatrix(e.vel.headW[h], 1, ws.headGrads[h].DW)
			for i := range e.vel.headB[h] {
				e.vel.headB[h][i] = mu*e.vel.headB[h][i] + ws.headGrads[h].DB[i]
			}
			tensor.AxpyMatrix(e.M.Heads[h].W, -lr, e.vel.headW[h])
			tensor.Axpy(-lr, e.vel.headB[h], e.M.Heads[h].B)
		}
		return
	}
	eff := lr * inv
	for l := range ws.gradsFwd {
		e.M.fwd[l].applySGD(eff, ws.gradsFwd[l])
		e.M.rev[l].applySGD(eff, ws.gradsRev[l])
	}
	for h := range e.M.Heads {
		tensor.AxpyMatrix(e.M.Heads[h].W, -eff, ws.headGrads[h].DW)
		tensor.Axpy(-eff, ws.headGrads[h].DB, e.M.Heads[h].B)
	}
}

func scaleDirGrads(g *dirGrads, alpha float64) {
	dw, db := g.wData()
	tensor.ScaleInPlace(dw, alpha)
	for i := range db {
		db[i] *= alpha
	}
}

// recordHeadLosses refreshes lastHeadLosses: head h's summed slot losses
// across all mini-batch workspaces, divided by the step's loss scale. The
// total step loss is computed separately (workspace-major) so its summation
// order — and therefore its bit pattern — is unchanged from the single-head
// engine.
func (e *Engine) recordHeadLosses(wss []*workspace, T int, scale float64) {
	cfg := e.M.Cfg
	specs := cfg.HeadSpecs()
	if len(e.lastHeadLosses) != len(specs) {
		e.lastHeadLosses = make([]float64, len(specs))
	}
	for h := range specs {
		lo, n := cfg.HeadSlotRange(h, T)
		sum := 0.0
		for _, ws := range wss {
			for s := lo; s < lo+n; s++ {
				sum += ws.losses[s]
			}
		}
		e.lastHeadLosses[h] = sum / scale
	}
}

// HeadLosses returns the per-head mean losses of the most recent labeled
// step, in head declaration order. Nil before the first step. The values sum
// to the step's reported loss (up to summation-order rounding).
func (e *Engine) HeadLosses() []float64 {
	if e.lastHeadLosses == nil {
		return nil
	}
	out := make([]float64, len(e.lastHeadLosses))
	copy(out, e.lastHeadLosses)
	return out
}

// TemplateStats returns the cumulative template-cache lookup counts: hits
// (steps served by replaying a frozen graph) and misses (steps that had to
// capture). Safe to read from any goroutine; the serving layer aggregates it
// across an engine pool to report template hit rate.
func (e *Engine) TemplateStats() (hits, misses int64) {
	return e.tplHitN.Load(), e.tplMissN.Load()
}

// maybeResetDeps clears the executor's dependency table between steps when
// supported, so per-step input tensors do not accumulate entries. Only the
// fresh-emission path needs it; replays never populate the table.
func (e *Engine) maybeResetDeps() {
	if rd, ok := e.Exec.(taskrt.DepResetter); ok {
		rd.ResetDeps()
	}
}
