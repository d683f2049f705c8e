package taskrt

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"bpar/internal/obs"
)

// Policy selects the ready-queue scheduling policy.
type Policy int

const (
	// BreadthFirst uses a single global FIFO ready queue (the paper's
	// default breadth-first scheduler).
	BreadthFirst Policy = iota
	// LocalityAware places newly readied tasks on the queue of the worker
	// that produced their input data.
	LocalityAware
)

func (p Policy) String() string {
	switch p {
	case BreadthFirst:
		return "breadth-first"
	case LocalityAware:
		return "locality-aware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures a Runtime.
type Options struct {
	// Workers is the number of worker goroutines ("cores"). Must be >= 1.
	Workers int
	// Policy selects breadth-first or locality-aware scheduling.
	Policy Policy
	// Sink, when non-nil, receives a record per executed task.
	Sink TraceSink
	// Profile, when non-nil, receives per-node timing callbacks for every
	// template replay (fresh-emission tasks are invisible to it). The
	// callbacks are wired so a sink can use plain fixed-index arrays keyed
	// by template node index — see the ProfileSink contract.
	Profile ProfileSink
	// DepCheck enables the runtime dependency sanitizer: shadow versions per
	// key, undeclared-access detection via registered buffers, and
	// self-dependency rejection. Task bodies are serialized while enabled,
	// so it is a correctness mode, not a performance mode.
	DepCheck bool
}

// node is the runtime-internal representation of a submitted task.
type node struct {
	task     *Task
	id       int
	submitNS int64

	// pending is the unsatisfied-dependency count plus a submission guard:
	// it starts at 1 so the node cannot become ready while Submit is still
	// deriving edges; Submit drops the guard with a final decrement, so
	// exactly one party (Submit or the last-finishing predecessor) observes
	// zero and enqueues the node.
	pending atomic.Int32

	mu       sync.Mutex // guards finished and succs
	finished bool
	succs    []*node

	// Template-owned nodes carry their successor list precomputed at capture
	// (tplSuccs) and a back-pointer to the owning template (tpl, non-nil iff
	// the node belongs to a Template) plus their fixed index within it
	// (tplIdx). They bypass the mutex-guarded succs/finished protocol
	// entirely: the edge set is frozen, so no submitter ever appends to it
	// concurrently. tplIdx is what lets a ProfileSink accumulate timings into
	// fixed-index arrays with no per-task map lookups.
	tplSuccs []*node
	tpl      *Template
	tplIdx   int32
}

// done reports whether the node's task has completed.
func (n *node) done() bool {
	n.mu.Lock()
	d := n.finished
	n.mu.Unlock()
	return d
}

// depEntry tracks the last writer and the readers-since-last-write of one
// dependency key, from which RAW/WAR/WAW edges are derived.
type depEntry struct {
	lastWriter *node
	readers    []*node
}

// depShards is the number of dependency-table shards. Power of two so the
// shard index is a mask of the key hash.
const depShards = 64

// depShard is one slice of the dependency table with its own lock, so
// WaitFor readers and the submitter never contend on a single table-wide
// mutex. Padded so neighbouring shard locks do not share a cache line.
type depShard struct {
	mu sync.Mutex
	m  map[Dep]*depEntry
	_  [32]byte
}

// entry returns (creating if needed) the entry for k. Caller holds s.mu.
func (s *depShard) entry(k Dep) *depEntry {
	e := s.m[k]
	if e == nil {
		e = &depEntry{}
		s.m[k] = e
	}
	return e
}

// queue is a locked slice-backed task queue. The global ready queue pops
// FIFO at the head; per-worker deques pop LIFO at the tail (the hottest,
// most recently readied task) while thieves steal FIFO from the head (the
// oldest task, as the paper's work-stealing does). An atomic length
// snapshot lets thieves pick a victim without taking any lock.
type queue struct {
	mu    sync.Mutex
	items []*node
	head  int
	size  atomic.Int32
}

func (q *queue) push(n *node) {
	q.mu.Lock()
	q.items = append(q.items, n)
	q.size.Store(int32(len(q.items) - q.head))
	q.mu.Unlock()
}

func (q *queue) pushBatch(ns []*node) {
	if len(ns) == 0 {
		return
	}
	q.mu.Lock()
	q.items = append(q.items, ns...)
	q.size.Store(int32(len(q.items) - q.head))
	q.mu.Unlock()
}

func (q *queue) popHead() *node {
	q.mu.Lock()
	if q.head >= len(q.items) {
		q.mu.Unlock()
		return nil
	}
	n := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	// Reclaim space once the queue drains far enough.
	if q.head > 1024 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	q.size.Store(int32(len(q.items) - q.head))
	q.mu.Unlock()
	return n
}

func (q *queue) popTail() *node {
	q.mu.Lock()
	if q.head >= len(q.items) {
		q.mu.Unlock()
		return nil
	}
	last := len(q.items) - 1
	n := q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	if q.head >= len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.size.Store(int32(len(q.items) - q.head))
	q.mu.Unlock()
	return n
}

// Runtime executes tasks on a pool of worker goroutines, deriving the task
// dependency graph dynamically from Submit annotations.
//
// Unlike a single-mutex design, the hot paths are partitioned: submission
// serializes on submitMu (dependency derivation must observe submissions in
// order), the dependency table is sharded by key hash, each worker owns a
// ready deque with its own small lock, and completion bookkeeping touches
// only atomics, the finished node, and the readied successors' queues — so
// the builder goroutine submitting the next timestep never contends with
// workers retiring the previous one.
type Runtime struct {
	opts  Options
	start time.Time

	// submitMu serializes task submission. Completion never takes it.
	submitMu sync.Mutex
	nextID   int

	hashSeed maphash.Seed
	shards   [depShards]depShard

	global queue
	local  []queue
	// readyBuf[w] is worker w's scratch for the successors one completion
	// readies; execute reuses it so a completion allocates nothing (the
	// queues copy what they are handed).
	readyBuf [][]*node

	outstanding atomic.Int64
	shutdownFlg atomic.Bool

	// Idle workers park on idleCond. wakeups is a latched signal count so a
	// wake issued between a worker's last queue scan and its sleep is never
	// lost; idlers lets producers skip the lock when nobody is parked.
	idleMu   sync.Mutex
	idleCond *sync.Cond
	wakeups  int
	idlers   atomic.Int32

	// Wait and WaitFor park on doneCond; completions broadcast only when
	// doneWaiters says someone is listening.
	doneMu      sync.Mutex
	doneCond    *sync.Cond
	doneWaiters atomic.Int32

	errsMu sync.Mutex
	errs   []error

	// depc is the dependency sanitizer, non-nil iff Options.DepCheck.
	depc *DepChecker

	wg sync.WaitGroup

	stats runtimeStats
}

// runtimeStats holds the contended counters behind Stats as atomics.
type runtimeStats struct {
	submitted  atomic.Int64
	executed   atomic.Int64
	taskNS     atomic.Int64
	submitNS   atomic.Int64
	completeNS atomic.Int64
	lockWaitNS atomic.Int64
	localHits  atomic.Int64
	steals     atomic.Int64
	stealFails atomic.Int64
	replays    atomic.Int64
	running    atomic.Int32
	maxRunning atomic.Int32

	workerIdleNS []atomic.Int64
	// idleSince[w] is the ns-since-start timestamp at which worker w parked
	// (0 = not parked), so Stats can charge in-progress idleness.
	idleSince []atomic.Int64
}

// New creates a runtime with the given options and starts its workers.
// Call Shutdown when done with it.
func New(opts Options) *Runtime {
	if opts.Workers < 1 {
		panic(fmt.Sprintf("taskrt: Workers must be >= 1, got %d", opts.Workers))
	}
	r := &Runtime{
		opts:     opts,
		start:    time.Now(),
		hashSeed: maphash.MakeSeed(),
		local:    make([]queue, opts.Workers),
		readyBuf: make([][]*node, opts.Workers),
	}
	for i := range r.shards {
		r.shards[i].m = make(map[Dep]*depEntry)
	}
	if opts.DepCheck {
		r.depc = newDepChecker()
	}
	r.idleCond = sync.NewCond(&r.idleMu)
	r.doneCond = sync.NewCond(&r.doneMu)
	r.stats.workerIdleNS = make([]atomic.Int64, opts.Workers)
	r.stats.idleSince = make([]atomic.Int64, opts.Workers)
	r.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go r.worker(w)
	}
	obs.Logger("taskrt").Debug("runtime started", "workers", opts.Workers, "policy", opts.Policy.String())
	return r
}

// Workers reports the configured worker count.
func (r *Runtime) Workers() int { return r.opts.Workers }

// DepChecker returns the runtime's dependency sanitizer, or nil when
// Options.DepCheck is off. Callers register buffer-to-key associations on it
// so undeclared accesses can be attributed.
func (r *Runtime) DepChecker() *DepChecker { return r.depc }

// shard returns the dependency shard owning key k.
func (r *Runtime) shard(k Dep) *depShard {
	return &r.shards[maphash.Comparable(r.hashSeed, k)&(depShards-1)]
}

// Submit registers the task; it becomes ready as soon as its dependencies
// are satisfied. Safe for concurrent use, although B-Par's builders submit
// from a single goroutine in topological order, like Algorithm 2/3.
func (r *Runtime) Submit(t *Task) {
	tStart := time.Now()
	if !r.submitMu.TryLock() {
		r.submitMu.Lock()
		r.stats.lockWaitNS.Add(time.Since(tStart).Nanoseconds())
	}
	if r.shutdownFlg.Load() {
		r.submitMu.Unlock()
		panic(fmt.Sprintf("taskrt: Submit of task %q after Shutdown — the worker pool is gone; create a new Runtime or submit before Shutdown", t.Label))
	}
	n := r.submitOne(t, tStart)
	r.submitMu.Unlock()
	if n != nil {
		r.global.push(n)
		r.wake(1)
	}
	r.stats.submitNS.Add(time.Since(tStart).Nanoseconds())
}

// SubmitAll registers a batch of tasks in order under a single acquisition
// of the submission lock, then publishes every immediately-ready task at
// once. Builders that emit a whole timestep (or layer) of tasks use it to
// amortize locking across the batch.
func (r *Runtime) SubmitAll(ts []*Task) {
	if len(ts) == 0 {
		return
	}
	tStart := time.Now()
	if !r.submitMu.TryLock() {
		r.submitMu.Lock()
		r.stats.lockWaitNS.Add(time.Since(tStart).Nanoseconds())
	}
	if r.shutdownFlg.Load() {
		r.submitMu.Unlock()
		panic(fmt.Sprintf("taskrt: SubmitAll of %d tasks (first %q) after Shutdown — the worker pool is gone; create a new Runtime or submit before Shutdown", len(ts), ts[0].Label))
	}
	var ready []*node
	for _, t := range ts {
		if n := r.submitOne(t, tStart); n != nil {
			ready = append(ready, n)
		}
	}
	r.submitMu.Unlock()
	if len(ready) > 0 {
		r.global.pushBatch(ready)
		r.wake(len(ready))
	}
	r.stats.submitNS.Add(time.Since(tStart).Nanoseconds())
}

// submitOne derives the task's dependency edges and registers it. Caller
// holds submitMu and passes the submission-time clock reading. Returns the
// node if it is immediately ready (the caller enqueues it), nil otherwise.
func (r *Runtime) submitOne(t *Task, at time.Time) *node {
	n := &node{task: t, id: r.nextID, submitNS: at.Sub(r.start).Nanoseconds()}
	r.nextID++
	if r.depc != nil {
		r.depc.onSubmit(t)
	}
	n.pending.Store(1) // submission guard, dropped at the end

	// predSeen dedupes multiple edges from the same predecessor so pending
	// counts each predecessor once. Allocated lazily: dependency-free tasks
	// never pay for it.
	var predSeen map[*node]bool
	addPred := func(p *node) {
		if p == nil || p == n || predSeen[p] {
			return
		}
		if predSeen == nil {
			predSeen = make(map[*node]bool)
		}
		predSeen[p] = true
		p.mu.Lock()
		if !p.finished {
			// Increment before the successor becomes visible to p's
			// completer, or its decrement could race pending to zero and
			// double-enqueue n.
			n.pending.Add(1)
			p.succs = append(p.succs, n)
		}
		p.mu.Unlock()
	}

	for _, k := range t.In {
		sh := r.shard(k)
		sh.mu.Lock()
		e := sh.entry(k)
		addPred(e.lastWriter) // RAW
		e.readers = append(e.readers, n)
		sh.mu.Unlock()
	}
	for _, k := range t.InOut {
		sh := r.shard(k)
		sh.mu.Lock()
		e := sh.entry(k)
		addPred(e.lastWriter) // RAW + WAW
		for _, rd := range e.readers {
			addPred(rd) // WAR
		}
		e.lastWriter = n
		e.readers = e.readers[:0]
		sh.mu.Unlock()
	}
	for _, k := range t.Out {
		sh := r.shard(k)
		sh.mu.Lock()
		e := sh.entry(k)
		addPred(e.lastWriter) // WAW
		for _, rd := range e.readers {
			addPred(rd) // WAR
		}
		e.lastWriter = n
		e.readers = e.readers[:0]
		sh.mu.Unlock()
	}

	r.outstanding.Add(1)
	r.stats.submitted.Add(1)
	if n.pending.Add(-1) == 0 {
		return n
	}
	return nil
}

// wake makes up to k parked workers rescan the queues. The wakeups counter
// latches signals issued while a worker is between its last scan and its
// cond wait, so no wake is lost.
func (r *Runtime) wake(k int) {
	if k <= 0 || r.idlers.Load() == 0 {
		return
	}
	r.idleMu.Lock()
	r.wakeups += k
	if k == 1 {
		r.idleCond.Signal()
	} else {
		r.idleCond.Broadcast()
	}
	r.idleMu.Unlock()
}

// worker is the body of each worker goroutine.
func (r *Runtime) worker(w int) {
	defer r.wg.Done()
	for {
		n := r.tryPop(w)
		if n == nil {
			n = r.awaitWork(w)
			if n == nil { // shutdown with no work left
				return
			}
		}
		run := r.stats.running.Add(1)
		for {
			m := r.stats.maxRunning.Load()
			if run <= m || r.stats.maxRunning.CompareAndSwap(m, run) {
				break
			}
		}
		r.execute(n, w)
	}
}

// tryPop returns the next task for worker w under the configured policy:
// own deque (newest first), then the global queue, then a steal.
func (r *Runtime) tryPop(w int) *node {
	if r.opts.Policy == LocalityAware {
		if n := r.local[w].popTail(); n != nil {
			r.stats.localHits.Add(1)
			return n
		}
	}
	if n := r.global.popHead(); n != nil {
		return n
	}
	if r.opts.Policy == LocalityAware {
		return r.steal(w)
	}
	return nil
}

// steal takes the oldest task from the longest peer deque. The longest
// victim is both the most likely to still hold a task by the time its lock
// is taken and the one whose backlog most needs draining.
func (r *Runtime) steal(w int) *node {
	for attempt := 0; attempt < len(r.local); attempt++ {
		victim, best := -1, int32(0)
		for i := range r.local {
			if i == w {
				continue
			}
			if s := r.local[i].size.Load(); s > best {
				victim, best = i, s
			}
		}
		if victim < 0 {
			r.stats.stealFails.Add(1)
			return nil
		}
		if n := r.local[victim].popHead(); n != nil {
			r.stats.steals.Add(1)
			return n
		}
		// Lost the race to the victim's owner or another thief; rescan.
	}
	r.stats.stealFails.Add(1)
	return nil
}

// awaitWork parks worker w until a task arrives or shutdown. It accounts
// the parked time to the worker's idle counter.
func (r *Runtime) awaitWork(w int) *node {
	idleStart := time.Now()
	since := idleStart.Sub(r.start).Nanoseconds()
	if since == 0 {
		since = 1
	}
	r.stats.idleSince[w].Store(since)
	defer func() {
		r.stats.workerIdleNS[w].Add(time.Since(idleStart).Nanoseconds())
		r.stats.idleSince[w].Store(0)
	}()
	for {
		r.idlers.Add(1)
		// Rescan after registering as idle: a producer that enqueued before
		// seeing us idle is now guaranteed visible to this scan.
		if n := r.tryPop(w); n != nil {
			r.idlers.Add(-1)
			return n
		}
		if r.shutdownFlg.Load() {
			r.idlers.Add(-1)
			return nil
		}
		r.idleMu.Lock()
		for r.wakeups == 0 && !r.shutdownFlg.Load() {
			r.idleCond.Wait()
		}
		if r.wakeups > 0 {
			r.wakeups--
		}
		r.idleMu.Unlock()
		r.idlers.Add(-1)
		if n := r.tryPop(w); n != nil {
			return n
		}
		if r.shutdownFlg.Load() {
			return nil
		}
	}
}

// execute runs a task body, then performs completion bookkeeping: marking
// successors ready and waking waiters. No global lock is involved.
func (r *Runtime) execute(n *node, w int) {
	if r.depc != nil {
		// begin blocks until no other checked body runs; end always follows,
		// even when the body panics (the recover below returns normally).
		r.depc.begin(n.task)
	}
	startT := time.Now()
	var taskErr error
	if n.task.Fn != nil {
		func() {
			defer func() {
				if p := recover(); p != nil {
					taskErr = fmt.Errorf("taskrt: task %q panicked: %v", n.task.Label, p)
				}
			}()
			n.task.Fn()
		}()
	}
	endT := time.Now()
	if r.depc != nil {
		r.depc.end(n.task)
	}

	startNS := startT.Sub(r.start).Nanoseconds()
	endNS := endT.Sub(r.start).Nanoseconds()
	if r.opts.Profile != nil && n.tpl != nil {
		r.opts.Profile.NodeDone(n.tpl, int(n.tplIdx), w, startNS, endNS)
	}
	if r.opts.Sink != nil {
		rec := TaskRecord{
			ID:         n.id,
			Label:      n.task.Label,
			Kind:       n.task.Kind,
			Worker:     w,
			TplIdx:     -1,
			SubmitNS:   n.submitNS,
			StartNS:    startNS,
			EndNS:      endNS,
			Flops:      n.task.Flops,
			WorkingSet: n.task.WorkingSet,
		}
		if n.tpl != nil {
			rec.Tpl = n.tpl
			rec.TplIdx = int(n.tplIdx)
		}
		r.opts.Sink.TaskDone(rec)
	}

	r.stats.running.Add(-1)
	r.stats.executed.Add(1)
	r.stats.taskNS.Add(endT.Sub(startT).Nanoseconds())
	if taskErr != nil {
		r.errsMu.Lock()
		r.errs = append(r.errs, taskErr)
		r.errsMu.Unlock()
	}

	var succs []*node
	if n.tpl != nil {
		// Replayed node: the frozen successor list needs no lock, and the
		// finished flag stays false on purpose — template nodes are reused
		// across replays and are invisible to WaitFor's done() protocol.
		succs = n.tplSuccs
	} else {
		n.mu.Lock()
		n.finished = true
		succs = n.succs
		n.succs = nil
		n.mu.Unlock()
	}

	readied := r.readyBuf[w][:0]
	for _, s := range succs {
		if s.pending.Add(-1) == 0 {
			readied = append(readied, s)
		}
	}
	if len(readied) > 0 {
		if r.opts.Policy == LocalityAware {
			// The successors consume data this worker just produced: run
			// them here for cache reuse; peers steal if this backs up.
			r.local[w].pushBatch(readied)
		} else {
			r.global.pushBatch(readied)
		}
		// This worker loops and picks one task itself; wake peers for the rest.
		r.wake(len(readied) - 1)
		clear(readied)
		if cap(readied) > cap(r.readyBuf[w]) {
			r.readyBuf[w] = readied[:0]
		}
	}
	if n.tpl != nil {
		// The final decrement sees every peer's node timings (each peer's
		// writes are released by its own Add on the same atomic), so a
		// ReplayDone callback may safely read all per-node arrays. It fires
		// before this node's outstanding decrement: once Wait returns, the
		// sink has fully observed the replay.
		if n.tpl.live.Add(-1) == 0 && r.opts.Profile != nil {
			r.opts.Profile.ReplayDone(n.tpl, endNS)
		}
	}
	r.outstanding.Add(-1)
	// Every completion may satisfy a WaitFor; a full drain satisfies Wait.
	if r.doneWaiters.Load() > 0 {
		r.doneMu.Lock()
		r.doneCond.Broadcast()
		r.doneMu.Unlock()
	}
	r.stats.completeNS.Add(time.Since(endT).Nanoseconds())
}

// WaitFor blocks until the last task that wrote the given dependency key
// has completed — the equivalent of OmpSs's `#pragma omp taskwait on(x)`.
// It returns immediately if no unfinished task writes the key. Unlike Wait,
// it does not drain the whole graph, so a caller can consume one result
// while unrelated tasks continue executing.
func (r *Runtime) WaitFor(k Dep) {
	for {
		sh := r.shard(k)
		sh.mu.Lock()
		var lw *node
		if e := sh.m[k]; e != nil {
			lw = e.lastWriter
		}
		sh.mu.Unlock()
		if lw == nil || lw.done() {
			return
		}
		r.doneWaiters.Add(1)
		r.doneMu.Lock()
		if !lw.done() {
			r.doneCond.Wait()
		}
		r.doneMu.Unlock()
		r.doneWaiters.Add(-1)
	}
}

// Wait blocks until all submitted tasks have completed, then returns the
// joined task errors (nil if none). The runtime remains usable afterwards:
// the dependency table persists, so later submissions still order against
// completed writers correctly (completed predecessors simply add no edges).
func (r *Runtime) Wait() error {
	if r.outstanding.Load() > 0 {
		r.doneWaiters.Add(1)
		r.doneMu.Lock()
		for r.outstanding.Load() > 0 {
			r.doneCond.Wait()
		}
		r.doneMu.Unlock()
		r.doneWaiters.Add(-1)
	}
	r.errsMu.Lock()
	if r.depc != nil {
		r.errs = append(r.errs, r.depc.take()...)
	}
	err := errors.Join(r.errs...)
	r.errsMu.Unlock()
	return err
}

// Shutdown waits for outstanding work, then stops all workers. The runtime
// must not be used afterwards.
func (r *Runtime) Shutdown() {
	_ = r.Wait()
	r.shutdownFlg.Store(true)
	r.idleMu.Lock()
	r.idleCond.Broadcast()
	r.idleMu.Unlock()
	r.wg.Wait()
	st := r.Stats()
	obs.Logger("taskrt").Debug("runtime shut down",
		"executed", st.Executed, "overhead_ratio", st.OverheadRatio(),
		"steals", st.Steals, "idle", time.Duration(st.IdleNS()))
}

// Stats returns a snapshot of runtime counters. Workers currently parked
// are charged their in-progress idle time, so idle counters are meaningful
// mid-run, not only after Shutdown.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Submitted:  r.stats.submitted.Load(),
		Executed:   r.stats.executed.Load(),
		TaskNS:     r.stats.taskNS.Load(),
		SubmitNS:   r.stats.submitNS.Load(),
		CompleteNS: r.stats.completeNS.Load(),
		MaxRunning: int(r.stats.maxRunning.Load()),
		LocalHits:  r.stats.localHits.Load(),
		Steals:     r.stats.steals.Load(),
		StealFails: r.stats.stealFails.Load(),
		LockWaitNS: r.stats.lockWaitNS.Load(),
		Replays:    r.stats.replays.Load(),
	}
	nowNS := time.Since(r.start).Nanoseconds()
	s.WorkerIdleNS = make([]int64, len(r.stats.workerIdleNS))
	for i := range r.stats.workerIdleNS {
		v := r.stats.workerIdleNS[i].Load()
		if since := r.stats.idleSince[i].Load(); since != 0 && nowNS > since {
			v += nowNS - since
		}
		s.WorkerIdleNS[i] = v
	}
	return s
}

// ResetDeps clears the dependency table between iterations that reuse the
// same buffers, preventing spurious WAR/WAW edges from a previous batch when
// the caller has already synchronized with Wait.
func (r *Runtime) ResetDeps() {
	r.submitMu.Lock()
	defer r.submitMu.Unlock()
	if r.outstanding.Load() != 0 {
		panic("taskrt: ResetDeps with outstanding tasks")
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.m = make(map[Dep]*depEntry)
		sh.mu.Unlock()
	}
	if r.depc != nil {
		r.depc.reset()
	}
}

// Stats aggregates runtime counters. SubmitNS and CompleteNS together are
// the runtime's bookkeeping overhead; the paper reports this overhead to be
// ten times smaller than time spent in task bodies (TaskNS).
type Stats struct {
	Submitted  int64
	Executed   int64
	TaskNS     int64 // total wall time inside task bodies
	SubmitNS   int64 // time spent creating tasks/deps (includes LockWaitNS)
	CompleteNS int64 // time spent in completion bookkeeping
	MaxRunning int   // peak concurrently running tasks
	LocalHits  int64 // tasks served from the popping worker's own deque
	Steals     int64 // tasks stolen from peer deques
	StealFails int64 // steal scans that found every peer deque empty
	LockWaitNS int64 // time blocked acquiring the submission lock
	Replays    int64 // template replays executed (Submitted counts their tasks)
	// WorkerIdleNS is the per-worker time spent parked with no runnable
	// task, one entry per worker.
	WorkerIdleNS []int64
}

// IdleNS returns total worker idle time across all workers.
func (s Stats) IdleNS() int64 {
	var t int64
	for _, v := range s.WorkerIdleNS {
		t += v
	}
	return t
}

// OverheadRatio returns (submit+complete time) / task body time; the paper's
// granularity study keeps this well under 0.1.
func (s Stats) OverheadRatio() float64 {
	if s.TaskNS == 0 {
		return 0
	}
	return float64(s.SubmitNS+s.CompleteNS) / float64(s.TaskNS)
}
