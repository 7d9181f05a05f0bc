// Package sched implements a user-level fork-join work-stealing runtime
// extended with the BATCHER scheduler of Agrawal et al. (SPAA 2014),
// "Provably Good Scheduling for Parallel Programs that Use Data Structures
// through Implicit Batching".
//
// The runtime owns P workers (goroutines). Each worker maintains two
// Chase–Lev deques — a core deque for tasks of the enclosing program and a
// batch deque for tasks of the currently executing batched data-structure
// operation — plus a work-status flag and a dedicated slot in the global
// size-P pending array, exactly as in Section 4 of the paper:
//
//   - A free worker executes nodes from whichever of its deques is
//     nonempty; when both are empty it steals from a random victim under
//     the alternating-steal policy (even attempts target core deques, odd
//     attempts target batch deques).
//   - When a worker executes a data-structure node (a call to Batchify),
//     it publishes an operation record in pending[p], sets its status to
//     pending, and becomes trapped: it re-enters the scheduler loop on its
//     own stack and executes only batch work until its record's status
//     becomes done. If no batch is executing, a trapped worker launches
//     one by CASing the global batch flag and injecting the LaunchBatch
//     task at the bottom of its batch deque.
//   - LaunchBatch acknowledges pending records (pending→executing),
//     compacts them into the working set, calls the data structure's
//     batched operation (BOP), marks participants done, and resets the
//     flag. At most one batch is active at a time (Invariant 1) and a
//     batch contains at most P operations (Invariant 2), one per worker.
//
// Suspension at a data-structure node is implemented by nested scheduling
// on the worker's own stack (the same mechanism Cilk uses for helper
// locks): the blocked core task's frame simply stays on the stack while
// the worker processes batch work, and control returns to it when the
// status flips to done. This preserves the paper's semantics — the worker
// that encounters a data-structure node is the worker that resumes it.
//
// The steady-state hot paths (Fork, For, Batchify, LaunchBatch) are
// allocation-free: task frames are recycled through per-worker free
// lists, parallel loops are expressed as range descriptors rather than
// closures, each worker owns a reusable operation record (Ctx.Op), and
// LaunchBatch works out of per-runtime scratch buffers. See DESIGN.md
// §7 for the safety argument.
package sched

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"batcher/internal/deque"
	"batcher/internal/obs"
	"batcher/internal/rng"
)

// Kind classifies tasks per Invariant 3: core-dag nodes go on core deques,
// batch-dag nodes on batch deques.
type Kind uint8

const (
	// KindCore marks tasks belonging to the enclosing program's dag.
	KindCore Kind = iota
	// KindBatch marks tasks belonging to a batch dag (including the
	// scheduler's own LaunchBatch setup/cleanup work).
	KindBatch
)

// Status is a worker's work-status flag (Section 4).
type Status int32

const (
	// StatusFree means the worker has no suspended data-structure node.
	StatusFree Status = iota
	// StatusPending means the worker's operation record is in the pending
	// array, awaiting incorporation into a batch.
	StatusPending
	// StatusExecuting means the record is in the working set of the
	// currently executing batch.
	StatusExecuting
	// StatusDone means the batch containing the record has completed but
	// the worker has not yet resumed the suspended node.
	StatusDone
)

func (s Status) String() string {
	switch s {
	case StatusFree:
		return "free"
	case StatusPending:
		return "pending"
	case StatusExecuting:
		return "executing"
	case StatusDone:
		return "done"
	}
	return "invalid"
}

// Task is a unit of schedulable work: either a closure (fn != nil) or a
// parallel-loop range descriptor (fn == nil: run body(i) for i in
// [lo, hi), splitting down to grain). Loop tasks exist so that Ctx.For
// needs no per-split closure allocations. Tasks are recycled through
// per-worker free lists; ownJoin backs join for every pooled task, so a
// fork costs no allocation at all in steady state.
type Task struct {
	fn   func(*Ctx)
	join *join
	kind Kind

	// Loop-task fields, meaningful when fn == nil.
	body          func(*Ctx, int)
	lo, hi, grain int

	// group tags tasks belonging to a batch group's subtree under panic
	// containment: 1+groupIndex, or 0 for untagged (core tasks, pump
	// loops, LaunchBatch's own work — and everything when containment is
	// off, since tags propagate from runGroup). Pooled frames rely on the
	// zero value meaning "untagged"; every creation site sets it. See
	// contain.go.
	group int32

	// ownJoin is the completion counter for pooled tasks (the root task
	// of a Run uses a separate join carrying a wake channel).
	ownJoin join

	// recycleAfterRun marks detached tasks nobody joins on (the
	// LaunchBatch injection): the worker that runs one returns it to its
	// own free list. Forked tasks are instead reclaimed by the forker
	// once the join clears.
	recycleAfterRun bool

	// next links the task into a per-worker free list, and doubles as
	// the pending-join chain during Ctx.For (a task is never in both).
	next *Task
}

// join is a fork-join completion counter. done may be non-nil for the
// root task, where completion must wake the submitting goroutine.
// waiter is 1 + the id of the worker that registered on the join before
// parking at it (0: none), so the finisher wakes that worker alone.
type join struct {
	pending atomic.Int32
	waiter  atomic.Int32
	done    chan struct{}
}

func (j *join) finish() {
	if j == nil {
		return
	}
	if j.pending.Add(-1) == 0 && j.done != nil {
		close(j.done)
	}
}

// Config configures a Runtime.
type Config struct {
	// Workers is P, the number of scheduler workers. Defaults to
	// GOMAXPROCS(0) if zero.
	Workers int
	// Seed seeds the per-worker victim-selection RNGs.
	Seed uint64
	// StealPolicy selects the steal policy for *free* workers; trapped
	// workers always steal from batch deques, per the paper. The default
	// is AlternatingSteal, the policy the analysis requires.
	StealPolicy StealPolicy
}

// StealPolicy selects which deque a free worker targets on its k-th steal
// attempt. Non-default policies exist only for the ablation experiments.
type StealPolicy uint8

const (
	// AlternatingSteal is the paper's policy: even attempts steal from the
	// victim's core deque, odd attempts from its batch deque.
	AlternatingSteal StealPolicy = iota
	// CoreOnlySteal always targets core deques (ablation; starves batches).
	CoreOnlySteal
	// BatchOnlySteal always targets batch deques (ablation; starves core).
	BatchOnlySteal
	// RandomDequeSteal picks core or batch uniformly at random.
	RandomDequeSteal
)

// cacheLinePad is the padding unit separating hot shared fields: 128
// bytes — two 64-byte lines — so that the adjacent-line prefetcher
// cannot couple neighboring fields either.
const cacheLinePad = 128

// paddedPending is one worker's slot in the global pending array, padded
// so that publishing an operation record never invalidates a neighbor
// worker's slot.
type paddedPending struct {
	rec atomic.Pointer[OpRecord]
	// stamp is the obs.Now time at which the record in rec became
	// pending, read after the publish (a MaxInt64 sentinel until then;
	// see Batchify). It backs the Theorem 5.4 delay gauge and is
	// maintained only while a conformance monitor is attached.
	stamp atomic.Int64
	// seq is the number of batches that had landed when the record
	// became pending, read after the publish like stamp; it backs the
	// Lemma 2 gauge and is maintained only while a monitor is attached.
	seq atomic.Int64
	_   [cacheLinePad - 24]byte
}

// Runtime is a P-worker BATCHER scheduler instance. Create with New, then
// call Run with a root function; Run may be called repeatedly (serially).
type Runtime struct {
	cfg     Config
	workers []*worker

	_ [cacheLinePad]byte

	// batchFlag is the global batch-status flag: 1 while a batch is
	// executing (between a successful launch CAS and LaunchBatch's final
	// reset), 0 otherwise. Every trapped worker CASes it, so it gets its
	// own padded region.
	batchFlag atomic.Int32

	_ [cacheLinePad - 4]byte

	// pending is the size-P pending array; pending[i] is worker i's slot.
	pending []paddedPending

	// idle parks workers that cannot find work, one slot per worker,
	// and wakes them when work may have appeared.
	idle waker

	// scratch holds the per-runtime LaunchBatch buffers, reused across
	// batches (safe: Invariant 1 serializes batches, and the batch-flag
	// CAS/reset pair orders one batch's writes before the next's reads).
	scratch batchScratch

	// launchFn is the LaunchBatch body bound once at construction, so
	// injecting a batch launch does not allocate a method value.
	launchFn func(*Ctx)

	// pump is the Pump currently serving on this runtime, nil otherwise
	// (set by Pump.Serve while quiescent). LaunchBatch tops batches up
	// from its ingress queue.
	pump *Pump

	stop atomic.Bool
	wg   sync.WaitGroup

	// running guards against overlapping Run calls.
	running atomic.Bool

	// batchesActive counts currently executing batches; it exists only to
	// check Invariant 1 in tests and is maintained unconditionally
	// because it is two atomic adds per batch.
	batchesActive atomic.Int32

	// liveBatches/liveOps mirror the BatchesExecuted/BatchedOps worker
	// counters as atomics updated once per batch, so that serving-layer
	// stats endpoints can read batching effectiveness while a Run (or
	// Pump.Serve) is in progress — Runtime.Metrics is quiescent-only.
	liveBatches atomic.Int64
	liveOps     atomic.Int64

	// liveSteals is the successful-steal twin of liveBatches: the
	// per-worker SuccessfulSteals counters are owner-written plain ints,
	// unreadable while the runtime runs, so serving-layer metrics get
	// this atomic instead. Failed attempts (the hot idle case) are not
	// counted here.
	liveSteals atomic.Int64

	// tracer and conform are the optional observability hooks
	// (obs.go). Both are written only while the runtime is quiescent and
	// read unsynchronized by workers; nil means detached, and every hook
	// site is a single nil-check branch in that case. An attached
	// monitor also turns on op-lifecycle phase stamping (obs.Phase*),
	// which is a clock read plus array stores and allocates nothing.
	tracer  *obs.Tracer
	conform *obs.Conform

	// contain enables batch-panic containment (ContainBatchPanics): a
	// panic escaping a group's BOP marks that group's records instead of
	// aborting the runtime. batchPanics counts contained panics; it is an
	// atomic so stats endpoints can read it live. See contain.go.
	contain     atomic.Bool
	batchPanics atomic.Int64

	// aborting is set when a task panicked; workers unwind instead of
	// waiting on joins that can no longer complete, and Run re-panics
	// with the first cause. The runtime is unusable afterwards.
	aborting atomic.Bool
	panicMu  sync.Mutex
	panicVal any
	panicked bool
}

// abortSignal is the sentinel panic value used to unwind worker stacks
// once a real panic has been recorded.
type abortSignal struct{}

// recordPanic stores the first non-sentinel panic value and flips the
// runtime into the aborting state.
func (rt *Runtime) recordPanic(v any) {
	rt.panicMu.Lock()
	if !rt.panicked {
		rt.panicked = true
		rt.panicVal = v
	}
	rt.panicMu.Unlock()
	rt.aborting.Store(true)
	rt.idle.wake()
}

// checkAbort unwinds the calling worker's stack if the runtime is
// aborting. It must only be called from scheduler wait loops (never with
// external locks held).
func (rt *Runtime) checkAbort() {
	if rt.aborting.Load() {
		panic(abortSignal{})
	}
}

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = goruntime.GOMAXPROCS(0)
	}
	rt := &Runtime{
		cfg:     cfg,
		pending: make([]paddedPending, cfg.Workers),
	}
	rt.idle.init(cfg.Workers)
	rt.launchFn = rt.launchBatchBody
	rt.workers = make([]*worker, cfg.Workers)
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	for i := range rt.workers {
		w := &worker{
			id:    i,
			rt:    rt,
			core:  deque.New[Task](),
			batch: deque.New[Task](),
			rng:   rng.New(seed + uint64(i)*0x2545f4914f6cdd1d),
		}
		w.ctxs[KindCore] = Ctx{w: w, kind: KindCore}
		w.ctxs[KindBatch] = Ctx{w: w, kind: KindBatch}
		rt.workers[i] = w
	}
	// scratch sizes itself from rt.workers, so init it last.
	rt.scratch.init(rt)
	return rt
}

// Workers returns P, the number of workers.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// Run executes root to completion on the runtime's workers and returns.
// root runs as a core-dag task. Run must not be called concurrently with
// itself on the same Runtime.
func (rt *Runtime) Run(root func(*Ctx)) {
	if !rt.running.CompareAndSwap(false, true) {
		panic("sched: concurrent Run calls on the same Runtime")
	}
	defer rt.running.Store(false)

	rt.stop.Store(false)
	j := &join{done: make(chan struct{})}
	j.pending.Store(1)
	rt.workers[0].core.PushBottom(&Task{fn: root, join: j, kind: KindCore})

	rt.wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go w.loop()
	}
	<-j.done
	rt.stop.Store(true)
	rt.idle.wake()
	rt.wg.Wait()

	if rt.aborting.Load() {
		// A task panicked: every worker has unwound; surface the first
		// cause to the caller. The runtime must not be reused.
		panic(rt.panicVal)
	}

	// Sanity: a completed run must leave no residue.
	if rt.batchFlag.Load() != 0 {
		panic("sched: batch flag set after Run completed")
	}
	for i := range rt.pending {
		if rt.pending[i].rec.Load() != nil {
			panic("sched: pending record left after Run completed")
		}
	}
}

// maxFreeTasks caps a worker's task free list; beyond it, retired tasks
// are dropped for the garbage collector. The cap only exists to bound
// memory on pathologically deep programs — steady-state fork-join reuses
// a handful of frames per worker.
const maxFreeTasks = 256

// worker is one of the P scheduler workers. Hot cross-worker fields
// (status, metrics) are padded so that one worker's state transitions do
// not invalidate cache lines its neighbors are spinning on.
type worker struct {
	id    int
	rt    *Runtime
	core  *deque.Deque[Task]
	batch *deque.Deque[Task]
	rng   *rng.Rand

	// ctxs are the two reusable task contexts (core and batch). A Ctx is
	// immutable after construction, so every task of a given kind on
	// this worker shares the same one and task execution allocates
	// nothing.
	ctxs [2]Ctx

	// stealK counts steal attempts for the alternating policy.
	stealK uint64

	// idleFails counts consecutive failed attempts to find work, pacing
	// the spin-then-park idle policy.
	idleFails int

	// freeTasks heads the singly-linked task free list (owner-only, so
	// no synchronization), freeN its length.
	freeTasks *Task
	freeN     int

	// opRec is the worker's reusable operation record, handed out by
	// Ctx.Op. A worker has at most one outstanding Batchify at a time
	// (it traps until the operation completes), so one record suffices.
	opRec OpRecord

	// curGroup is the batch-group tag (1+groupIndex, 0 = none) of the
	// work this worker is currently executing; forks inherit it so a
	// contained panic can be attributed to its group wherever the task
	// was stolen to. Owner-only: set by runGroup and execTask, read at
	// fork-push time on the same goroutine. See contain.go.
	curGroup int32

	_ [cacheLinePad]byte

	// status is the work-status flag, read by LaunchBatch on any worker
	// and CASed during batch acknowledgement; it sits alone in its own
	// padded region.
	status atomic.Int32

	_ [cacheLinePad - 4]byte

	m WorkerMetrics

	_ [cacheLinePad]byte
}

// getTask takes a task frame from the worker's free list, or allocates
// one if the list is empty (cold starts and steal-heavy phases only).
func (w *worker) getTask() *Task {
	t := w.freeTasks
	if t == nil {
		return new(Task)
	}
	w.freeTasks = t.next
	w.freeN--
	t.next = nil
	return t
}

// putTask retires a completed task frame to the free list. Only the
// worker that owns the frame's lifecycle may call it: the forker after
// the join clears, or the runner of a recycleAfterRun task. References
// are dropped so pooled frames do not pin closures for the GC.
func (w *worker) putTask(t *Task) {
	if w.freeN >= maxFreeTasks {
		return
	}
	t.fn = nil
	t.body = nil
	t.join = nil
	t.recycleAfterRun = false
	t.next = w.freeTasks
	w.freeTasks = t
	w.freeN++
}

func (w *worker) dequeFor(k Kind) *deque.Deque[Task] {
	if k == KindBatch {
		return w.batch
	}
	return w.core
}

func (w *worker) isFree() bool { return Status(w.status.Load()) == StatusFree }

// loop is the main scheduling loop for a (free) worker, per Figure 3.
// Free workers execute any node; they prefer their own deques and steal
// only when both are empty.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	for !w.rt.stop.Load() && !w.rt.aborting.Load() {
		if t := w.batch.PopBottom(); t != nil {
			w.runTask(t)
			continue
		}
		if t := w.core.PopBottom(); t != nil {
			w.runTask(t)
			continue
		}
		if !w.stealAndRun(false) {
			w.idleFree()
		}
	}
}

// testHookTaskRun, when non-nil, observes every task execution with the
// running worker's status at entry. Tests use it to verify scheduling
// invariants (e.g. trapped workers execute only batch work). It must be
// set before any Run and never during one.
var testHookTaskRun func(kind Kind, status Status)

// runTask executes t and reports completion to its join. Panics from the
// task body are recorded (first cause wins) and converted into the
// runtime's aborting state so that every worker unwinds instead of
// waiting on joins that will never complete; the join is finished either
// way so waiters unblock.
func (w *worker) runTask(t *Task) {
	// recycleAfterRun and join must be read before the join is
	// finished: once it is, the forker may reclaim and rewrite the frame
	// concurrently.
	recycle := t.recycleAfterRun
	j := t.join
	w.idleFails = 0
	w.execTask(t)
	// The join (if any) has now been finished; the worker parked at it
	// must hear about it. The frame may already be recycled and
	// re-armed (Fork clears its waiter), so the waiter read can be
	// stale: that costs a spurious wake, never a missed one (the waiter
	// registers before it re-checks pending).
	if j != nil {
		if id := j.waiter.Load(); id != 0 {
			w.rt.idle.wakeOne(int(id - 1))
		}
	}
	if recycle {
		w.putTask(t)
	}
}

// execTask is runTask's body; it exists so that the join finish and
// panic recovery (deferred) complete before runTask's wake/recycle.
//
// A task tagged with a batch group (see contain.go) makes this a
// containment boundary: the worker adopts the tag for the task's extent
// (so nested forks inherit it), and a panic is recorded against the
// group — with the deque repaired back to its entry depth — instead of
// aborting the runtime. The group's live count is released only after
// that repair, so runGroup's drain cannot observe zero while abandoned
// subtasks remain.
func (w *worker) execTask(t *Task) {
	w.m.TasksRun++
	if testHookTaskRun != nil {
		testHookTaskRun(t.kind, Status(w.status.Load()))
	}
	savedGroup := w.curGroup
	var entry int64
	if t.group != 0 {
		entry = w.batch.Bottom()
	}
	w.curGroup = t.group
	defer t.join.finish()
	defer func() {
		w.curGroup = savedGroup
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); isAbort {
				// Global abort in progress; nothing to record.
			} else if t.group != 0 && w.rt.contain.Load() {
				w.rt.containGroupPanic(w, int(t.group-1), r, entry)
			} else {
				w.rt.recordPanic(r)
			}
		}
		if t.group != 0 {
			w.rt.scratch.groupLive[t.group-1].Add(-1)
		}
	}()
	ctx := &w.ctxs[t.kind]
	if t.fn != nil {
		t.fn(ctx)
	} else {
		ctx.forRange(t.lo, t.hi, t.grain, t.body)
	}
}

// stealAndRun makes one steal attempt and runs the stolen task if any.
// It returns true on a successful steal. The deque targeted follows the
// paper's rules: trapped workers steal only from batch deques; free
// workers follow the configured policy (alternating by default).
// batchOnly additionally restricts the attempt to batch deques, used by
// workers waiting at joins inside batch tasks (see helpOnce).
func (w *worker) stealAndRun(batchOnly bool) bool {
	t := w.stealOnce(batchOnly)
	if t == nil {
		return false
	}
	w.runTask(t)
	return true
}

func (w *worker) stealOnce(batchOnly bool) *Task {
	rt := w.rt
	if len(rt.workers) == 1 {
		// No victims; count the attempt so metrics stay meaningful.
		w.m.FailedSteals++
		return nil
	}
	// Draw uniformly over the other P-1 workers. (Remapping a self-pick
	// to a fixed neighbor would double that neighbor's odds.)
	v := w.rng.Intn(len(rt.workers) - 1)
	if v >= w.id {
		v++
	}
	victim := rt.workers[v]

	var d *deque.Deque[Task]
	trapped := !w.isFree()
	if trapped || batchOnly {
		d = victim.batch
		if trapped {
			w.m.TrappedStealAttempts++
		} else {
			w.m.FreeStealAttempts++
		}
	} else {
		w.stealK++
		switch rt.cfg.StealPolicy {
		case CoreOnlySteal:
			d = victim.core
		case BatchOnlySteal:
			d = victim.batch
		case RandomDequeSteal:
			if w.rng.Bool() {
				d = victim.core
			} else {
				d = victim.batch
			}
		default: // AlternatingSteal
			if w.stealK%2 == 0 {
				d = victim.core
			} else {
				d = victim.batch
			}
		}
		w.m.FreeStealAttempts++
	}

	t := d.Steal()
	if t == nil {
		w.m.FailedSteals++
		return nil
	}
	w.m.SuccessfulSteals++
	rt.liveSteals.Add(1)
	if tr := rt.tracer; tr != nil {
		var deq int64
		if d == victim.batch {
			deq = 1
		}
		tr.Record(w.id, obs.EvSteal, int64(victim.id), deq)
	}
	return t
}

// Idle pacing: a worker that failed to find work yields the CPU a few
// times (the host may run fewer CPUs than workers), then parks on its
// slot of the runtime's waker until an event that could produce work for
// it. No wait polls a timer: every event a worker waits for is one the
// scheduler signals (a status flip, a join finish, the flag reset, a
// task push) or one a pump producer signals (Submit, Close). Each idle
// site re-checks the conditions that must wake its caller after
// registering as parked, which the waker protocol requires.
const (
	// idleSpinYield failed attempts are plain scheduler yields.
	idleSpinYield = 8
	// After a park wakes, resume spinning at this level so a worker that
	// finds nothing re-parks quickly instead of burning a full ladder.
	idleResume = idleSpinYield
)

// spin performs one pre-park pacing step and reports whether the caller
// should now attempt to park.
func (w *worker) spin() bool {
	w.idleFails++
	if w.idleFails < idleSpinYield {
		goruntime.Gosched()
		return false
	}
	return true
}

// victimsHaveWork scans every other worker's deques (batch deques only
// when batchOnly). It runs only on the park path, where an O(P) sweep is
// cheap insurance against sleeping through work that random victim
// selection happened to miss.
func (w *worker) victimsHaveWork(batchOnly bool) bool {
	for _, v := range w.rt.workers {
		if v == w {
			continue
		}
		if !v.batch.Empty() {
			return true
		}
		if !batchOnly && !v.core.Empty() {
			return true
		}
	}
	return false
}

// idleFree paces a free worker in the main loop that found nothing to
// run or steal.
func (w *worker) idleFree() {
	if !w.spin() {
		return
	}
	rt := w.rt
	rt.idle.beginPark(w.id)
	if rt.stop.Load() || rt.aborting.Load() ||
		!w.batch.Empty() || !w.core.Empty() || w.victimsHaveWork(false) {
		rt.idle.cancelPark(w.id)
		return
	}
	w.parkAndSleep()
}

// idleAtJoin paces a worker waiting at j inside a task of the given kind
// (see helpOnce for what such a worker may legally run). It registers on
// j before parking, so the task that finishes j wakes it alone.
func (w *worker) idleAtJoin(j *join, kind Kind) {
	if !w.spin() {
		return
	}
	rt := w.rt
	coreOK := kind == KindCore && w.isFree()
	j.waiter.Store(int32(w.id) + 1)
	rt.idle.beginPark(w.id)
	if j.pending.Load() == 0 || rt.aborting.Load() ||
		!w.batch.Empty() || (coreOK && !w.core.Empty()) ||
		w.victimsHaveWork(!coreOK) {
		rt.idle.cancelPark(w.id)
		return
	}
	w.parkAndSleep()
}

// idleTrapped paces a trapped worker in the Batchify loop: it must wake
// for batch work, for its own status turning done (LaunchBatch step 4
// wakes it), and for the batch flag resetting while it is still pending
// (step 5 wakes one such worker, the next launcher).
func (w *worker) idleTrapped() {
	if !w.spin() {
		return
	}
	rt := w.rt
	rt.idle.beginPark(w.id)
	if Status(w.status.Load()) == StatusDone || rt.aborting.Load() ||
		rt.batchFlag.Load() == 0 || !w.batch.Empty() || w.victimsHaveWork(true) {
		rt.idle.cancelPark(w.id)
		return
	}
	w.parkAndSleep()
}

// wakeLauncher is called after the batch flag resets. It wakes one
// parked worker whose status is pending: that worker can claim the flag
// and launch the next batch, whose acknowledgement step takes in every
// other pending worker. A parked worker that is executing or done needs
// nothing from the reset: its batch's step 4 wakes it.
func (rt *Runtime) wakeLauncher() {
	if rt.idle.parked.Load() == 0 {
		return
	}
	for i, w := range rt.workers {
		if Status(w.status.Load()) == StatusPending && rt.idle.wakeOne(i) {
			return
		}
	}
}
