package sched

// Ctx is the execution context handed to every task. It identifies the
// worker running the task and the dag (core or batch) the task belongs
// to, so that forks land on the correct deque (Invariant 3). A Ctx is
// only valid for the dynamic extent of the task invocation it was passed
// to; do not retain it. (Each worker owns one reusable Ctx per kind, so
// entering a task allocates nothing.)
type Ctx struct {
	w    *worker
	kind Kind
}

// WorkerID returns the id (in [0, P)) of the worker currently executing
// this task. Useful for per-worker scratch space in batched operations.
func (c *Ctx) WorkerID() int { return c.w.id }

// Workers returns P.
func (c *Ctx) Workers() int { return len(c.w.rt.workers) }

// Runtime returns the runtime executing this task.
func (c *Ctx) Runtime() *Runtime { return c.w.rt }

// Op returns the calling worker's reusable operation record, for use as
// the argument to an immediately following Batchify:
//
//	op := c.Op()
//	*op = sched.OpRecord{DS: ds, Kind: OpFoo, Key: k}
//	c.Batchify(op)
//	return op.Res
//
// The record is owned by the worker, not the caller: it is valid only
// from a core task, and only for a straight-line fill-then-Batchify with
// no intervening Fork, For, or nested data-structure call (a worker has
// at most one outstanding Batchify at a time — it traps until the
// operation completes — so one record per worker suffices). Results may
// be read from it until the next Op call on the same worker. Callers
// that need to retain records (or batch from auxiliary goroutines via
// Server) should keep allocating their own; Batchify accepts any record.
func (c *Ctx) Op() *OpRecord { return &c.w.opRec }

// Fork executes a and b in parallel (binary forking, as the paper
// assumes) and returns when both have completed. b is made available for
// stealing while the current worker runs a; if b was not stolen the
// worker runs it itself, otherwise the worker helps with other legal work
// until b's thief finishes.
//
// The b-task's frame (including its join counter) comes from the
// worker's free list and is reclaimed when Fork returns, so the
// un-stolen fast path performs zero heap allocations. Reclamation is
// safe under the structured fork-join discipline: once the join counter
// reaches zero the thief (if any) no longer touches the frame.
func (c *Ctx) Fork(a, b func(*Ctx)) {
	w := c.w
	bt := w.getTask()
	bt.fn = b
	bt.kind = c.kind
	bt.join = &bt.ownJoin
	bt.ownJoin.pending.Store(1)
	// A pooled frame keeps the waiter of its last join; clear it so the
	// thief that finishes this one wakes no one who waited long ago.
	bt.ownJoin.waiter.Store(0)
	// Tasks forked inside a batch group inherit its tag, counted before
	// the push makes them stealable (panic containment; see contain.go).
	if bt.group = w.curGroup; bt.group != 0 {
		w.rt.scratch.groupLive[bt.group-1].Add(1)
	}
	d := w.dequeFor(c.kind)
	d.PushBottom(bt)
	w.rt.idle.wake()

	a(c)

	// Fast path: reclaim b from our own deque. The structured fork-join
	// discipline guarantees that everything pushed above bt has been
	// consumed by the time a returns, so the bottom item is bt or nothing.
	if t := d.PopBottom(); t != nil {
		if t != bt {
			// During an abort, tasks that unwound may have orphaned
			// children in the deque; anything else is a scheduler bug.
			if w.rt.aborting.Load() {
				panic(abortSignal{})
			}
			panic("sched: fork-join deque discipline violated")
		}
		w.runTask(t)
		w.putTask(t)
		return
	}
	// b was stolen: help until its thief completes it.
	w.waitJoin(&bt.ownJoin, c.kind)
	w.putTask(bt)
}

// waitJoin helps with other legal work until j's counter reaches zero.
func (w *worker) waitJoin(j *join, kind Kind) {
	for j.pending.Load() != 0 {
		w.rt.checkAbort()
		if !w.helpOnce(kind) {
			w.idleAtJoin(j, kind)
		}
	}
}

// helpOnce runs one unit of other work while the worker waits at a join
// inside a task of the given kind, returning false if it found nothing.
//
// Trapped workers may only execute batch work (Section 4). Additionally,
// a worker waiting inside a *batch* task must not pick up core work even
// if its status is free: a core task can contain a data-structure node,
// and suspending at one underneath an active batch's frame would make the
// batch's completion depend on a future batch — a deadlock cycle. Free
// workers waiting inside core tasks may execute anything.
func (w *worker) helpOnce(kind Kind) bool {
	if t := w.batch.PopBottom(); t != nil {
		w.runTask(t)
		return true
	}
	coreOK := kind == KindCore && w.isFree()
	if coreOK {
		if t := w.core.PopBottom(); t != nil {
			w.runTask(t)
			return true
		}
	}
	return w.stealAndRun(!coreOK)
}

// For executes body(i) for every i in [lo, hi) with binary fork-join
// splitting, descending to sequential chunks of at most grain iterations.
// A grain of <= 0 defaults to 1. It matches the parallel_for construct
// used throughout the paper.
func (c *Ctx) For(lo, hi, grain int, body func(*Ctx, int)) {
	if grain <= 0 {
		grain = 1
	}
	c.forRange(lo, hi, grain, body)
}

// forRange is For's engine. It is the iterative equivalent of the
// textbook binary recursion
//
//	mid := lo + (hi-lo)/2
//	Fork(forRange(lo, mid), forRange(mid, hi))
//
// but expressed with pooled range-descriptor tasks instead of closures,
// so splitting allocates nothing. The right halves the recursion would
// push are pushed here in the same order (outermost first), the leftmost
// base chunk runs sequentially, and the pushed halves are then joined
// innermost-first — exactly the pop order the recursive version's nested
// Forks would produce, so the deque discipline is preserved. A stolen
// half re-expands on the thief via the same routine (see execTask).
func (c *Ctx) forRange(lo, hi, grain int, body func(*Ctx, int)) {
	w := c.w
	d := w.dequeFor(c.kind)

	// Split phase: push the right half of each level, descending left.
	// Pushed tasks are chained through next (innermost at the head); the
	// chain is thread-local and set before the push, so a thief — which
	// never reads next — cannot observe it mid-update.
	var chain *Task
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		t := w.getTask()
		t.body = body
		t.lo = mid
		t.hi = hi
		t.grain = grain
		t.kind = c.kind
		t.join = &t.ownJoin
		t.ownJoin.pending.Store(1)
		t.ownJoin.waiter.Store(0) // as in Fork
		// Group-tag inheritance, as in Fork (panic containment).
		if t.group = w.curGroup; t.group != 0 {
			w.rt.scratch.groupLive[t.group-1].Add(1)
		}
		t.next = chain
		chain = t
		d.PushBottom(t)
		w.rt.idle.wake()
		hi = mid
	}

	// Base chunk: at most grain iterations, run in place.
	for i := lo; i < hi; i++ {
		body(c, i)
	}

	// Join phase, innermost first. Each un-stolen half is popped and run
	// here (re-expanding if it is still larger than grain); stolen halves
	// are waited on. Frames are reclaimed as their joins clear.
	for t := chain; t != nil; {
		nxt := t.next
		if got := d.PopBottom(); got != nil {
			if got != t {
				if w.rt.aborting.Load() {
					panic(abortSignal{})
				}
				panic("sched: fork-join deque discipline violated")
			}
			w.runTask(got)
		} else {
			w.waitJoin(&t.ownJoin, c.kind)
		}
		w.putTask(t)
		t = nxt
	}
}

// Seq runs body sequentially in the current task; it exists so that
// examples can express "this phase is intentionally sequential" and reads
// symmetric with Fork/For.
func (c *Ctx) Seq(body func(*Ctx)) { body(c) }
