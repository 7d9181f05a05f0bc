package sched

// This file implements the implicit-batching half of BATCHER: the
// Batchify entry point called by core-program tasks (Figure 3) and the
// LaunchBatch procedure (Figure 4).

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"batcher/internal/obs"
)

// OpKind is a data-structure-specific operation code. The scheduler never
// interprets it; it exists so that a single OpRecord type serves every
// batched structure in the repository.
type OpKind int32

// OpRecord is the operation record a worker publishes when it encounters
// a data-structure node. The Kind/Key/Val fields are inputs and Res/Ok
// are outputs, with Aux as an escape hatch for structures whose payloads
// do not fit in two integers. Records are owned by the calling task until
// Batchify returns, then again by the caller; the data structure may read
// and write them freely while its batch executes. Hot paths obtain a
// reusable record from Ctx.Op instead of allocating one per operation.
type OpRecord struct {
	// DS is the target data structure; the scheduler groups a batch's
	// records by DS and invokes each structure's RunBatch on its group.
	DS Batched
	// Kind is the structure-specific operation code.
	Kind OpKind
	// Key and Val are the operation's integer inputs.
	Key, Val int64
	// Res is the operation's integer result, filled in by RunBatch.
	Res int64
	// Ok is the operation's boolean result (e.g. "key was present").
	Ok bool
	// Err reports a failed operation: when batch-panic containment is on
	// (ContainBatchPanics, enabled by Pump.Serve) and the op's group
	// panicked mid-BOP, the scheduler sets Err to a *BatchPanicError
	// before the submitter resumes. Ownership rule: Batchify clears Err
	// on entry, the scheduler is the only writer while the operation is
	// in flight, and the field is valid from completion until the record
	// is reused. RunBatch implementations must never touch it.
	Err error
	// Aux carries non-integer payloads when a structure needs them.
	Aux any

	// Phases is the op-lifecycle stamp vector (obs.PhaseRead ..
	// obs.PhaseDone), written only when Runtime.SetPhaseStamps enabled
	// stamping. Ownership is by slot: the submitter writes PhaseRead
	// before Submit/Batchify, Pump.Submit writes PhaseAdmit (under the
	// queue mutex), the scheduler writes PhasePending/PhaseLaunch/
	// PhaseLand while the op is in flight, and the completion owner
	// writes PhaseDone. A fixed array keeps the stamping
	// allocation-free; slots a path never crosses simply stay stale and
	// are clamped out by obs.PhaseDurations.
	Phases [obs.NumPhases]int64
	// BatchSize and BatchGroup identify the batch that landed this op:
	// the working-set size and the op's group index within it. Written
	// with PhaseLand, under the same enablement.
	BatchSize  int32
	BatchGroup int32

	// worker is the id of the trapped worker, recorded by Batchify so
	// that LaunchBatch can flip exactly the participants' statuses, or
	// -1 for a rider claimed by the launch-time top-up (Pump.topUp).
	worker int32
}

// Batched is the interface a batched data structure presents to the
// scheduler: a single parallel batched operation (the paper's BOP).
//
// RunBatch performs every operation in ops, collectively and possibly in
// parallel via ctx. The scheduler guarantees that at most one batch is
// executing at any time (Invariant 1) and that len(ops) <= P
// (Invariant 2), so implementations need no locks or atomics. RunBatch
// runs as a batch-dag task: forks it performs go to batch deques and may
// be executed by any worker, free or trapped.
type Batched interface {
	RunBatch(ctx *Ctx, ops []*OpRecord)
}

// Batchify submits op to the scheduler as a data-structure node and
// blocks until some batch has performed it, per the trapped-worker rules
// of Figure 3. It must be called from a core-dag task (data-structure
// implementations must not access data structures). On return, op's
// result fields are filled in.
//
// The calling worker becomes trapped: it publishes op in its pending-array
// slot, sets its status to pending, and then executes only batch work —
// popping its batch deque, launching a batch if none is active, or
// stealing from random victims' batch deques — until its status becomes
// done.
func (c *Ctx) Batchify(op *OpRecord) {
	if c.kind != KindCore {
		panic("sched: Batchify called from a batch task; batched data structures must not access other batched structures")
	}
	if op.DS == nil {
		panic("sched: Batchify with nil OpRecord.DS")
	}
	w := c.w
	rt := w.rt
	op.worker = int32(w.id)
	op.Err = nil // the scheduler owns Err until the operation completes
	if rt.stampPhases {
		op.Phases[obs.PhasePending] = obs.Now()
	}

	// Publish the record, then the status. Both stores are sequentially
	// consistent, so a launcher that observes status==pending also
	// observes the record. With a conformance monitor attached, the
	// slot's stamp and its landed-batch count (the Theorem 5.4 delay and
	// Lemma 2 gauges) are read only *after* the publish: a worker
	// descheduled mid-publish is then never charged delay or landings it
	// was not pending for. Until those reads land both hold MaxInt64,
	// which a launcher reads as "pending since my own batch".
	slot := &rt.pending[w.id]
	if rt.conform != nil {
		slot.stamp.Store(math.MaxInt64)
		slot.seq.Store(math.MaxInt64)
	}
	slot.rec.Store(op)
	w.status.Store(int32(StatusPending))
	if rt.conform != nil {
		slot.stamp.Store(obs.Now())
		slot.seq.Store(rt.liveBatches.Load())
	}
	w.m.OpsSubmitted++

	for {
		rt.checkAbort()
		// Trapped workers execute nodes from a batch deque when possible.
		if t := w.batch.PopBottom(); t != nil {
			w.runTask(t)
			continue
		}
		if Status(w.status.Load()) == StatusDone {
			w.status.Store(int32(StatusFree))
			return
		}
		// The paper's launch rule: the first time the flag is seen
		// clear, claim it.
		if rt.batchFlag.Load() == 0 && rt.batchFlag.CompareAndSwap(0, 1) {
			// We are the launcher: inject LaunchBatch at the bottom
			// of our batch deque and let the normal loop execute it
			// (so that its parallel setup/cleanup is itself
			// stealable batch work). The task is detached — nobody
			// joins on it — so whichever worker runs it recycles
			// the frame (recycleAfterRun).
			w.m.BatchesLaunched++
			if tr := rt.tracer; tr != nil {
				tr.Record(w.id, obs.EvBatchLaunch, 0, 0)
			}
			lt := w.getTask()
			lt.fn = rt.launchFn
			lt.kind = KindBatch
			lt.group = 0 // scheduler work: a panic here is never contained
			lt.recycleAfterRun = true
			w.batch.PushBottom(lt)
			rt.idle.wake()
			continue
		}
		if !w.stealAndRun(true) {
			w.idleTrapped()
		}
	}
}

// batchScratch holds the per-runtime buffers LaunchBatch works out of,
// allocated once in New and reused for every batch. Reuse is legal
// because Invariant 1 serializes batches and the batch flag's
// reset-then-CAS pair orders one batch's accesses before the next's (see
// DESIGN.md §7). The loop bodies are pre-bound closures over the runtime
// so that the parallel steps of LaunchBatch allocate nothing per batch.
type batchScratch struct {
	// claimed[i] is worker i's acknowledged record, or nil; every slot is
	// written unconditionally each batch, so no clearing pass is needed.
	claimed []*OpRecord
	// working is the compacted working set (capacity P, never grows).
	working []*OpRecord
	// groups partitions working by target structure; opsBuf provides the
	// backing storage for the groups' ops slices (both capacity P).
	groups []dsGroup
	opsBuf []*OpRecord

	// Containment state (see contain.go). groupLive[g] counts outstanding
	// tasks of group g's batch subtree — incremented by the pusher before
	// a group-tagged task becomes stealable, decremented when it finishes
	// — so a contained panic that unwound past join frames can still wait
	// for the group's stolen work before the batch completes. panicked[g]
	// records the first recovered panic value per group (panicMu guards
	// it; the path is already catastrophic, so a mutex is fine), and
	// anyPanic flags that the post-step-3 marking scan is needed at all.
	groupLive []atomic.Int32
	panicked  []any
	panicMu   sync.Mutex
	anyPanic  atomic.Bool

	ackBody   func(*Ctx, int) // step 1: pending -> executing, collect
	groupBody func(*Ctx, int) // step 3: run one group's BOP
	doneBody  func(*Ctx, int) // step 4: executing -> done
}

func (s *batchScratch) init(rt *Runtime) {
	nw := len(rt.workers)
	s.claimed = make([]*OpRecord, nw)
	s.working = make([]*OpRecord, 0, nw)
	s.groups = make([]dsGroup, 0, nw)
	s.opsBuf = make([]*OpRecord, 0, nw)
	s.groupLive = make([]atomic.Int32, nw)
	s.panicked = make([]any, nw)
	s.ackBody = func(_ *Ctx, i int) {
		wi := rt.workers[i]
		if wi.status.CompareAndSwap(int32(StatusPending), int32(StatusExecuting)) {
			rec := rt.pending[i].rec.Swap(nil)
			if rec == nil {
				panic("sched: worker pending with empty pending slot")
			}
			s.claimed[i] = rec
		} else {
			s.claimed[i] = nil
		}
	}
	s.groupBody = func(cc *Ctx, i int) { rt.runGroup(cc, i) }
	s.doneBody = func(_ *Ctx, i int) {
		op := s.working[i]
		rt.workers[op.worker].status.Store(int32(StatusDone))
	}
}

// launchBatchBody is the LaunchBatch procedure of Figure 4. It runs as an
// ordinary batch-dag task on whichever workers steal into it, working out
// of rt.scratch.
func (rt *Runtime) launchBatchBody(c *Ctx) {
	nw := len(rt.workers)
	rt.batchesActive.Add(1)
	if got := rt.batchesActive.Load(); got != 1 {
		panic("sched: Invariant 1 violated: more than one batch active")
	}
	s := &rt.scratch
	var t0 time.Time
	if rt.tracer != nil {
		t0 = time.Now()
	}

	// Step 1: acknowledge pending records (pending -> executing) and
	// collect them. The status flips run as a parallel loop, as in the
	// paper; grain keeps tiny P from drowning in fork overhead.
	c.For(0, nw, 8, s.ackBody)

	// Step 2: compact the claimed records into the working set. The
	// paper's prototype performs this step sequentially on small P
	// (Section 7); we do the same — it is Θ(P) work either way.
	working := s.working[:0]
	for _, op := range s.claimed {
		if op != nil {
			working = append(working, op)
		}
	}
	// Launch-time top-up: while a Pump serves, fill the batch to P with
	// riders taken straight from its ingress queue. working[:trapped]
	// are the trapped workers' records, working[trapped:] the riders.
	trapped := len(working)
	p := rt.pump
	if p != nil {
		working = p.topUp(working, nw-trapped)
	}
	s.working = working
	if len(working) == 0 {
		// Possible: the flag was CASed by a worker whose own record was
		// consumed by the immediately preceding batch between its flag
		// check and the launch executing, and no backlog stands to ride
		// in its place. Nothing to do.
		rt.batchesActive.Add(-1)
		rt.batchFlag.Store(0)
		rt.idle.wake()
		return
	}
	if len(working) > nw {
		panic("sched: Invariant 2 violated: batch larger than P")
	}
	var launchNS int64
	if rt.stampPhases || rt.conform != nil {
		launchNS = obs.Now()
	}
	if rt.stampPhases {
		for i, op := range working {
			op.Phases[obs.PhaseLaunch] = launchNS
			if i >= trapped {
				// A rider was never pending: its claim is its launch.
				op.Phases[obs.PhasePending] = launchNS
			}
		}
	}

	// Step 3: execute the BOP on the working set. Records may target
	// different structures; group by structure (into scratch, no
	// allocation) and run the groups as a parallel loop — each structure
	// still sees at most one batch at a time.
	s.groupWorking()
	if len(s.groups) == 1 {
		rt.runGroup(c, 0)
	} else {
		c.For(0, len(s.groups), 1, s.groupBody)
	}

	// Contained failures: stamp Err on every op of each panicked group
	// now, before step 4 flips participant statuses — a participant that
	// observes done must also observe its record's Err (the status store
	// below is sequentially consistent and program-ordered after this).
	if s.anyPanic.Load() {
		s.markPanickedGroups()
	}

	// Phase stamps: land the batch on every participant now, before
	// step 4 flips statuses — a participant that observes done must also
	// observe its stamps (the same ordering rule as Err above). One
	// clock read serves the whole batch; the group scan also records
	// which batch each op rode in.
	var landNS int64
	if rt.stampPhases || rt.conform != nil {
		landNS = obs.Now()
	}
	if rt.stampPhases {
		size := int32(len(working))
		for gi := range s.groups {
			for _, op := range s.groups[gi].ops {
				op.Phases[obs.PhaseLand] = landNS
				op.BatchSize = size
				op.BatchGroup = int32(gi)
			}
		}
	}

	// Live conformance: feed the envelope monitor before step 4 flips
	// statuses, while each participant's pending slot still describes
	// this batch's publish (a worker cannot republish until it observes
	// done). The slot stamps are Batchify's own, so the monitor needs no
	// phase stamping; a slot still holding Batchify's MaxInt64 sentinel
	// drops out of both min()s, i.e. counts as pending since this
	// launch. Riders have no slot: they became pending at launch, one
	// landing ago.
	if m := rt.conform; m != nil {
		landed := rt.liveBatches.Load() // batches before this one
		minPending, minSeq := launchNS, landed
		for _, op := range working[:trapped] {
			slot := &rt.pending[op.worker]
			minPending = min(minPending, slot.stamp.Load())
			minSeq = min(minSeq, slot.seq.Load())
		}
		m.RecordBatch(launchNS, landNS, minPending, landed+1-minSeq, len(working))
	}

	// Record metrics before waking participants.
	c.w.m.BatchesExecuted++
	c.w.m.BatchedOps += int64(len(working))
	rt.liveBatches.Add(1)
	rt.liveOps.Add(int64(len(working)))
	if h := rt.batchHist; h != nil {
		h.Observe(int64(len(working)))
	}
	if tr := rt.tracer; tr != nil {
		dur := int64(time.Since(t0))
		if dur < 1 {
			dur = 1 // keep the exported span visible on coarse clocks
		}
		tr.Record(c.w.id, obs.EvBatchLand, int64(len(working)), dur)
	}

	// Step 4: mark participants done (executing -> done). Participants
	// cannot have changed status themselves, so plain stores suffice.
	// Riders have no status to flip: complete them here, after the
	// trapped participants are released and while the flag still guards
	// the scratch. This task runs inside some worker's scheduling loop
	// and Run joins every worker, so a drain cannot finish with riders
	// undelivered.
	c.For(0, trapped, 8, s.doneBody)
	for _, op := range working[trapped:] {
		p.complete(op)
	}

	// Step 5: reset the global batch-status flag, then wake parked
	// workers: the status stores above and the flag reset precede this
	// wake, so a trapped worker either parks before it (and is woken) or
	// re-checks after it (and observes done / flag clear).
	rt.batchesActive.Add(-1)
	rt.batchFlag.Store(0)
	rt.idle.wake()
}

// groupWorking partitions s.working by target structure into s.groups,
// with s.opsBuf as backing storage for the per-group slices. The double
// scan is O(|working|²) in the worst case, but |working| <= P and the
// common case is a single structure. Group order follows first
// appearance; order within a group follows compaction order.
func (s *batchScratch) groupWorking() {
	groups := s.groups[:0]
	buf := s.opsBuf[:0]
outer:
	for wi, op := range s.working {
		for gi := range groups {
			if groups[gi].ds == op.DS {
				continue outer // structure already grouped
			}
		}
		start := len(buf)
		buf = append(buf, op)
		for _, later := range s.working[wi+1:] {
			if later.DS == op.DS {
				buf = append(buf, later)
			}
		}
		groups = append(groups, dsGroup{ds: op.DS, ops: buf[start:len(buf):len(buf)]})
	}
	s.groups = groups
	s.opsBuf = buf
}

// dsGroup is one structure's slice of a batch's working set.
type dsGroup struct {
	ds  Batched
	ops []*OpRecord
}
