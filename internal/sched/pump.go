package sched

// This file implements the runtime's external-submission entry point,
// the bridge batcherd uses to extend implicit batching to the network
// edge. Code outside the fork-join computation (acceptor goroutines,
// auxiliary threads) cannot call Batchify directly — Batchify traps the
// *scheduler worker* that executes it, and a network reader is not a
// worker. A Pump closes the gap: submitters enqueue operation records
// into a FIFO queue, and the runtime runs P long-lived "pump" core
// tasks, one resident on each worker, that poll the queue and Batchify
// each record. Concurrent network requests are thereby coalesced into
// batches by exactly the machinery of Section 4 — the pending array,
// the work-status flags, and the global batch flag — just as concurrent
// fork-join strands are. A launching batch then tops itself up to P
// straight from the queue (topUp): the extra records ride the batch
// without a trapped worker of their own. Invariant 1 is untouched, and
// Invariant 2 holds by construction: k <= P workers are trapped and the
// top-up claims at most P - k.
//
// The pump refuses nothing while it serves. In the paper the only bound
// on waiting work is the pending array, at most P records, and nothing
// in front of it turns an operation away; here each caller bounds what
// it submits (batcherd's connection windows, Server's slots), so the
// queue holds at most what the callers have outstanding. Only Close
// ends admission.

import (
	"errors"
	"sync"
	"sync/atomic"

	"batcher/internal/obs"
)

// ErrPumpClosed is returned by Submit after Close: the pump is
// draining and accepts no new operations.
var ErrPumpClosed = errors.New("sched: Submit on closed Pump")

// PumpConfig configures a Pump.
type PumpConfig struct {
	// OnDone, if non-nil, is invoked on a scheduler worker immediately
	// after an operation's batch completes, with the record's result
	// fields filled in. It must be fast and must never block (a blocked
	// OnDone stalls a scheduler worker); hand off to a channel or queue
	// with guaranteed capacity instead.
	OnDone func(*OpRecord)
}

// Pump is the safe external-submission entry point: any goroutine may
// Submit operation records, and the runtime's pump tasks feed them
// through Batchify so they batch implicitly with each other. Create
// with NewPump, start with Serve (usually on its own goroutine), stop
// with Close — which is idempotent and drains every accepted operation
// before Serve returns.
type Pump struct {
	rt  *Runtime
	cfg PumpConfig

	mu   sync.Mutex
	q    []*OpRecord // FIFO: q[head:] are the queued records
	head int
	// closed and depth (== len(q)-head) are written under mu and read
	// without it, so idle pump loops and stats readers
	// never contend with submitters.
	closed atomic.Bool
	depth  atomic.Int64

	// served counts completed operations (monotonic; readable live).
	served atomic.Int64
}

// NewPump creates a pump over rt. The runtime must not be running a
// plain Run while the pump serves (Serve occupies it).
func NewPump(rt *Runtime, cfg PumpConfig) *Pump {
	return &Pump{rt: rt, cfg: cfg}
}

// Runtime returns the runtime this pump serves on.
func (p *Pump) Runtime() *Runtime { return p.rt }

// Submit enqueues op for implicit batching and returns immediately; the
// result arrives via PumpConfig.OnDone. It is SubmitAll of one record:
// it never blocks, and after Close it returns ErrPumpClosed and the
// record is untouched. Safe for concurrent use from any goroutine. The
// record must not be reused until OnDone delivers it.
func (p *Pump) Submit(op *OpRecord) error {
	ops := [1]*OpRecord{op}
	_, err := p.SubmitAll(ops[:])
	return err
}

// SubmitAll enqueues every record of ops under one mutex acquisition and
// with at most one waker call — the bulk analogue of Submit for callers
// (batcherd's reactor loops) that decode several operations from one
// socket read. It admits all of ops or none: it returns (len(ops), nil),
// and the records must not be reused until OnDone delivers them, or
// (0, ErrPumpClosed) after Close, with every record untouched.
func (p *Pump) SubmitAll(ops []*OpRecord) (n int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	for _, op := range ops {
		if op.DS == nil {
			panic("sched: Submit with nil OpRecord.DS")
		}
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		if tr := p.rt.tracer; tr != nil {
			tr.Record(tr.ExternalRing(), obs.EvPumpReject, 2, 0)
		}
		return 0, ErrPumpClosed
	}
	if len(p.q)+len(ops) > cap(p.q) && p.head >= len(p.q)/2 {
		// Slide the live records to the front instead of growing: pop
		// rewinds only when the queue empties, so under a standing
		// backlog the array would otherwise grow by every record it
		// ever held. Sliding only once at least half the array is
		// popped keeps the copying amortized O(1) per record.
		live := copy(p.q, p.q[p.head:])
		clear(p.q[live:])
		p.q = p.q[:live]
		p.head = 0
	}
	for _, op := range ops {
		if p.rt.conform != nil {
			// PhaseAdmit: the op enters the ingress queue. Stamped inside
			// the critical section so the pump task that claims the record
			// (under this same mutex) — and everything downstream of it,
			// including the OnDone callback — observes the stamp without
			// further synchronization.
			op.Phases[obs.PhaseAdmit] = obs.Now()
		}
		p.q = append(p.q, op)
	}
	depth := len(p.q) - p.head
	p.depth.Store(int64(depth))
	p.mu.Unlock()
	if tr := p.rt.tracer; tr != nil {
		for range ops {
			tr.Record(tr.ExternalRing(), obs.EvPumpAdmit, int64(depth), 0)
		}
	}
	// One wake covers the whole span: a parking pump re-checks the queue
	// after beginPark, so it sees every record published above.
	p.rt.idle.wake()
	return len(ops), nil
}

// Close stops admission and begins the drain: operations already
// accepted are still batched and delivered, then Serve returns. Close
// is idempotent and safe to call concurrently from any goroutine; it
// does not wait for the drain (wait on Serve for that).
func (p *Pump) Close() {
	p.mu.Lock()
	p.closed.Store(true)
	p.mu.Unlock()
	p.rt.idle.wake()
}

// Depth returns the current ingress-queue depth (submitted operations
// not yet claimed by a pump task or a batch top-up). Readable at any
// time; it never takes the queue mutex.
func (p *Pump) Depth() int { return int(p.depth.Load()) }

// Served returns the number of completed operations. Readable at any
// time.
func (p *Pump) Served() int64 { return p.served.Load() }

// pop dequeues the head record. The caller holds p.mu and has checked
// that the queue is nonempty.
func (p *Pump) pop() *OpRecord {
	op := p.q[p.head]
	p.q[p.head] = nil
	p.head++
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	}
	p.depth.Store(int64(len(p.q) - p.head))
	return op
}

// poll claims the next queued record, or reports drained=true when the
// pump is closed and the queue is empty (the pump task should return).
// An empty queue is answered from the atomics alone. closed is read
// first: Close follows every accepted Submit in mutex order, so a true
// closed makes the depth read after it final.
func (p *Pump) poll() (op *OpRecord, drained bool) {
	closed := p.closed.Load()
	if p.depth.Load() == 0 {
		return nil, closed
	}
	p.mu.Lock()
	if p.head < len(p.q) {
		op = p.pop()
	}
	p.mu.Unlock()
	return op, false
}

// topUp is the launch-time top-up: called by LaunchBatch (which holds
// the batch flag) after compaction, it claims up to n queued records
// under one mutex acquisition and appends them to the working set as
// riders — operations with no trapped worker (worker < 0) and no
// pending-array slot, executed and stamped with the rest of the batch
// and completed by LaunchBatch itself (complete) instead of a status
// flip.
func (p *Pump) topUp(working []*OpRecord, n int) []*OpRecord {
	if n <= 0 || p.depth.Load() == 0 {
		return working
	}
	p.mu.Lock()
	for ; n > 0 && p.head < len(p.q); n-- {
		op := p.pop()
		op.worker = -1
		op.Err = nil // the scheduler owns Err until the operation completes
		working = append(working, op)
	}
	p.mu.Unlock()
	return working
}

// complete finishes one pump-fed operation: count it, then hand it to
// OnDone. Trapped operations complete on their pump worker once
// Batchify returns, riders on the worker that ran their batch.
func (p *Pump) complete(op *OpRecord) {
	p.served.Add(1)
	if p.cfg.OnDone != nil {
		p.cfg.OnDone(op)
	}
}

// ready reports whether a pump task has a reason to run: a queued
// record or a close to acknowledge. It is the park re-check condition.
func (p *Pump) ready() bool { return p.closed.Load() || p.depth.Load() > 0 }

// Serve runs the pump on the runtime until Close has been called and
// every accepted operation has completed. It wraps a single Runtime.Run
// whose root forks one pump task per worker, so it must not overlap
// another Run (or Serve) on the same runtime; it blocks until the drain
// finishes.
//
// Serve enables batch-panic containment for its duration: a panicking
// BOP is charged to its own group — those records come back with Err
// set to a *BatchPanicError (observable in OnDone) and BatchPanics is
// incremented — while every other operation, connection, and batch
// proceeds. A serving edge fed untrusted input must degrade per
// operation, not per process. Panics outside batch groups (a pump bug,
// a panicking OnDone) still abort and re-panic out of Serve, exactly as
// Run does.
func (p *Pump) Serve() {
	rt := p.rt
	rt.ContainBatchPanics(true)
	defer rt.ContainBatchPanics(false)
	// Quiescent writes, like SetTracer's: Run starts the workers after
	// the first and joins them before the second.
	rt.pump = p
	defer func() { rt.pump = nil }()
	rt.Run(func(c *Ctx) {
		n := len(rt.workers)
		if n == 1 {
			p.pumpLoop(c)
			return
		}
		c.For(0, n, 1, func(c *Ctx, _ int) { p.pumpLoop(c) })
	})
}

// pumpLoop is the body of one pump task. It polls the ingress queue and
// traps through Batchify like any core task; while the queue is empty
// it helps with *batch* work only. It deliberately never executes core
// tasks: in a serving runtime the only core tasks are sibling pump
// loops, and nesting one here (it would not return until Close) would
// serialize several pumps onto one worker's stack, shrinking achieved
// batch sizes. Unstolen sibling pumps are instead picked up by idle
// workers' main loops, whose park re-check watches core deques.
func (p *Pump) pumpLoop(c *Ctx) {
	w := c.w
	rt := w.rt
	for {
		rt.checkAbort()
		op, drained := p.poll()
		if op != nil {
			w.idleFails = 0
			c.Batchify(op)
			p.complete(op)
			continue
		}
		if drained {
			return
		}
		if t := w.batch.PopBottom(); t != nil {
			w.runTask(t)
			continue
		}
		if w.stealAndRun(true) {
			continue
		}
		if !w.spin() {
			continue
		}
		rt.idle.beginPark(w.id)
		if p.ready() || rt.aborting.Load() ||
			!w.batch.Empty() || w.victimsHaveWork(true) {
			rt.idle.cancelPark(w.id)
			continue
		}
		w.parkAndSleep()
	}
}
