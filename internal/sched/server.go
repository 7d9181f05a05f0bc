package sched

// Server implements the extension sketched in the paper's conclusion
// (Section 8): "a pthreaded program could run as normal, with
// data-structure calls replaced by BATCHER calls, allowing work-stealing
// to operate over the data structure batches while static pthreading
// operates over the main program."
//
// Here the "pthreads" are ordinary goroutines outside the scheduler, and
// Server is a blocking façade over a Pump: the operation crosses the
// same pending array, launch-time top-up and panic containment as every
// other pump-fed operation, so Invariants 1 and 2 hold for it
// structurally — there is no second batch executor to keep in step.

import (
	"sync"
	"unsafe"
)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Workers is P, the scheduler workers executing batches — and so,
	// by Invariant 2, the most operations one batch carries.
	Workers int
	// Seed seeds victim selection.
	Seed uint64
}

// Server is a standalone implicit-batching service for code that is not
// written against the fork-join runtime. Create with NewServer, submit
// with Invoke from any goroutine, and Close when done.
//
// A panicking batched operation does not take the process down: the
// pump contains it, the operations of that structure's group come back
// from Invoke with OpRecord.Err set to a *BatchPanicError, and the
// server keeps serving.
type Server struct {
	pump *Pump
	// slots bounds admitted operations to 8·P: an Invoke beyond it
	// blocks here, so the pump's queue never holds more than that.
	slots chan struct{}
	// waiters holds, per in-flight record, the channel its Invoke is
	// parked on. One mutex here cost 25 % at 32 clients (every client and
	// every worker's OnDone met on it); sharded by record they rarely meet.
	waiters [16]waitShard

	done chan struct{} // closed once Serve has drained and returned
}

type waitShard struct {
	mu sync.Mutex
	m  map[*OpRecord]chan struct{}
	_  [cacheLinePad - 16]byte
}

// shard picks op's shard from its address (the bits above a record's
// size, so neighbouring heap records land on different shards).
func (s *Server) shard(op *OpRecord) *waitShard {
	return &s.waiters[uintptr(unsafe.Pointer(op))>>8%uintptr(len(s.waiters))]
}

// NewServer starts a batching server. The returned server is live:
// Invoke may be called immediately.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{done: make(chan struct{})}
	for i := range s.waiters {
		s.waiters[i].m = make(map[*OpRecord]chan struct{})
	}
	rt := New(Config{Workers: cfg.Workers, Seed: cfg.Seed})
	s.pump = NewPump(rt, PumpConfig{OnDone: s.onDone})
	s.slots = make(chan struct{}, 8*rt.Workers())
	go func() {
		s.pump.Serve()
		close(s.done)
	}()
	return s
}

// Invoke performs op through implicit batching, blocking the calling
// goroutine (without occupying a scheduler worker) until the operation
// has executed as part of a batch. While 8·P operations are already
// admitted it waits for a completion: it never drops an operation. If
// op's batch panicked, op.Err is a *BatchPanicError on return. Safe for
// concurrent use by any number of goroutines. Invoke on a closed Server
// panics — including one that was still waiting for admission when
// Close was called.
func (s *Server) Invoke(op *OpRecord) {
	if op.DS == nil {
		panic("sched: Invoke with nil OpRecord.DS")
	}
	s.slots <- struct{}{}
	done := make(chan struct{})
	sh := s.shard(op)
	sh.mu.Lock()
	sh.m[op] = done // before Submit: OnDone may run before it returns
	sh.mu.Unlock()
	// The pump refuses only after Close.
	if s.pump.Submit(op) != nil {
		sh.mu.Lock()
		delete(sh.m, op)
		sh.mu.Unlock()
		<-s.slots
		panic("sched: Invoke on closed Server")
	}
	<-done
}

// onDone is the pump's completion callback: free the op's slot and
// release its Invoke. It runs on a scheduler worker and never blocks:
// the slot it receives is the one this op's Invoke sent.
func (s *Server) onDone(op *OpRecord) {
	sh := s.shard(op)
	sh.mu.Lock()
	done := sh.m[op]
	delete(sh.m, op)
	sh.mu.Unlock()
	<-s.slots
	close(done)
}

// Close stops admission, drains every operation an Invoke has already
// submitted, and shuts the server down. An Invoke that has not submitted
// by then — a late caller, or one of more than 8·P concurrent callers
// still waiting for admission — panics instead of hanging. Close
// is idempotent: repeated or concurrent calls all block until the drain
// completes and none panic.
func (s *Server) Close() {
	s.pump.Close()
	<-s.done
}

// Metrics returns the underlying runtime's aggregated counters. Call
// after Close.
func (s *Server) Metrics() Metrics { return s.pump.Runtime().Metrics() }
