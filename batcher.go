// Package batcher is the public facade of this repository's
// implementation of BATCHER — the work-stealing scheduler with implicit
// batching from Agrawal, Fineman, Lu, Sheridan, Sukha and Utterback,
// "Provably Good Scheduling for Parallel Programs that Use Data
// Structures through Implicit Batching" (SPAA 2014).
//
// # Model
//
// A program is a dynamically multithreaded (fork-join) computation that
// makes parallel accesses to an abstract data type. The data type is
// implemented as a *batched* data structure: it provides one parallel
// batched operation (RunBatch) and never has to cope with concurrency,
// because the scheduler guarantees at most one batch executes at a time.
// The scheduler transparently groups concurrent accesses into batches of
// at most P operations and executes them via work stealing over
// per-worker core and batch deques with the alternating-steal policy.
//
// For a program with T1 work, T∞ span, n data-structure operations (at
// most m on any path), and a structure with batch work W(n) and batch
// span s(n), BATCHER runs in expected time
//
//	O((T1 + W(n) + n·s(n))/P + m·s(n) + T∞).
//
// # Quick start
//
//	rt := batcher.New(batcher.Config{Workers: 8})
//	ctr := counter.New(0)        // internal/ds/counter — a batched ADT
//	rt.Run(func(c *batcher.Ctx) {
//	    c.For(0, 1_000_000, 1, func(c *batcher.Ctx, i int) {
//	        ctr.Increment(c, 1)  // implicitly batched, linearizable
//	    })
//	})
//
// Batched structures in this module: counter.Batched (prefix-sums
// counter), stack.Batched (amortized table-doubling LIFO stack),
// skiplist.Batched (the Section 7 skip list), tree23.Batched (join-based
// batched 2-3 tree), and pqueue.Batched (batch-melding priority queue).
// Implement your own by satisfying the Batched interface — RunBatch may
// fork freely through the provided Ctx and needs no locks.
package batcher

import "batcher/internal/sched"

// Config configures a Runtime. See sched.Config.
type Config = sched.Config

// Runtime is a P-worker BATCHER scheduler instance.
type Runtime = sched.Runtime

// Ctx is the execution context passed to every task; it provides Fork,
// For, and Batchify.
type Ctx = sched.Ctx

// OpRecord is the operation record handed to a batched structure.
type OpRecord = sched.OpRecord

// OpKind is a structure-specific operation code.
type OpKind = sched.OpKind

// Batched is the interface batched data structures implement.
type Batched = sched.Batched

// BatchPanicError is what OpRecord.Err holds when a Pump or Server
// contained a panic in the operation's batch; match it with errors.As.
type BatchPanicError = sched.BatchPanicError

// Metrics aggregates scheduler event counters.
type Metrics = sched.Metrics

// StealPolicy selects the free-worker steal policy (the default,
// AlternatingSteal, is the one the paper's analysis requires).
type StealPolicy = sched.StealPolicy

// Steal policies. Non-default policies exist for ablation experiments.
const (
	AlternatingSteal = sched.AlternatingSteal
	CoreOnlySteal    = sched.CoreOnlySteal
	BatchOnlySteal   = sched.BatchOnlySteal
	RandomDequeSteal = sched.RandomDequeSteal
)

// Server is the standalone batching service for programs not written
// against the fork-join runtime (the paper's Section 8 "pthreaded
// programs" extension): any goroutine may Invoke operations, and the
// scheduler's workers execute the batches. It is a blocking façade over
// a Pump, so batches hold at most P operations and a panicking batched
// operation is contained: the affected Invoke calls return with
// OpRecord.Err a *BatchPanicError and the server keeps serving.
// Server.Close is idempotent: repeated or concurrent calls are safe and
// all wait for the drain; an Invoke that races Close either completes or
// panics, never hangs.
type Server = sched.Server

// ServerConfig configures a Server.
type ServerConfig = sched.ServerConfig

// Pump is the external-submission entry point used by the batcherd
// serving layer: goroutines outside the fork-join computation Submit
// operation records, and one resident pump task per worker feeds them
// through Ctx.Batchify, so concurrent submissions batch implicitly
// exactly as concurrent fork-join strands do. Pump.Close is idempotent
// (double-stop never panics) and drains every accepted operation before
// Serve returns.
type Pump = sched.Pump

// PumpConfig configures a Pump.
type PumpConfig = sched.PumpConfig

// ErrPumpClosed reports a Submit after Close, the only submission a
// Pump refuses.
var ErrPumpClosed = sched.ErrPumpClosed

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime { return sched.New(cfg) }

// NewServer starts a standalone batching server.
func NewServer(cfg ServerConfig) *Server { return sched.NewServer(cfg) }

// NewPump creates an external-submission pump over rt; start it with
// Serve and stop it with Close.
func NewPump(rt *Runtime, cfg PumpConfig) *Pump { return sched.NewPump(rt, cfg) }

// Run is a convenience that creates a default runtime and executes root
// to completion.
func Run(root func(*Ctx)) {
	New(Config{}).Run(root)
}
