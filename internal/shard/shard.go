// Package shard is the key-hashed multi-runtime routing layer between
// batcherd's wire edge and the scheduler: a Router owns N independent
// shards, each a full sched.Runtime + sched.Pump + its own set of
// batched structures, and places every operation on exactly one shard
// by hashing its (ds, key) pair. Implicit batching then happens *per
// shard*: each shard's pending array coalesces only the operations
// routed to it, so Invariant 1 (one batch in flight) and Invariant 2
// (at most P operations per batch) hold per shard, the Theorem 5.4
// delay envelope is auditable per shard, and a poisoned batch's blast
// radius shrinks from "the process" to "one shard" — the
// decompose-into-independent-batched-instances move that lets a batched
// structure scale past one runtime's pending array.
//
// Placement rules (DESIGN.md §13):
//
//   - Keyed operations (skip list, 2-3 tree, hash map) go to
//     Of(ds, key, N): all operations on one key always meet the same
//     shard, so per-key semantics are exactly the single-runtime ones.
//   - Keyless operations (the counter) pin to the structure's *home
//     shard*, Home(ds, N): a prefix-sums counter cannot be split by key
//     without changing its semantics (the returned running totals form
//     one global permutation), so the whole structure lives on one
//     deterministic shard instead. Spreading counter ops across shards
//     would turn one linearizable counter into N independent ones.
//   - Stats reads (DSStats) never enter any pump: the serving layer
//     fans the read out across every shard's live counters and merges
//     them into one aggregated document plus a per-shard breakdown.
//
// The Router is single-process — N runtimes behind one listener — and
// is the proving ground for the multi-process tier: the placement
// function is pure and stable, so the same routing decisions can later
// be made by a client library picking between batcherd processes.
package shard

import (
	"sync"
	"sync/atomic"

	"batcher/internal/sched"
)

// Of places a keyed operation: the shard index for key on structure ds
// among n shards. It is a pure function of its arguments — stable
// across processes and restarts — so clients, tests, and a future
// multi-node routing tier all agree on placement without coordination.
// The mix is splitmix64's finalizer over the key, salted by ds so two
// structures do not shard identically (a hot key on the skip list does
// not also pin the same shard's hash map).
func Of(ds uint8, key int64, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(key)*0x9E3779B97F4A7C15 ^ (uint64(ds)+1)*0xD1342543DE82EF95
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// Home places a keyless operation: the single deterministic shard a
// structure with no meaningful key (the counter) lives on. It is Of at
// a fixed sentinel key, so it inherits Of's stability and ds-salting —
// different keyless structures land on different shards in general.
// (The sentinel is 1, not 0: with this mix, key 0 would pin the counter
// to shard 0 at the power-of-two shard counts the chaos suite uses,
// defeating the poisoned-shard-0 isolation test.)
func Home(ds uint8, n int) int { return Of(ds, 1, n) }

// Config configures a Router.
type Config struct {
	// Shards is N, the number of independent runtime shards. Values
	// below 1 are raised to 1 (the single-runtime layout).
	Shards int
	// Workers is each shard's scheduler worker count P (so the process
	// runs Shards×P workers). Zero means GOMAXPROCS per shard.
	Workers int
	// Seed seeds each shard's runtime RNGs; shard i derives seed+i so
	// shards do not take correlated steal decisions.
	Seed uint64
	// QueueCap bounds each shard's pump ingress queue (per shard, not
	// global: saturation is a per-shard condition). Zero means the
	// pump's default, 8×P.
	QueueCap int
	// NewDS builds shard i's structure set, indexed by the wire ds
	// code. The router itself never interprets the structures — it only
	// stores and serves them — so the serving layer keeps sole
	// ownership of wire-code semantics (and of fault-injection
	// wrapping, which is why the shard index is exposed here).
	NewDS func(shard int) []sched.Batched
	// OnDone, if non-nil, is invoked on a scheduler worker of the
	// owning shard after an operation's batch completes, with the
	// record's result fields filled in and the shard index attached.
	// Same contract as sched.PumpConfig.OnDone: fast, never blocks.
	OnDone func(shard int, op *sched.OpRecord)
}

// Shard is one independent batching domain: a runtime, its pump, and
// its structure instances. All per-shard state hangs off it, including
// the admission books (Accepted/Completed/Failed) that let tests and
// the stats document audit each shard's drain independently.
type Shard struct {
	id   int
	rt   *sched.Runtime
	pump *sched.Pump
	ds   []sched.Batched

	accepted  atomic.Int64 // operations admitted into this shard's pump
	completed atomic.Int64 // operations whose OnDone fired
	failed    atomic.Int64 // completed with Err (contained batch panic)
}

// ID returns the shard's index in its router.
func (sh *Shard) ID() int { return sh.id }

// Runtime returns the shard's scheduler runtime.
func (sh *Shard) Runtime() *sched.Runtime { return sh.rt }

// Pump returns the shard's pump.
func (sh *Shard) Pump() *sched.Pump { return sh.pump }

// DS returns the shard's structure for wire code i, or nil when i is
// out of range (the caller validates wire codes; nil just means "no
// such structure" rather than a panic on hostile input).
func (sh *Shard) DS(i int) sched.Batched {
	if i < 0 || i >= len(sh.ds) {
		return nil
	}
	return sh.ds[i]
}

// SubmitAll bulk-submits ops into the shard's pump (one lock, one
// wake — see sched.Pump.SubmitAll) and counts the admitted prefix into
// the shard's books. Contract is the pump's: the first n are admitted,
// the rest remain the caller's to park or reject.
func (sh *Shard) SubmitAll(ops []*sched.OpRecord) (n int, err error) {
	n, err = sh.pump.SubmitAll(ops)
	if n > 0 {
		sh.accepted.Add(int64(n))
	}
	return n, err
}

// Books returns the shard's admission ledger. After a full drain,
// accepted == completed: every operation this shard admitted was
// answered exactly once (failed counts the completed subset that
// carried a contained-panic Err).
func (sh *Shard) Books() (accepted, completed, failed int64) {
	return sh.accepted.Load(), sh.completed.Load(), sh.failed.Load()
}

// Router owns the shard set and the placement function over it.
type Router struct {
	shards []*Shard
}

// NewRouter builds the shard set: N runtimes, N pumps, N structure
// sets. Nothing serves yet — call Serve (usually on its own goroutine)
// to start the pumps, Close to begin the drain.
func NewRouter(cfg Config) *Router {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	r := &Router{shards: make([]*Shard, cfg.Shards)}
	for i := range r.shards {
		sh := &Shard{id: i}
		sh.rt = sched.New(sched.Config{
			Workers: cfg.Workers,
			Seed:    cfg.Seed + uint64(i),
		})
		if cfg.NewDS != nil {
			sh.ds = cfg.NewDS(i)
		}
		done := cfg.OnDone
		sh.pump = sched.NewPump(sh.rt, sched.PumpConfig{
			QueueCap: cfg.QueueCap,
			OnDone: func(op *sched.OpRecord) {
				// Books first: a test that saw op's response must also
				// see it counted (OnDone callbacks observe the ledger
				// through the response path, which runs after this).
				sh.completed.Add(1)
				if op.Err != nil {
					sh.failed.Add(1)
				}
				if done != nil {
					done(sh.id, op)
				}
			},
		})
		r.shards[i] = sh
	}
	return r
}

// N returns the shard count.
func (r *Router) N() int { return len(r.shards) }

// Shard returns shard i.
func (r *Router) Shard(i int) *Shard { return r.shards[i] }

// Shards returns the shard slice (read-only by convention).
func (r *Router) Shards() []*Shard { return r.shards }

// ShardOf routes a keyed operation (see Of).
func (r *Router) ShardOf(ds uint8, key int64) int {
	return Of(ds, key, len(r.shards))
}

// Home routes a keyless operation (see Home).
func (r *Router) Home(ds uint8) int { return Home(ds, len(r.shards)) }

// Serve runs every shard's pump and blocks until all of them have
// drained (each pump.Serve returns only after Close and a full drain).
// Shards serve concurrently and independently: a saturated, stalled, or
// panicking shard never gates a sibling's batches.
func (r *Router) Serve() {
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			sh.pump.Serve()
		}(sh)
	}
	wg.Wait()
}

// Close stops admission on every shard and begins the drains.
// Idempotent (pump.Close is); it does not wait — wait on Serve.
func (r *Router) Close() {
	for _, sh := range r.shards {
		sh.pump.Close()
	}
}

// Depth returns the summed pump ingress depth across shards.
func (r *Router) Depth() int {
	d := 0
	for _, sh := range r.shards {
		d += sh.pump.Depth()
	}
	return d
}

// LiveBatchStats sums executed batches and batched operations across
// shards (each term readable mid-serve, like the runtime's own).
func (r *Router) LiveBatchStats() (batches, ops int64) {
	for _, sh := range r.shards {
		b, o := sh.rt.LiveBatchStats()
		batches += b
		ops += o
	}
	return batches, ops
}

// BatchPanics sums contained batch panics across shards.
func (r *Router) BatchPanics() int64 {
	var n int64
	for _, sh := range r.shards {
		n += sh.rt.BatchPanics()
	}
	return n
}

// LiveSteals sums successful scheduler steals across shards.
func (r *Router) LiveSteals() int64 {
	var n int64
	for _, sh := range r.shards {
		n += sh.rt.LiveSteals()
	}
	return n
}
