package sched

// This file defines the batch-formation policy seam: the *decision*
// half of launching a batch, extracted behind an interface so that
// launch strategies (immediate, size-capped, deadline-aware)
// can compete without touching the scheduler's mechanism. The split
// follows the BatchFormation extraction rule — decisions (when to stop
// waiting and claim the flag) are pluggable; side effects (the flag
// CAS, LaunchBatch's ack/compact/BOP/done/reset sequence, status
// flips) stay in the scheduler, because the paper's
// Invariants 1 and 2 and the Theorem 5.4 delay bound are properties of
// the mechanism, not the policy. A policy can only choose *when* an
// idle flag is claimed; it cannot add batch landings, oversize a batch,
// or overlap two batches. See DESIGN.md §14.

import "batcher/internal/obs"

// LaunchReason is a batch policy's verdict on one flag-check iteration
// of a trapped worker: LaunchHold keeps lingering, every other value
// claims the batch flag and is counted (per runtime, LaunchReasons)
// when the claim succeeds. The named reasons exist so operators can see
// *why* batches launch — a deadline policy whose launches are all
// LaunchFull is not trading latency for anything.
type LaunchReason uint8

const (
	// LaunchHold means keep waiting: yield and re-check.
	LaunchHold LaunchReason = iota
	// LaunchImmediate is the paper's rule and the default policy's only
	// reason: no linger budget was granted, so the first idle-flag check
	// launches (and, under a serving pump, tops the batch up to P from
	// the ingress queue instead of waiting for workers to trap).
	LaunchImmediate
	// LaunchNoBacklog means the ingress queue drained: nothing is left
	// for sibling workers to trap on, so waiting buys no coalescing.
	LaunchNoBacklog
	// LaunchBudget means the linger-yield budget ran out — the
	// scheduler's liveness backstop, applied even when the policy would
	// keep holding.
	LaunchBudget
	// LaunchFull means all P workers are trapped: Invariant 2 caps the
	// batch at P operations, so it cannot grow further.
	LaunchFull
	// LaunchSizeCap means a size-cap policy's trapped-worker threshold
	// was reached.
	LaunchSizeCap
	// LaunchDeadline means a deadline policy's oldest pending operation
	// neared its latency budget.
	LaunchDeadline

	// NumLaunchReasons sizes per-reason counter arrays.
	NumLaunchReasons = int(LaunchDeadline) + 1
)

// LaunchReasonNames maps LaunchReason values to stable wire/metric
// label names.
var LaunchReasonNames = [NumLaunchReasons]string{
	LaunchHold:      "hold",
	LaunchImmediate: "immediate",
	LaunchNoBacklog: "no-backlog",
	LaunchBudget:    "budget-exhausted",
	LaunchFull:      "batch-full",
	LaunchSizeCap:   "size-cap",
	LaunchDeadline:  "deadline",
}

// String returns the reason's stable name.
func (r LaunchReason) String() string {
	if int(r) < len(LaunchReasonNames) {
		return LaunchReasonNames[r]
	}
	return "invalid"
}

// PolicyView is the read-only window a BatchPolicy gets onto the
// runtime at one flag-check iteration of one trapped worker. The
// accessor methods are lazy — a policy that never calls Trapped pays
// nothing for it — and all of them are safe to call from the trapped
// worker's scheduler loop (they read only atomics).
type PolicyView struct {
	rt *Runtime

	// Workers is P, the runtime's worker count (the Invariant 2 batch
	// size cap).
	Workers int
	// External reports the submission path: true for pump-fed
	// operations (network edge), false for core-program Batchify.
	External bool
	// YieldsLeft is the remaining linger-yield budget, including the
	// current iteration. When it reaches zero the scheduler launches
	// with LaunchBudget regardless of the policy — the liveness
	// backstop that makes a buggy policy degrade into bounded delay
	// instead of livelock.
	YieldsLeft int
}

// Backlog reports whether the serving pump has more queued external
// work, which sibling workers could trap on and which the launch-time
// top-up will take as riders. Always false for core-program calls.
func (v PolicyView) Backlog() bool {
	return v.rt.pump != nil && v.rt.pump.Depth() > 0
}

// Trapped counts workers with a published pending record — the size
// the batch would have if launched right now. O(P) scan over the
// pending array.
func (v PolicyView) Trapped() int {
	n := 0
	for i := range v.rt.pending {
		if v.rt.pending[i].rec.Load() != nil {
			n++
		}
	}
	return n
}

// OldestPendingNS returns the age in nanoseconds of the oldest
// currently pending operation (time since its record was published),
// or -1 when no record is pending. It reads the pending slots' publish
// stamps, not the records themselves — records are recycled by their
// owning workers, so a cross-worker read of OpRecord fields would race.
func (v PolicyView) OldestPendingNS() int64 {
	oldest := int64(-1)
	for i := range v.rt.pending {
		if v.rt.pending[i].rec.Load() == nil {
			continue
		}
		// The stamp is stored before the record (both sequentially
		// consistent), so a visible record implies a visible stamp —
		// the real one, or the MaxInt64 sentinel Batchify holds there
		// mid-publish while a conformance monitor is attached.
		if s := v.rt.pending[i].stamp.Load(); oldest == -1 || s < oldest {
			oldest = s
		}
	}
	if oldest == -1 {
		return -1
	}
	age := obs.Now() - oldest
	if age < 0 {
		age = 0 // the sentinel, or a stamp taken after this clock read
	}
	return age
}

// BatchPolicy decides whether a trapped worker lingers before it
// launches a batch. Policies must be stateless or internally
// synchronized: every worker of every runtime sharing the policy value
// may call these methods concurrently. Implementations must not block,
// allocate on the ShouldLaunch path, or call back into the runtime.
//
// Liveness contract: ShouldLaunch returning LaunchHold only defers the
// launch — the scheduler yields and re-checks — and the linger-yield
// budget (LingerYields) bounds how many times a hold is honored, so no
// policy can stall a trapped worker forever. Correctness (Invariants 1
// and 2, the Lemma 2 two-landings bound) is unconditional: holding
// happens only while the batch flag is clear, so a policy can delay a
// launch but never add one, oversize one, or overlap two. New policies
// still owe an empirical audit: `batcherlab -policy <name> audit` must
// report every Theorem 5.4 verdict PASS (see DESIGN.md §14).
type BatchPolicy interface {
	// Name identifies the policy in stats, metrics, and flags.
	Name() string
	// ShouldLaunch is consulted by a trapped worker each time it
	// observes the batch flag clear and still has linger budget:
	// LaunchHold yields and re-checks; anything else claims the flag,
	// tagged with the returned reason. It is never consulted with a
	// zero budget — a zero-budget worker launches immediately
	// (LaunchImmediate on the first check, LaunchBudget once a granted
	// budget ran out).
	ShouldLaunch(v PolicyView) LaunchReason
	// LingerYields grants the linger budget for one trapped operation
	// (external reports a pump-fed op): the number of holds the
	// scheduler will honor before forcing a LaunchBudget launch. Return
	// 0 to launch immediately.
	LingerYields(external bool) int
}

// AlternatingStealPolicy is the default batch-formation policy — the
// source paper's behavior, named for the scheduler it accompanies:
// every operation, core-program or pump-fed, launches at the first
// idle-flag check. It never holds: a serving batch is fattened by the
// launch-time top-up, which takes standing backlog instead of waiting
// for it. It is stateless; the zero value is ready to use.
type AlternatingStealPolicy struct{}

// Name implements BatchPolicy.
func (AlternatingStealPolicy) Name() string { return "default" }

// ShouldLaunch implements BatchPolicy. The scheduler never consults it
// (LingerYields grants no budget); it exists for wrappers and embedders.
func (AlternatingStealPolicy) ShouldLaunch(PolicyView) LaunchReason { return LaunchImmediate }

// LingerYields implements BatchPolicy: no budget — the paper's rule.
func (AlternatingStealPolicy) LingerYields(bool) int { return 0 }

// SetPolicy installs (or, with nil, restores the default) batch
// formation policy. Call only while no Run or Serve is in progress;
// workers read the policy unsynchronized.
func (rt *Runtime) SetPolicy(p BatchPolicy) {
	if rt.running.Load() {
		panic("sched: SetPolicy called during Run")
	}
	if p == nil {
		p = AlternatingStealPolicy{}
	}
	rt.policy = p
}

// Policy returns the installed batch-formation policy (never nil).
func (rt *Runtime) Policy() BatchPolicy { return rt.policy }

// LaunchReasons returns the number of batches launched for each
// decision reason over the runtime's lifetime. Counters are bumped
// once per successful batch-flag claim, so the sum equals the number
// of launches (not landings of nonempty batches — a claim that found
// its record already consumed still counts). Readable at any time.
func (rt *Runtime) LaunchReasons() (counts [NumLaunchReasons]int64) {
	for i := range rt.launchReasons {
		counts[i] = rt.launchReasons[i].Load()
	}
	return counts
}
