// Package policy ships the batch-formation policies that compete with
// the scheduler's default (sched.AlternatingStealPolicy, the source
// paper's behavior). A policy decides *when* a trapped worker stops
// lingering and claims the batch flag; the mechanism — the CAS,
// LaunchBatch, the status flips — stays in the scheduler, so no policy
// can violate Invariant 1 or 2 or add batch landings (see DESIGN.md
// §14 for the contract and the audit obligations).
//
// Shipped competitors:
//
//   - SizeCap launches once k of P workers are trapped (or the backlog
//     drains): a batch-size floor for fork-join programs, whose default
//     immediate launch makes small racy batches.
//   - Deadline launches when the oldest pending operation's age
//     reaches a latency budget (or the batch is full): a bounded batch
//     window that trades mean batch size for a hard cap on the
//     pending-delay term, even waiting out an *empty* ingress queue
//     because more requests may still be in flight on the wire.
//
// Every policy here is a stateless value, safe to share across the
// shard router's runtimes.
package policy

import (
	"fmt"
	"time"

	"batcher/internal/sched"
)

// sizeCapYields is the linger budget SizeCap grants every operation.
// It only needs to cover the window in which sibling workers hit their
// own data-structure nodes (or, when serving, claim their next queued
// record); past it the scheduler's LaunchBudget backstop launches
// anyway.
const sizeCapYields = 256

// SizeCap launches once K of the P workers are trapped, the external
// backlog drains, or the batch is full. K <= 0 (or K > P) means P: a
// pure full-batch policy.
type SizeCap struct {
	// K is the trapped-worker launch threshold.
	K int
}

// Name implements sched.BatchPolicy.
func (SizeCap) Name() string { return "size-cap" }

// ShouldLaunch implements sched.BatchPolicy.
func (p SizeCap) ShouldLaunch(v sched.PolicyView) sched.LaunchReason {
	k := p.K
	if k <= 0 || k > v.Workers {
		k = v.Workers
	}
	if n := v.Trapped(); n >= k {
		if n >= v.Workers {
			return sched.LaunchFull
		}
		return sched.LaunchSizeCap
	}
	if v.External && !v.Backlog() {
		// Nothing queued for siblings to trap on; waiting for the cap
		// would only stall the operations already here.
		return sched.LaunchNoBacklog
	}
	return sched.LaunchHold
}

// LingerYields implements sched.BatchPolicy.
func (SizeCap) LingerYields(bool) int { return sizeCapYields }

// Deadline is a bounded batch window: a trapped worker holds the
// launch — even with an empty ingress queue, since more requests may
// be in flight on the wire — until the batch is full or the oldest
// pending operation has waited Budget. It is the policy that trades
// mean batch size for a hard cap on the pending-delay term (the
// PhasePending→PhaseLaunch wait): no operation's launch is deferred
// past Budget by policy choice.
type Deadline struct {
	// Budget is the pending-delay budget. 0 means 1ms.
	Budget time.Duration
	// MaxYields is the linger budget backing the window (the
	// scheduler's liveness backstop; it should comfortably out-last
	// Budget in yields). 0 means 65536.
	MaxYields int
}

// Name implements sched.BatchPolicy.
func (Deadline) Name() string { return "deadline" }

func (p Deadline) budget() int64 {
	if p.Budget <= 0 {
		return int64(time.Millisecond)
	}
	return int64(p.Budget)
}

func (p Deadline) yields() int {
	if p.MaxYields <= 0 {
		return 1 << 16
	}
	return p.MaxYields
}

// ShouldLaunch implements sched.BatchPolicy.
func (p Deadline) ShouldLaunch(v sched.PolicyView) sched.LaunchReason {
	if v.Trapped() >= v.Workers {
		// Invariant 2 caps the batch at P: it cannot grow, so waiting
		// out the deadline would be pure delay.
		return sched.LaunchFull
	}
	if age := v.OldestPendingNS(); age >= p.budget() {
		return sched.LaunchDeadline
	}
	return sched.LaunchHold
}

// LingerYields implements sched.BatchPolicy: the window needs enough
// yields to span Budget on every path.
func (p Deadline) LingerYields(bool) int { return p.yields() }

// ByName resolves a policy wire name (the batcherd -policy flag and the
// CI matrix env var) to a policy value. k parameterizes size-cap and
// deadline parameterizes deadline; zero values keep each policy's
// default.
func ByName(name string, k int, deadline time.Duration) (sched.BatchPolicy, error) {
	switch name {
	case "", "default", "alternating":
		return sched.AlternatingStealPolicy{}, nil
	case "size-cap", "sizecap":
		return SizeCap{K: k}, nil
	case "deadline":
		return Deadline{Budget: deadline}, nil
	}
	return nil, fmt.Errorf("unknown batch policy %q (want default, size-cap, or deadline)", name)
}
