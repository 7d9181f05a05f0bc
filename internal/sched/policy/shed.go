package policy

import "batcher/internal/sched"

// Shed is the first shipped user of the Admit seam (DESIGN.md §14): it
// wraps any batch-formation policy and tightens its admission with a
// per-shard AdmissionController's depth high-water mark. Launch and
// linger decisions delegate to the wrapped policy untouched — Shed
// changes only which submissions the pump accepts, never when batches
// form, so every Theorem 5.4 audit obligation of the inner policy
// carries over.
//
// The server attaches one Shed per shard when admission control is on
// (`batcherd serve -slo`): the controller sheds most overload at the
// edge before it reaches the pump, and this seam is the belt behind
// those braces — ops that slipped past the edge inside one sampler
// tick bounce with ErrPumpSaturated instead of parking a deep backlog
// behind the SLO. Zero-alloc on the admit path (pinned by
// TestShedAdmitZeroAlloc); Shed is an immutable value, safe to share.
type Shed struct {
	// Inner is the wrapped launch/linger policy. Nil means the
	// scheduler default (AlternatingStealPolicy).
	Inner sched.BatchPolicy
	// Ctrl is the shard's admission controller. Nil disables the
	// tightening (Shed becomes a transparent wrapper).
	Ctrl *sched.AdmissionController
}

func (p Shed) inner() sched.BatchPolicy {
	if p.Inner == nil {
		return sched.AlternatingStealPolicy{}
	}
	return p.Inner
}

// Name implements sched.BatchPolicy: the inner policy's name, so
// stats/metrics attribution ("policy: size-cap") is unchanged by
// wrapping.
func (p Shed) Name() string { return p.inner().Name() }

// ShouldLaunch implements sched.BatchPolicy by delegation.
func (p Shed) ShouldLaunch(v sched.PolicyView) sched.LaunchReason {
	return p.inner().ShouldLaunch(v)
}

// LingerYields implements sched.BatchPolicy by delegation.
func (p Shed) LingerYields(external bool) int {
	return p.inner().LingerYields(external)
}

// Admit implements sched.BatchPolicy: the inner policy's verdict ANDed
// with the controller's depth high-water mark.
func (p Shed) Admit(depth, capacity int) bool {
	if !p.inner().Admit(depth, capacity) {
		return false
	}
	return p.Ctrl == nil || p.Ctrl.AdmitDepth(depth, capacity)
}
