package policy_test

import (
	"errors"
	"testing"
	"time"

	"batcher/internal/sched"
	"batcher/internal/sched/policy"
)

// TestShedDelegates pins that wrapping changes nothing but admission:
// name, launch, and linger all come from the inner policy.
func TestShedDelegates(t *testing.T) {
	ctrl := sched.NewAdmissionController(100 * time.Millisecond)
	for _, tc := range shippedPolicies {
		wrapped := policy.Shed{Inner: tc.pol, Ctrl: ctrl}
		if wrapped.Name() != tc.pol.Name() {
			t.Errorf("Shed{%s}.Name() = %q, want %q", tc.name, wrapped.Name(), tc.pol.Name())
		}
		if got, want := wrapped.LingerYields(true), tc.pol.LingerYields(true); got != want {
			t.Errorf("Shed{%s}.LingerYields = %d, want %d", tc.name, got, want)
		}
	}
	// Nil inner falls back to the scheduler default.
	if got := (policy.Shed{Ctrl: ctrl}).Name(); got != (sched.AlternatingStealPolicy{}).Name() {
		t.Errorf("Shed{nil}.Name() = %q", got)
	}
}

// TestShedAdmitHighWater pins the depth semantics: admit everything
// while the controller is not limiting, refuse past 7/8 capacity while
// it is.
func TestShedAdmitHighWater(t *testing.T) {
	ctrl := sched.NewAdmissionController(time.Second)
	p := policy.Shed{Ctrl: ctrl}
	const cap = 64
	for d := 1; d <= cap; d++ {
		if !p.Admit(d, cap) {
			t.Fatalf("not limiting: Admit(%d, %d) = false", d, cap)
		}
	}
	ctrl.Refill(0, true)
	mark := cap - cap/8
	for d := 1; d <= cap; d++ {
		if got, want := p.Admit(d, cap), d <= mark; got != want {
			t.Fatalf("limiting: Admit(%d, %d) = %v, want %v", d, cap, got, want)
		}
	}
	ctrl.Refill(0, false)
	if !p.Admit(cap, cap) {
		t.Fatal("un-limiting did not restore admission")
	}
	// An inner refusal stays a refusal regardless of controller state.
	inner := capAdmit{}
	wrapped := policy.Shed{Inner: inner, Ctrl: ctrl}
	if wrapped.Admit(cap/2+1, cap) {
		t.Fatal("Shed admitted past the inner policy's cap")
	}
}

// TestShedAdmitZeroAlloc pins the admit fast path at zero allocations
// with the controller attached, in both controller states — the seam
// is consulted under the pump mutex on every Submit.
func TestShedAdmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctrl := sched.NewAdmissionController(time.Second)
	for _, tc := range shippedPolicies {
		p := policy.Shed{Inner: tc.pol, Ctrl: ctrl}
		for _, limiting := range []bool{false, true} {
			ctrl.Refill(1<<40, limiting)
			var ok bool
			allocs := testing.AllocsPerRun(1000, func() {
				ok = p.Admit(3, 64)
			})
			if !ok {
				t.Fatalf("%s limiting=%v: Admit refused shallow depth", tc.name, limiting)
			}
			if allocs != 0 {
				t.Errorf("%s limiting=%v: Admit allocates %.1f/op, want 0", tc.name, limiting, allocs)
			}
		}
	}
	ctrl.Refill(0, false)
	allocs := testing.AllocsPerRun(1000, func() { ctrl.Take() })
	if allocs != 0 {
		t.Errorf("Take (unlimited) allocates %.1f/op, want 0", allocs)
	}
}

// TestShedPumpSaturation proves the seam is live end to end: a pump
// running a Shed-wrapped default policy with a limiting controller
// refuses Submit past the high-water mark with ErrPumpSaturated, while
// the same pump admits a full queue once the controller stands down.
func TestShedPumpSaturation(t *testing.T) {
	ctrl := sched.NewAdmissionController(time.Second)
	ctrl.Refill(1<<40, true) // limiting: depth high-water active, edge credits ample
	rt := sched.New(sched.Config{Workers: 2, Seed: 705,
		Policy: policy.Shed{Ctrl: ctrl}})
	p := sched.NewPump(rt, sched.PumpConfig{QueueCap: 64})
	ds := &sumDS{}
	recs := make([]sched.OpRecord, 64)
	admitted := 0
	var firstErr error
	for i := range recs {
		recs[i] = sched.OpRecord{DS: ds, Val: 1}
		if err := p.Submit(&recs[i]); err != nil {
			firstErr = err
			break
		}
		admitted++
	}
	if want := 64 - 64/8; admitted != want {
		t.Fatalf("admitted %d ops, want %d (7/8 of QueueCap 64)", admitted, want)
	}
	if !errors.Is(firstErr, sched.ErrPumpSaturated) {
		t.Fatalf("rejection error = %v, want ErrPumpSaturated", firstErr)
	}
	ctrl.Refill(0, false)
	p2 := sched.NewPump(rt, sched.PumpConfig{QueueCap: 64})
	bulk := make([]sched.OpRecord, 64)
	ptrs := make([]*sched.OpRecord, 64)
	for i := range bulk {
		bulk[i] = sched.OpRecord{DS: ds, Val: 1}
		ptrs[i] = &bulk[i]
	}
	if n, err := p2.SubmitAll(ptrs); n != 64 || err != nil {
		t.Fatalf("SubmitAll after stand-down = (%d, %v), want (64, nil)", n, err)
	}
}

// TestAdmissionControllerCredits pins the token-bucket semantics the
// edge depends on: unlimited until the first limiting refill, then
// exactly `credits` Takes succeed per interval, refused Takes count as
// shed, and a non-limiting refill restores the fast path.
func TestAdmissionControllerCredits(t *testing.T) {
	ctrl := sched.NewAdmissionController(250 * time.Millisecond)
	if ctrl.SLO() != (250 * time.Millisecond).Nanoseconds() {
		t.Fatalf("SLO = %d", ctrl.SLO())
	}
	for i := 0; i < 100; i++ {
		if !ctrl.Take() {
			t.Fatal("cold-start Take refused")
		}
	}
	if ctrl.Limiting() || ctrl.Shed() != 0 {
		t.Fatalf("cold start: limiting=%v shed=%d", ctrl.Limiting(), ctrl.Shed())
	}
	ctrl.Refill(3, true)
	got := 0
	for i := 0; i < 10; i++ {
		if ctrl.Take() {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("limiting interval admitted %d, want 3", got)
	}
	if ctrl.Shed() != 7 {
		t.Fatalf("shed = %d, want 7", ctrl.Shed())
	}
	ctrl.SetPredicted(1e9)
	if ctrl.Predicted() != 1e9 {
		t.Fatalf("predicted = %d", ctrl.Predicted())
	}
	ctrl.Refill(0, false)
	if !ctrl.Take() {
		t.Fatal("stand-down Take refused")
	}
	if ctrl.Shed() != 7 {
		t.Fatalf("shed after stand-down = %d, want 7 (cumulative)", ctrl.Shed())
	}
}
