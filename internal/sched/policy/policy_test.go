package policy_test

// Tests live outside the policy package (package policy_test) and use
// only the exported sched API: the policy package imports sched, so an
// internal test could not spin up runtimes without an import cycle.
// This also makes the suite an honest consumer of the policy seam — it
// exercises exactly what a third-party policy could.

import (
	"sync/atomic"
	"testing"
	"time"

	"batcher/internal/sched"
	"batcher/internal/sched/policy"
)

// sumDS is a minimal batched structure whose BOP allocates nothing.
type sumDS struct{ total int64 }

func (d *sumDS) RunBatch(_ *sched.Ctx, ops []*sched.OpRecord) {
	for _, op := range ops {
		d.total += op.Val
		op.Res = d.total
		op.Ok = true
	}
}

// shippedPolicies enumerates every policy a -policy flag can select;
// new policies must be added here to inherit the 0-alloc pin.
var shippedPolicies = []struct {
	name string
	pol  sched.BatchPolicy
}{
	{"default", sched.AlternatingStealPolicy{}},
	{"size-cap", policy.SizeCap{}},
	{"deadline", policy.Deadline{}},
}

// TestBatchifyZeroAllocsPolicy pins the Batchify round trip (including
// the LaunchBatch it triggers) at zero allocations with each shipped
// policy installed. P=1 keeps the schedule deterministic (the caller is
// always its own launcher) and makes every policy launch immediately:
// one trapped worker is a full batch, so even the deadline window does
// not wait. The measured path therefore includes the policy
// consultation itself — LingerYields, ShouldLaunch, the PolicyView
// scans — which must all stay allocation-free.
func TestBatchifyZeroAllocsPolicy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range shippedPolicies {
		t.Run(tc.name, func(t *testing.T) {
			rt := sched.New(sched.Config{Workers: 1, Seed: 701, Policy: tc.pol})
			ds := &sumDS{}
			var got float64
			rt.Run(func(c *sched.Ctx) {
				op := c.Op()
				*op = sched.OpRecord{DS: ds, Val: 1}
				c.Batchify(op) // warm the launch-task pool and batch scratch
				got = testing.AllocsPerRun(200, func() {
					op := c.Op()
					*op = sched.OpRecord{DS: ds, Val: 1}
					c.Batchify(op)
				})
			})
			if got != 0 {
				t.Fatalf("policy %s: Batchify+LaunchBatch allocates %v objects/op, want 0", tc.name, got)
			}
			if ds.total == 0 {
				t.Fatal("batched operations did not run")
			}
			reasons := rt.LaunchReasons()
			var launches int64
			for _, n := range reasons {
				launches += n
			}
			if launches == 0 {
				t.Fatalf("policy %s: no launch reason counted", tc.name)
			}
		})
	}
}

// TestDefaultNeverHolds pins the default policy after the launch-time
// top-up replaced the launch linger: it grants no yield budget on
// either path and never returns LaunchHold, so a pump serving a standing
// backlog launches every batch on the first idle-flag check — and the
// top-up, not a wait, is what fills those batches.
func TestDefaultNeverHolds(t *testing.T) {
	def := sched.AlternatingStealPolicy{}
	for _, external := range []bool{false, true} {
		if got := def.LingerYields(external); got != 0 {
			t.Fatalf("default LingerYields(external=%v) = %d, want 0", external, got)
		}
	}
	if got := def.ShouldLaunch(sched.PolicyView{}); got != sched.LaunchImmediate {
		t.Fatalf("default ShouldLaunch = %v, want %v", got, sched.LaunchImmediate)
	}

	const ops = 256
	rt := sched.New(sched.Config{Workers: 4, Seed: 705})
	p := sched.NewPump(rt, sched.PumpConfig{QueueCap: ops})
	ds := &sumDS{}
	recs := make([]sched.OpRecord, ops)
	for i := range recs {
		recs[i] = sched.OpRecord{DS: ds, Val: 1}
		if err := p.Submit(&recs[i]); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	p.Close()
	p.Serve()
	if ds.total != ops {
		t.Fatalf("ds.total = %d, want %d", ds.total, ops)
	}
	reasons := rt.LaunchReasons()
	for r, n := range reasons {
		if sched.LaunchReason(r) != sched.LaunchImmediate && n != 0 {
			t.Fatalf("default policy launched %d batches as %v, want only %v (reasons %v)", n, sched.LaunchReason(r), sched.LaunchImmediate, reasons)
		}
	}
	batches, done := rt.LiveBatchStats()
	if mean := float64(done) / float64(batches); mean < 0.9*4 {
		t.Fatalf("mean batch %.2f over a preloaded backlog, want >= 3.6", mean)
	}
}

// TestDeadlineLaunchesAgedOp is the deadline policy's figure of merit:
// a single pump-fed operation — no backlog, no sibling traps, so the
// batch can never fill — must launch once its pending age reaches the
// budget, via the deadline clause rather than by exhausting the linger
// yield budget. The yield budget is deliberately enormous (1<<20): if
// the deadline clause were broken, the op would either stall for the
// whole yield budget (orders of magnitude past the deadline) and count
// a budget-exhausted launch, or never age out at all.
func TestDeadlineLaunchesAgedOp(t *testing.T) {
	const budget = 5 * time.Millisecond
	rt := sched.New(sched.Config{
		Workers: 4,
		Seed:    702,
		Policy:  policy.Deadline{Budget: budget, MaxYields: 1 << 20},
	})
	done := make(chan *sched.OpRecord, 1)
	p := sched.NewPump(rt, sched.PumpConfig{
		OnDone: func(op *sched.OpRecord) { done <- op },
	})
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); p.Serve() }()

	ds := &sumDS{}
	op := &sched.OpRecord{DS: ds, Val: 7}
	start := time.Now()
	if err := p.Submit(op); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("operation did not complete: deadline launch never fired")
	}
	elapsed := time.Since(start)
	p.Close()
	<-serveDone

	if !op.Ok || op.Res != 7 {
		t.Fatalf("op result = (%v, %d), want (true, 7)", op.Ok, op.Res)
	}
	reasons := rt.LaunchReasons()
	if n := reasons[sched.LaunchDeadline]; n < 1 {
		t.Fatalf("deadline launches = %d, want >= 1 (reasons %v)", n, reasons)
	}
	if n := reasons[sched.LaunchBudget]; n != 0 {
		t.Fatalf("budget-exhausted launches = %d, want 0: the aged op must launch on the deadline, not the yield backstop", n)
	}
	// The op was deliberately aged: it cannot have launched before its
	// pending age reached the budget (allow scheduling slop above).
	if elapsed < budget/2 {
		t.Fatalf("op completed in %v, implausibly before the %v deadline window", elapsed, budget)
	}
}

// TestSizeCapLaunchesAtThreshold preloads a deep backlog and serves it
// under SizeCap{K: 2}: the policy holds while fewer than K workers are
// trapped and backlog stands, so with 64 queued ops against 4 pump
// workers some launch must come from the size cap (k trapped) or the
// full-batch rule rather than from the yield backstop alone.
func TestSizeCapLaunchesAtThreshold(t *testing.T) {
	const ops = 64
	rt := sched.New(sched.Config{
		Workers: 4,
		Seed:    703,
		Policy:  policy.SizeCap{K: 2},
	})
	var completed atomic.Int64
	done := make(chan struct{})
	p := sched.NewPump(rt, sched.PumpConfig{
		QueueCap: ops,
		OnDone: func(*sched.OpRecord) {
			// OnDone fires on scheduler workers; count atomically.
			if completed.Add(1) == ops {
				close(done)
			}
		},
	})
	ds := &sumDS{}
	recs := make([]sched.OpRecord, ops)
	for i := range recs {
		recs[i] = sched.OpRecord{DS: ds, Val: 1}
		if err := p.Submit(&recs[i]); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); p.Serve() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("backlog did not drain under SizeCap")
	}
	p.Close()
	<-serveDone

	if ds.total != ops {
		t.Fatalf("ds.total = %d, want %d", ds.total, ops)
	}
	reasons := rt.LaunchReasons()
	if n := reasons[sched.LaunchSizeCap] + reasons[sched.LaunchFull]; n < 1 {
		t.Fatalf("size-cap/full launches = %d, want >= 1 (reasons %v)", n, reasons)
	}
}

// TestByName pins the wire names the -policy flag and the CI matrix
// depend on.
func TestByName(t *testing.T) {
	for _, name := range []string{"", "default", "alternating", "size-cap", "sizecap", "deadline"} {
		pol, err := policy.ByName(name, 0, 0)
		if err != nil || pol == nil {
			t.Fatalf("ByName(%q) = (%v, %v)", name, pol, err)
		}
	}
	if pol, err := policy.ByName("size-cap", 3, 0); err != nil || pol.(policy.SizeCap).K != 3 {
		t.Fatalf("ByName(size-cap, 3) = (%#v, %v)", pol, err)
	}
	if pol, err := policy.ByName("deadline", 0, time.Millisecond); err != nil || pol.(policy.Deadline).Budget != time.Millisecond {
		t.Fatalf("ByName(deadline, 1ms) = (%#v, %v)", pol, err)
	}
	if _, err := policy.ByName("nope", 0, 0); err == nil {
		t.Fatal("ByName(nope) succeeded, want error")
	}
}
