package sched

import (
	"errors"
	"sync/atomic"
	"testing"
)

// Containment tests: with ContainBatchPanics on, a panicking BOP must
// cost exactly its own group's operations — Err set, BatchPanics
// counted — while other groups, other batches, and the runtime itself
// keep working. panic_test.go pins the complementary contract: without
// containment every one of these panics aborts the Run.

// keyPanicDS panics when any op in the batch carries the poison key,
// before touching its running sum — so non-poison batches stay correct.
type keyPanicDS struct {
	poison int64
	total  int64
}

func (d *keyPanicDS) RunBatch(_ *Ctx, ops []*OpRecord) {
	for _, op := range ops {
		if op.Key == d.poison {
			panic("poison key")
		}
	}
	for _, op := range ops {
		d.total += op.Val
		op.Res = d.total
		op.Ok = true
	}
}

func TestContainedBOPPanicMarksOnlyItsGroup(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 501})
	rt.ContainBatchPanics(true)
	bad := &keyPanicDS{poison: 7}
	good := &sumDS{}

	const n = 200
	errsSeen := atomic.Int64{}
	goodErrs := atomic.Int64{}
	rt.Run(func(c *Ctx) {
		c.For(0, n, 1, func(cc *Ctx, i int) {
			if i%10 == 3 {
				op := &OpRecord{DS: bad, Key: 7, Val: 1}
				cc.Batchify(op)
				if op.Err != nil {
					errsSeen.Add(1)
					var bp *BatchPanicError
					if !errors.As(op.Err, &bp) || bp.Recovered != "poison key" {
						t.Errorf("op.Err = %v, want BatchPanicError(poison key)", op.Err)
					}
				} else {
					t.Error("poisoned op completed without Err")
				}
			} else {
				op := &OpRecord{DS: good, Val: 1}
				cc.Batchify(op)
				if op.Err != nil {
					goodErrs.Add(1)
				}
			}
		})
	})

	if got := errsSeen.Load(); got != n/10 {
		t.Fatalf("poisoned ops with Err = %d, want %d", got, n/10)
	}
	if got := goodErrs.Load(); got != 0 {
		t.Fatalf("%d healthy ops were marked Err; containment leaked across groups", got)
	}
	if got := good.total; got != n-n/10 {
		t.Fatalf("healthy structure total = %d, want %d", got, n-n/10)
	}
	if rt.BatchPanics() == 0 {
		t.Fatal("BatchPanics metric did not count contained panics")
	}
}

// forPanicDS panics from inside a parallel loop of its BOP — after the
// loop machinery has forked subtasks — so recovery must repair the
// deque (orphaned loop halves) and wait out stolen subtasks.
type forPanicDS struct{}

func (forPanicDS) RunBatch(c *Ctx, ops []*OpRecord) {
	c.For(0, 64, 1, func(_ *Ctx, i int) {
		if i == 13 {
			panic("mid-for boom")
		}
	})
}

// forkPanicContainDS panics in a forked branch of its BOP, which may be
// executed by a thief — the containment path that attributes a remote
// panic back to the group via task tags.
type forkPanicContainDS struct{}

func (forkPanicContainDS) RunBatch(c *Ctx, ops []*OpRecord) {
	c.Fork(
		func(*Ctx) {},
		func(*Ctx) { panic("forked boom") },
	)
}

func TestContainedPanicInBOPParallelism(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   Batched
	}{
		{"mid-for", forPanicDS{}},
		{"forked-branch", forkPanicContainDS{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{Workers: 8, Seed: 502})
			rt.ContainBatchPanics(true)
			good := &sumDS{}
			const n = 300
			var badErrs, goodOK atomic.Int64
			rt.Run(func(c *Ctx) {
				c.For(0, n, 1, func(cc *Ctx, i int) {
					if i%7 == 0 {
						op := &OpRecord{DS: tc.ds, Val: 1}
						cc.Batchify(op)
						if op.Err != nil {
							badErrs.Add(1)
						}
					} else {
						op := &OpRecord{DS: good, Val: 1}
						cc.Batchify(op)
						if op.Err == nil && op.Ok {
							goodOK.Add(1)
						}
					}
				})
			})
			// Every panicking op must be marked; every healthy op must
			// have completed unmarked. (Run's own post-checks already
			// verified the batch flag and pending array were left clean.)
			wantBad := int64((n + 6) / 7)
			if got := badErrs.Load(); got != wantBad {
				t.Fatalf("panicking ops marked Err = %d, want %d", got, wantBad)
			}
			if got := goodOK.Load(); got != int64(n)-wantBad {
				t.Fatalf("healthy ops completed = %d, want %d", got, int64(n)-wantBad)
			}
			if rt.BatchPanics() == 0 {
				t.Fatal("BatchPanics = 0 after contained panics")
			}
		})
	}
}

// TestContainedPanicSingleWorker exercises the P=1 degenerate case: the
// launching worker is also the group runner and the only drain helper.
func TestContainedPanicSingleWorker(t *testing.T) {
	rt := New(Config{Workers: 1, Seed: 503})
	rt.ContainBatchPanics(true)
	good := &sumDS{}
	rt.Run(func(c *Ctx) {
		op := &OpRecord{DS: forPanicDS{}}
		c.Batchify(op)
		if op.Err == nil {
			t.Error("contained panic left Err nil")
		}
		op2 := &OpRecord{DS: good, Val: 5}
		c.Batchify(op2)
		if op2.Err != nil || !op2.Ok {
			t.Errorf("post-panic batch broken: err=%v ok=%v", op2.Err, op2.Ok)
		}
	})
	if good.total != 5 {
		t.Fatalf("post-panic total = %d, want 5", good.total)
	}
}

// TestContainmentTogglesOff verifies the propagate contract is restored
// once containment is disabled again (Serve's defer path).
func TestContainmentTogglesOff(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 504})
	rt.ContainBatchPanics(true)
	rt.ContainBatchPanics(false)
	got := mustPanicWith(t, func() {
		rt.Run(func(c *Ctx) {
			c.Batchify(&OpRecord{DS: panicDS{}, Val: 1})
		})
	})
	if s, ok := got.(string); !ok || s != "bop boom" {
		t.Fatalf("panic value = %v, want bop boom", got)
	}
}

// TestPumpServesThroughBatchPanic is the serving-layer contract at the
// sched level: Serve survives panicking BOPs, delivers every result
// (failed ones with Err), and drains cleanly on Close. The queue is
// loaded before Serve starts, so batches top up from a standing backlog
// and panicking groups contain riders — operations with no trapped
// worker, whose only route to their *BatchPanicError is OnDone.
func TestPumpServesThroughBatchPanic(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 505})
	bad := &keyPanicDS{poison: 99}
	good := &pumpSumDS{}

	type result struct {
		op    *OpRecord
		err   error
		rider bool
	}
	const n = 400
	results := make(chan result, n+1) // OnDone must never block: n preloaded ops plus the late one
	p := NewPump(rt, PumpConfig{QueueCap: n, OnDone: func(op *OpRecord) {
		results <- result{op, op.Err, op.worker < 0}
	}})

	for i := 0; i < n; i++ {
		var op *OpRecord
		if i%5 == 0 {
			op = &OpRecord{DS: bad, Key: 99, Val: 1}
		} else {
			op = &OpRecord{DS: good, Val: 1}
		}
		for {
			err := p.Submit(op)
			if err == nil {
				break
			}
			if err != ErrPumpSaturated {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); p.Serve() }()

	var failed, succeeded, failedRiders int
	for i := 0; i < n; i++ {
		r := <-results
		if r.op.DS == Batched(bad) {
			var bpe *BatchPanicError
			if !errors.As(r.err, &bpe) {
				t.Fatalf("poisoned op (rider=%v) delivered with Err %v, want *BatchPanicError", r.rider, r.err)
			}
			failed++
			if r.rider {
				failedRiders++
			}
		} else {
			if r.err != nil {
				t.Fatalf("healthy op delivered with Err: %v", r.err)
			}
			succeeded++
		}
	}
	if failed != n/5 || succeeded != n-n/5 {
		t.Fatalf("failed=%d succeeded=%d, want %d/%d", failed, succeeded, n/5, n-n/5)
	}
	if good.total != int64(n-n/5) {
		t.Fatalf("healthy structure total = %d, want %d", good.total, n-n/5)
	}
	if rt.BatchPanics() == 0 {
		t.Fatal("BatchPanics = 0")
	}
	if failedRiders == 0 {
		t.Fatal("no panicking group contained a rider: the top-up did not engage")
	}

	// The pump keeps serving after the panics, riders included.
	late := &OpRecord{DS: good, Val: 1}
	if err := p.Submit(late); err != nil {
		t.Fatalf("Submit after panics: %v", err)
	}
	if r := <-results; r.op != late || r.err != nil || !late.Ok {
		t.Fatalf("op after panics: got %+v, want a clean completion", r)
	}

	p.Close()
	<-serveDone // Serve must return, not re-panic
	if got := p.Served(); got != n+1 {
		t.Fatalf("Served = %d, want %d", got, n+1)
	}
}
