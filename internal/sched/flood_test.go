package sched_test

// Flood and drain tests for the launch-time top-up (DESIGN.md §8). They
// live in the external test package so they can import sched/policy: the
// CI policy matrix sets BATCHERD_POLICY and reruns them under size-cap
// and deadline, because the top-up sits below the policy seam and owes
// every policy the same guarantees.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/sched/policy"
)

// envPolicy resolves BATCHERD_POLICY; unset (the usual local run) means
// nil, the scheduler default.
func envPolicy(t testing.TB) sched.BatchPolicy {
	t.Helper()
	name := os.Getenv("BATCHERD_POLICY")
	if name == "" {
		return nil
	}
	pol, err := policy.ByName(name, 0, 0)
	if err != nil {
		t.Fatalf("BATCHERD_POLICY: %v", err)
	}
	return pol
}

// floodDS sums its ops and witnesses both invariants from inside the
// BOP: one batch at a time, never more than P ops.
type floodDS struct {
	p        int
	total    int64
	active   atomic.Int32
	overlap  atomic.Int32
	oversize atomic.Int32
}

func (d *floodDS) RunBatch(_ *sched.Ctx, ops []*sched.OpRecord) {
	if d.active.Add(1) != 1 {
		d.overlap.Add(1)
	}
	if len(ops) > d.p {
		d.oversize.Add(1)
	}
	for _, op := range ops {
		d.total += op.Val
		op.Res = d.total
		op.Ok = true
	}
	d.active.Add(-1)
}

// flood is one pump under load: submitters goroutines each push their
// share of recs through SubmitAll in bursts, spinning on saturation, so
// the ingress queue holds a standing backlog for the whole run. OnDone
// counts deliveries per record.
type flood struct {
	rt   *sched.Runtime
	p    *sched.Pump
	ds   *floodDS
	m    *obs.Conform
	recs []sched.OpRecord
	hits []atomic.Int32

	accepted atomic.Int64
	serve    chan struct{}
}

func startFlood(t *testing.T, workers, ops int) *flood {
	f := &flood{
		rt:    sched.New(sched.Config{Workers: workers, Seed: 900 + uint64(workers), Policy: envPolicy(t)}),
		ds:    &floodDS{p: workers},
		m:     obs.NewConform(time.Hour),
		recs:  make([]sched.OpRecord, ops),
		hits:  make([]atomic.Int32, ops),
		serve: make(chan struct{}),
	}
	f.rt.SetConformance(f.m)
	f.p = sched.NewPump(f.rt, sched.PumpConfig{
		QueueCap: 256,
		OnDone:   func(op *sched.OpRecord) { f.hits[op.Key].Add(1) },
	})
	for i := range f.recs {
		f.recs[i] = sched.OpRecord{DS: f.ds, Key: int64(i), Val: 1}
	}
	go func() { defer close(f.serve); f.p.Serve() }()
	return f
}

// submit pushes recs[lo:hi) in bursts until all are accepted or the
// pump closes, counting what was accepted.
func (f *flood) submit(lo, hi int) error {
	const burst = 64
	ptrs := make([]*sched.OpRecord, 0, burst)
	for lo < hi {
		ptrs = ptrs[:0]
		for i := lo; i < hi && len(ptrs) < burst; i++ {
			ptrs = append(ptrs, &f.recs[i])
		}
		n, err := f.p.SubmitAll(ptrs)
		lo += n
		f.accepted.Add(int64(n))
		switch {
		case err == nil:
		case errors.Is(err, sched.ErrPumpSaturated):
			runtime.Gosched()
		case errors.Is(err, sched.ErrPumpClosed):
			return nil
		default:
			return err
		}
	}
	return nil
}

// run starts the submitters over disjoint shares of recs and returns a
// wait function.
func (f *flood) run(t *testing.T, submitters int) (wait func()) {
	var wg sync.WaitGroup
	per := len(f.recs) / submitters
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := f.submit(g*per, (g+1)*per); err != nil {
				t.Errorf("SubmitAll: %v", err)
			}
		}(g)
	}
	return wg.Wait
}

// check asserts the books after Serve returned: every accepted op was
// delivered exactly once, nothing else was, and no invariant or Lemma 2
// gauge tripped.
func (f *flood) check(t *testing.T) {
	t.Helper()
	accepted := f.accepted.Load()
	var once, other int64
	for i := range f.hits {
		switch f.hits[i].Load() {
		case 0:
		case 1:
			once++
		default:
			other++
		}
	}
	if once != accepted || other != 0 {
		t.Fatalf("OnDone reached %d ops once and %d ops more than once, want %d once", once, other, accepted)
	}
	if got := f.p.Served(); got != accepted {
		t.Fatalf("Served = %d, accepted %d", got, accepted)
	}
	if f.ds.total != accepted {
		t.Fatalf("structure saw %d ops, accepted %d", f.ds.total, accepted)
	}
	if _, ops := f.rt.LiveBatchStats(); ops != accepted {
		t.Fatalf("LiveBatchStats ops = %d, accepted %d", ops, accepted)
	}
	if n := f.ds.oversize.Load(); n != 0 {
		t.Fatalf("Invariant 2: %d batches larger than P", n)
	}
	if n := f.ds.overlap.Load(); n != 0 {
		t.Fatalf("Invariant 1: %d overlapping batches", n)
	}
	if l, v := f.m.MaxLandings(), f.m.Violations(); l > 2 || v != 0 {
		t.Fatalf("Lemma 2 gauge: max landings %d, violations %d", l, v)
	}
	if d := f.p.Depth(); d != 0 {
		t.Fatalf("Depth = %d after drain", d)
	}
	// No flag or pending residue: Run checks both on the way out (Serve
	// would have panicked), and the runtime must still be usable.
	f.rt.Run(func(c *sched.Ctx) {
		op := &sched.OpRecord{DS: f.ds, Val: 0}
		c.Batchify(op)
		if !op.Ok {
			t.Error("runtime unusable after the pump drained")
		}
	})
}

// TestPumpFloodFillsBatches is the property the top-up's gain rests on,
// as a count rather than a timing: with backlog standing, batches carry
// close to P operations whatever the worker count — while the BOP never
// sees more than P, every accepted op completes exactly once, and the
// Invariant 2 panic in LaunchBatch never fires.
func TestPumpFloodFillsBatches(t *testing.T) {
	ops := 200_000
	if testing.Short() {
		ops = 20_000
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("P=%d", workers), func(t *testing.T) {
			f := startFlood(t, workers, ops)
			f.run(t, 4)()
			f.p.Close()
			<-f.serve
			if got := f.accepted.Load(); got != int64(ops) {
				t.Fatalf("accepted %d ops, want %d", got, ops)
			}
			f.check(t)
			batches, done := f.rt.LiveBatchStats()
			mean := float64(done) / float64(batches)
			if mean < 0.9*float64(workers) {
				t.Fatalf("mean batch %.2f under a standing backlog, want >= %.1f (0.9·P)", mean, 0.9*float64(workers))
			}
			t.Logf("batches=%d mean=%.2f reasons=%v", batches, mean, f.rt.LaunchReasons())
		})
	}
}

// TestPumpCloseDuringFlood closes the pump while submitters are still
// flooding it. A pump loop may then observe "closed and queue empty"
// while riders are in flight; the batch carrying them runs inside some
// worker's scheduling loop, so Serve still cannot return before every
// accepted operation is delivered.
func TestPumpCloseDuringFlood(t *testing.T) {
	for round := 0; round < 20; round++ {
		f := startFlood(t, 4, 50_000)
		wait := f.run(t, 4)
		for f.p.Served() < int64(500*(round+1)) {
			runtime.Gosched()
		}
		f.p.Close()
		wait()
		select {
		case <-f.serve:
		case <-time.After(30 * time.Second):
			t.Fatal("Serve did not return after Close")
		}
		if got := f.accepted.Load(); got == 0 || got == int64(len(f.recs)) {
			t.Fatalf("accepted %d of %d ops: Close did not land mid-flood", got, len(f.recs))
		}
		f.check(t)
	}
}
