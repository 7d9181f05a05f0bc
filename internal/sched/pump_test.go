package sched

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batcher/internal/obs"
)

// pumpSumDS is a trivial batched accumulator for pump tests: each op
// adds Val and receives the running total, so results across a run form
// a permutation of the prefix sums (a linearizability witness).
type pumpSumDS struct {
	total    int64
	active   atomic.Int32
	viol     atomic.Int32
	maxBatch int
}

func (d *pumpSumDS) RunBatch(_ *Ctx, ops []*OpRecord) {
	if d.active.Add(1) != 1 {
		d.viol.Add(1)
	}
	if len(ops) > d.maxBatch {
		d.maxBatch = len(ops)
	}
	for _, op := range ops {
		d.total += op.Val
		op.Res = d.total
		op.Ok = true
	}
	d.active.Add(-1)
}

func TestPumpBasic(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 7})
	ds := &pumpSumDS{}
	const goroutines, per = 16, 100
	total := goroutines * per

	// Completion is delivered through a per-operation channel carried in
	// Aux: OnDone runs on a scheduler worker after the batch filled the
	// record, and the channel send orders those writes before the
	// submitter's reads.
	p := NewPump(rt, PumpConfig{OnDone: func(op *OpRecord) {
		op.Aux.(chan struct{}) <- struct{}{}
	}})

	serveDone := make(chan struct{})
	go func() { defer close(serveDone); p.Serve() }()

	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]int64, 0, per)
			ready := make(chan struct{}, 1)
			for i := 0; i < per; i++ {
				op := &OpRecord{DS: ds, Val: 1, Aux: ready}
				for {
					err := p.Submit(op)
					if err == nil {
						break
					}
					if err != ErrPumpSaturated {
						t.Errorf("Submit: %v", err)
						return
					}
					time.Sleep(10 * time.Microsecond)
				}
				<-ready
				if !op.Ok {
					t.Error("completed op without Ok")
					return
				}
				results[g] = append(results[g], op.Res)
			}
		}(g)
	}
	wg.Wait()
	p.Close()
	<-serveDone

	if ds.viol.Load() != 0 {
		t.Fatalf("Invariant 1 violated %d times", ds.viol.Load())
	}
	if ds.total != int64(total) {
		t.Fatalf("total = %d, want %d", ds.total, total)
	}
	seen := make(map[int64]bool, total)
	for _, rs := range results {
		for _, r := range rs {
			if r < 1 || r > int64(total) || seen[r] {
				t.Fatalf("result %d out of range or duplicated", r)
			}
			seen[r] = true
		}
	}
	if p.Served() != int64(total) {
		t.Fatalf("Served = %d, want %d", p.Served(), total)
	}
	if b, o := rt.LiveBatchStats(); b == 0 || o != int64(total) {
		t.Fatalf("LiveBatchStats = (%d, %d), want ops %d", b, o, total)
	}
}

func TestPumpSaturationAndClosed(t *testing.T) {
	rt := New(Config{Workers: 2, Seed: 3})
	p := NewPump(rt, PumpConfig{QueueCap: 1})
	ds := &pumpSumDS{}

	// Not serving: the first Submit fills the queue, the second must be
	// rejected rather than blocking or growing without bound.
	if err := p.Submit(&OpRecord{DS: ds, Val: 1}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if err := p.Submit(&OpRecord{DS: ds, Val: 1}); err != ErrPumpSaturated {
		t.Fatalf("second Submit: %v, want ErrPumpSaturated", err)
	}
	if d := p.Depth(); d != 1 {
		t.Fatalf("Depth = %d, want 1", d)
	}

	p.Close()
	if err := p.Submit(&OpRecord{DS: ds, Val: 1}); err != ErrPumpClosed {
		t.Fatalf("Submit after Close: %v, want ErrPumpClosed", err)
	}

	// Serve after Close still drains the accepted operation.
	p.Serve()
	if ds.total != 1 {
		t.Fatalf("total = %d, want 1 (accepted op must drain)", ds.total)
	}
}

// TestPumpSubmitAll pins the bulk-submission contract: admission is a
// prefix, the count is exact against queue capacity, the remainder is
// untouched, and admitted records drain like any Submit. A closed pump
// admits nothing.
func TestPumpSubmitAll(t *testing.T) {
	rt := New(Config{Workers: 2, Seed: 9})
	p := NewPump(rt, PumpConfig{QueueCap: 3})
	ds := &pumpSumDS{}

	ops := make([]*OpRecord, 5)
	for i := range ops {
		ops[i] = &OpRecord{DS: ds, Val: 1}
	}
	// Not serving: capacity 3 admits exactly the first three.
	n, err := p.SubmitAll(ops)
	if n != 3 || err != ErrPumpSaturated {
		t.Fatalf("SubmitAll = (%d, %v), want (3, ErrPumpSaturated)", n, err)
	}
	if d := p.Depth(); d != 3 {
		t.Fatalf("Depth = %d, want 3", d)
	}
	// The rejected suffix was not enqueued: retrying it alone still
	// finds a full queue.
	if n, err := p.SubmitAll(ops[3:]); n != 0 || err != ErrPumpSaturated {
		t.Fatalf("retry SubmitAll = (%d, %v), want (0, ErrPumpSaturated)", n, err)
	}
	if n, err := p.SubmitAll(nil); n != 0 || err != nil {
		t.Fatalf("empty SubmitAll = (%d, %v), want (0, nil)", n, err)
	}

	p.Close()
	if n, err := p.SubmitAll(ops[3:]); n != 0 || err != ErrPumpClosed {
		t.Fatalf("SubmitAll after Close = (%d, %v), want (0, ErrPumpClosed)", n, err)
	}

	// Serve drains exactly the admitted prefix.
	p.Serve()
	if ds.total != 3 {
		t.Fatalf("total = %d, want 3", ds.total)
	}
	for i, op := range ops[:3] {
		if !op.Ok {
			t.Fatalf("admitted op %d not completed", i)
		}
	}
	for i, op := range ops[3:] {
		if op.Ok {
			t.Fatalf("rejected op %d was executed", i+3)
		}
	}
}

func TestPumpDoubleClose(t *testing.T) {
	rt := New(Config{Workers: 2, Seed: 5})
	p := NewPump(rt, PumpConfig{})
	done := make(chan struct{})
	go func() { defer close(done); p.Serve() }()

	// Concurrent and repeated Close calls must not panic and must all
	// return; Serve must terminate.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
	}
	wg.Wait()
	p.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestPumpDrainOnClose(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 11})
	ds := &pumpSumDS{}
	var delivered atomic.Int64
	p := NewPump(rt, PumpConfig{QueueCap: 128, OnDone: func(*OpRecord) {
		delivered.Add(1)
	}})
	const n = 64
	for i := 0; i < n; i++ {
		if err := p.Submit(&OpRecord{DS: ds, Val: 1}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// Close before Serve: every accepted op must still execute and be
	// delivered before Serve returns.
	p.Close()
	p.Serve()
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered %d ops, want %d", got, n)
	}
	if ds.total != n {
		t.Fatalf("total = %d, want %d", ds.total, n)
	}
}

// TestPumpBatchesUnderLoad checks the whole point of the serving layer:
// concurrent external submissions must coalesce into multi-operation
// batches through the pending array.
func TestPumpBatchesUnderLoad(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 13})
	ds := &pumpSumDS{}
	const n = 2000
	var completed sync.WaitGroup
	completed.Add(n)
	p := NewPump(rt, PumpConfig{QueueCap: n, OnDone: func(*OpRecord) {
		completed.Done()
	}})
	// Preload the queue so pumps never starve, then serve.
	for i := 0; i < n; i++ {
		if err := p.Submit(&OpRecord{DS: ds, Val: 1}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	go p.Serve()
	completed.Wait()
	p.Close()

	batches, ops := rt.LiveBatchStats()
	if ops != n {
		t.Fatalf("LiveBatchStats ops = %d, want %d", ops, n)
	}
	mean := float64(ops) / float64(batches)
	if mean <= 1.0 {
		t.Fatalf("mean batch size %.2f; want > 1 (no batching at the edge)", mean)
	}
	if ds.maxBatch > rt.Workers() {
		t.Fatalf("batch of %d ops exceeds P=%d (Invariant 2)", ds.maxBatch, rt.Workers())
	}
	t.Logf("batches=%d ops=%d mean=%.2f max=%d", batches, ops, mean, ds.maxBatch)
}

// TestPumpRidersStamped checks what the top-up owes a rider's record:
// the same launch/land stamps and batch bookkeeping as a trapped op, a
// pending phase of exactly zero (its claim is its launch, so the five
// phases still sum to the server-side latency), and a clean Lemma 2
// gauge — a rider has no pending slot for the monitor to read.
func TestPumpRidersStamped(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 17})
	rt.SetPhaseStamps(true)
	m := obs.NewConform(time.Hour)
	rt.SetConformance(m)
	ds := &pumpSumDS{}
	const n = 400
	var riders, trapped atomic.Int64
	p := NewPump(rt, PumpConfig{QueueCap: n, OnDone: func(op *OpRecord) {
		ph := &op.Phases
		admit, pend, launch, land := ph[obs.PhaseAdmit], ph[obs.PhasePending], ph[obs.PhaseLaunch], ph[obs.PhaseLand]
		if admit <= 0 || admit > pend || pend > launch || launch > land {
			t.Errorf("stamps out of order: admit=%d pending=%d launch=%d land=%d", admit, pend, launch, land)
		}
		if op.BatchSize < 1 || int(op.BatchSize) > rt.Workers() || op.BatchGroup != 0 {
			t.Errorf("batch bookkeeping: size=%d group=%d", op.BatchSize, op.BatchGroup)
		}
		if op.worker >= 0 {
			trapped.Add(1)
			return
		}
		riders.Add(1)
		if pend != launch {
			t.Errorf("rider pending=%d launch=%d, want equal", pend, launch)
		}
	}})
	for i := 0; i < n; i++ {
		if err := p.Submit(&OpRecord{DS: ds, Val: 1}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	p.Serve()
	if riders.Load() == 0 || riders.Load()+trapped.Load() != n {
		t.Fatalf("riders=%d trapped=%d, want some riders and %d ops in all", riders.Load(), trapped.Load(), n)
	}
	if got := m.Batches(); got == 0 || m.MaxLandings() > 2 || m.Violations() != 0 {
		t.Fatalf("conformance: batches=%d max landings=%d violations=%d", got, m.MaxLandings(), m.Violations())
	}
}

// TestPumpTopUpZeroAllocs pins the serving path — SubmitAll, poll, the
// launch-time top-up, rider completion — at zero allocations with the
// full observability configuration attached: tracer, batch-size
// histogram, phase stamps and the conformance monitor.
func TestPumpTopUpZeroAllocs(t *testing.T) {
	skipIfRace(t)
	rt := New(Config{Workers: 4, Seed: 19})
	rt.SetTracer(rt.NewTracer(1024))
	rt.SetBatchSizeHistogram(obs.NewHistogram())
	rt.SetPhaseStamps(true)
	rt.SetConformance(obs.NewConform(time.Hour))
	var done, riders atomic.Int64
	const burst = 64
	p := NewPump(rt, PumpConfig{QueueCap: burst, OnDone: func(op *OpRecord) {
		if op.worker < 0 {
			riders.Add(1)
		}
		done.Add(1)
	}})
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); p.Serve() }()

	ds := &allocFreeDS{}
	recs := make([]OpRecord, burst)
	ops := make([]*OpRecord, burst)
	for i := range recs {
		recs[i] = OpRecord{DS: ds, Val: 1}
		ops[i] = &recs[i]
	}
	round := func() {
		want := done.Load() + burst
		if n, err := p.SubmitAll(ops); n != burst || err != nil {
			t.Fatalf("SubmitAll = (%d, %v)", n, err)
		}
		for done.Load() < want {
			goruntime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		round() // warm the queue, task pools, timers and park paths
	}
	got := testing.AllocsPerRun(200, round)
	p.Close()
	<-serveDone
	if got != 0 {
		t.Fatalf("pump round trip allocates %v objects per %d-op burst, want 0", got, burst)
	}
	if riders.Load() == 0 {
		t.Fatal("no riders: the measured path did not include the top-up")
	}
}

func TestServerDoubleClose(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2, Seed: 1})
	ds := &serverSumDS{}
	s.Invoke(&OpRecord{DS: ds, Val: 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()
	s.Close() // and once more, after it is fully down
	if ds.total != 1 {
		t.Fatalf("total = %d, want 1", ds.total)
	}
}
