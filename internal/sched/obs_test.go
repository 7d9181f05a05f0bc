package sched

import (
	"errors"
	"testing"
	"time"

	"batcher/internal/obs"
)

// TestTracedRunEmitsEvents drives a batching workload with a tracer
// attached and checks the tracing contract: launch/land events appear,
// one land per executed batch, with sizes summing to the op count.
func TestTracedRunEmitsEvents(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 801})
	tr := rt.NewTracer(4096)
	rt.SetTracer(tr)

	ds := &sumDS{}
	const n = 500
	rt.Run(func(c *Ctx) {
		c.For(0, n, 1, func(cc *Ctx, i int) {
			op := &OpRecord{DS: ds, Val: 1}
			cc.Batchify(op)
		})
	})

	if tr.Rings() != rt.Workers()+1 {
		t.Fatalf("NewTracer built %d rings for %d workers", tr.Rings(), rt.Workers())
	}
	evs := tr.Snapshot()
	kinds := obs.CountKinds(evs)
	batches, ops := rt.LiveBatchStats()
	if batches == 0 || ops != n {
		t.Fatalf("LiveBatchStats = %d batches / %d ops, want >0 / %d", batches, ops, n)
	}
	if kinds[obs.EvBatchLaunch] == 0 {
		t.Fatal("no batch-launch events recorded")
	}
	// The rings are large enough that nothing was overwritten, so land
	// events match executed batches one-to-one and their sizes sum to
	// the op count.
	if int64(kinds[obs.EvBatchLand]) != batches {
		t.Fatalf("%d land events for %d batches", kinds[obs.EvBatchLand], batches)
	}
	var sized int64
	for _, ev := range evs {
		if ev.Kind == obs.EvBatchLand {
			if ev.A < 1 || ev.A > int64(rt.Workers()) {
				t.Fatalf("land event with batch size %d outside 1..P", ev.A)
			}
			if ev.B < 1 {
				t.Fatalf("land event with non-positive duration %d", ev.B)
			}
			sized += ev.A
		}
	}
	if sized != ops {
		t.Fatalf("land event sizes sum to %d, want %d", sized, ops)
	}
	if rt.LiveSteals() < 0 {
		t.Fatal("LiveSteals negative")
	}
}

// TestTracedStealsAndParks uses an imbalanced workload on several
// workers so steals (and usually parks) occur, and checks they surface
// with valid arguments.
func TestTracedStealsAndParks(t *testing.T) {
	rt := New(Config{Workers: 8, Seed: 802})
	tr := rt.NewTracer(1 << 14)
	rt.SetTracer(tr)
	ds := &sumDS{}
	rt.Run(func(c *Ctx) {
		c.For(0, 2000, 1, func(cc *Ctx, i int) {
			op := &OpRecord{DS: ds, Val: 1}
			cc.Batchify(op)
		})
	})
	evs := tr.Snapshot()
	kinds := obs.CountKinds(evs)
	if int64(kinds[obs.EvSteal]) == 0 && rt.LiveSteals() > 0 {
		t.Fatalf("LiveSteals=%d but no steal events survived in %d-slot rings",
			rt.LiveSteals(), 1<<14)
	}
	for _, ev := range evs {
		switch ev.Kind {
		case obs.EvSteal:
			if ev.A < 0 || ev.A >= int64(rt.Workers()) || ev.A == int64(ev.Ring) {
				t.Fatalf("steal event: victim %d invalid for thief ring %d", ev.A, ev.Ring)
			}
			if ev.B != 0 && ev.B != 1 {
				t.Fatalf("steal event: deque flag %d", ev.B)
			}
		case obs.EvPark, obs.EvWake:
			if int(ev.Ring) >= rt.Workers() {
				t.Fatalf("park/wake on non-worker ring %d", ev.Ring)
			}
		}
	}
	if m := rt.Metrics(); m.SuccessfulSteals != rt.LiveSteals() {
		t.Fatalf("LiveSteals=%d disagrees with quiescent metrics %d",
			rt.LiveSteals(), m.SuccessfulSteals)
	}
}

// TestPumpTracedAdmitReject checks Submit's admission events land on the
// external ring with the documented reason codes.
func TestPumpTracedAdmitReject(t *testing.T) {
	rt := New(Config{Workers: 2, Seed: 803})
	tr := rt.NewTracer(256)
	rt.SetTracer(tr)
	ds := &sumDS{}
	p := NewPump(rt, PumpConfig{})

	if err := p.Submit(&OpRecord{DS: ds, Val: 1}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	p.Close()
	if err := p.Submit(&OpRecord{DS: ds, Val: 1}); !errors.Is(err, ErrPumpClosed) {
		t.Fatalf("Submit after Close: %v, want ErrPumpClosed", err)
	}

	ext := int32(tr.ExternalRing())
	var admits, closed int
	for _, ev := range tr.Snapshot() {
		if ev.Ring != ext {
			t.Fatalf("pump event %v on ring %d, want external %d", ev.Kind, ev.Ring, ext)
		}
		switch {
		case ev.Kind == obs.EvPumpAdmit:
			admits++
			if ev.A != 1 {
				t.Fatalf("admit depth %d, want 1", ev.A)
			}
		case ev.Kind == obs.EvPumpReject:
			closed++
			if ev.A != 2 {
				t.Fatalf("reject reason %d, want 2 (closed)", ev.A)
			}
		}
	}
	if admits != 1 || closed != 1 {
		t.Fatalf("admit/closed = %d/%d, want 1/1", admits, closed)
	}
}

// panicEveryDS panics on every batch; used to observe containment events.
type panicEveryDS struct{}

func (panicEveryDS) RunBatch(_ *Ctx, ops []*OpRecord) { panic("traced boom") }

func TestTracedPanicContainment(t *testing.T) {
	rt := New(Config{Workers: 2, Seed: 804})
	tr := rt.NewTracer(256)
	rt.SetTracer(tr)
	rt.ContainBatchPanics(true)
	ds := panicEveryDS{}
	var op OpRecord
	rt.Run(func(c *Ctx) {
		op = OpRecord{DS: ds, Val: 1}
		c.Batchify(&op)
	})
	var bpe *BatchPanicError
	if !errors.As(op.Err, &bpe) {
		t.Fatalf("op.Err = %v, want BatchPanicError", op.Err)
	}
	if n := obs.CountKinds(tr.Snapshot())[obs.EvPanicContained]; int64(n) != rt.BatchPanics() {
		t.Fatalf("%d panic-contained events for %d contained panics", n, rt.BatchPanics())
	}
}

// TestSetTracerDuringRunPanics pins the quiescence contract.
func TestSetTracerDuringRunPanics(t *testing.T) {
	rt := New(Config{Workers: 1, Seed: 805})
	rt.Run(func(c *Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("SetTracer during Run did not panic")
			}
		}()
		rt.SetTracer(rt.NewTracer(64))
	})
}

// TestConformanceLiveRun attaches the live conformance monitor to a
// real batching run and checks the paper's guarantees on its gauges:
// every batch was observed, no op's wait saw more than Lemma 2's two
// landings, and the measured batch-delay max stayed inside the
// Theorem 5.4 envelope (headroom <= 1). Its batch-size histogram and
// LiveBatchStats count the same batches with the same sizes, so they
// agree exactly — the /metrics batch-size mean is the stats mean.
func TestConformanceLiveRun(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 808})
	m := obs.NewConform(time.Hour)
	rt.SetConformance(m)
	ds := &sumDS{}
	const n = 2000
	rt.Run(func(c *Ctx) {
		c.For(0, n, 1, func(cc *Ctx, i int) {
			op := &OpRecord{DS: ds, Val: 1}
			cc.Batchify(op)
		})
	})
	batches, ops := rt.LiveBatchStats()
	if ops != n {
		t.Fatalf("LiveBatchStats ops = %d, want %d", ops, n)
	}
	if got := m.Batches(); got != batches {
		t.Fatalf("monitor saw %d batches, runtime executed %d", got, batches)
	}
	if h := m.BatchSizes(); h.Count() != batches || h.Sum() != ops {
		t.Fatalf("batch histogram %d/%d disagrees with LiveBatchStats %d/%d",
			h.Count(), h.Sum(), batches, ops)
	}
	if got := m.MaxLandings(); got < 1 || got > 2 {
		t.Fatalf("max landings = %d, want 1..2 (Lemma 2)", got)
	}
	if got := m.Violations(); got != 0 {
		t.Fatalf("violations = %d, want 0", got)
	}
	if h := m.Headroom(); h > 1.0 {
		t.Fatalf("headroom = %v > 1: measured delay escaped the Theorem 5.4 envelope", h)
	}
	if m.DelayMaxNS() <= 0 || m.SpanMaxNS() <= 0 {
		t.Fatalf("degenerate gauges: delay=%d span=%d", m.DelayMaxNS(), m.SpanMaxNS())
	}
}

// TestSetConformanceDuringRunPanics pins the quiescence contract for
// the monitor hook, like SetTracer's.
func TestSetConformanceDuringRunPanics(t *testing.T) {
	rt := New(Config{Workers: 1, Seed: 809})
	rt.Run(func(c *Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("SetConformance during Run did not panic")
			}
		}()
		rt.SetConformance(obs.NewConform(0))
	})
}

// TestBatchifyZeroAllocsConform is the all-attached twin of
// TestBatchifyRoundTripZeroAllocs: with both hooks attached — the
// tracer and the batch monitor, which brings its batch-size histogram
// and phase stamping — the Batchify+LaunchBatch round trip still
// allocates nothing.
func TestBatchifyZeroAllocsConform(t *testing.T) {
	skipIfRace(t)
	h := &allocHarness{
		jobs:    make(chan func(*Ctx)),
		jobDone: make(chan struct{}),
		runDone: make(chan struct{}),
	}
	rt := New(Config{Workers: 1, Seed: 810})
	tr := rt.NewTracer(1024)
	rt.SetTracer(tr)
	m := obs.NewConform(time.Hour)
	rt.SetConformance(m)
	go func() {
		defer close(h.runDone)
		rt.Run(func(c *Ctx) {
			for f := range h.jobs {
				f(c)
				h.jobDone <- struct{}{}
			}
		})
	}()
	t.Cleanup(func() {
		close(h.jobs)
		<-h.runDone
	})
	ds := &allocFreeDS{}
	var got float64
	var stamped bool
	h.do(func(c *Ctx) {
		op := c.Op()
		*op = OpRecord{DS: ds, Val: 1}
		c.Batchify(op)
		stamped = op.Phases[obs.PhaseLand] > 0
		got = testing.AllocsPerRun(200, func() {
			op := c.Op()
			*op = OpRecord{DS: ds, Val: 1}
			c.Batchify(op)
		})
	})
	if !stamped {
		t.Fatal("the attached monitor did not turn on phase stamping")
	}
	if got != 0 {
		t.Fatalf("conform-monitored Batchify+LaunchBatch allocates %v objects/op, want 0", got)
	}
	if m.Batches() == 0 || m.BatchSizes().Count() != m.Batches() {
		t.Fatalf("monitor recorded %d batches, %d batch sizes during the alloc pin",
			m.Batches(), m.BatchSizes().Count())
	}
	if obs.CountKinds(tr.Snapshot())[obs.EvBatchLand] == 0 {
		t.Fatal("tracer recorded no landings during the alloc pin")
	}
}
