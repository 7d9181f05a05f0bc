package server_test

// The brownout chaos witness for admission control (DESIGN.md §15).
// The scenario the backlog bound exists for: offered load far past
// capacity must degrade gracefully — excess operations get a fast
// FlagErr at the edge (a quick "no" from a healthy server), accepted
// operations keep meeting the latency SLO, the shard keeps serving at
// capacity, every shard's books balance to the op, and the drain stays
// clean. Without admission control the same overload collapses into
// saturation parks that burn their whole timeout to answer the same
// "no". Below capacity, and once an overload has ended, nothing sheds.
//
// Capacity is made deliberately tiny and known: slowBatched adds a
// fixed sleep to every hashmap batch, so "10× capacity" is a few
// thousand ops/s — reachable by the loadgen even on one CPU under
// -race. The CI brownout job runs this file across the policy matrix
// (BATCHERD_POLICY): the bound sits at the edge, in front of whatever
// policy forms the batches.

import (
	"testing"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/sched"
	"batcher/internal/server"
)

// slowBatched inflates a structure's batch cost by a fixed sleep: a
// stand-in for an expensive BOP that gives the shard a known, low
// capacity (roughly Workers/delay ops/sec once batches fill).
type slowBatched struct {
	inner sched.Batched
	delay time.Duration
}

func (s *slowBatched) RunBatch(ctx *sched.Ctx, ops []*sched.OpRecord) {
	time.Sleep(s.delay)
	s.inner.RunBatch(ctx, ops)
}

const (
	brownoutWorkers  = 2
	brownoutQueueCap = 128
)

// brownoutServer starts a 2-worker sharded server with admission
// control and the slow hashmap installed on every shard.
func brownoutServer(t *testing.T, shards int, slo, batchCost time.Duration) *server.Server {
	t.Helper()
	s, err := server.Start(server.Config{
		Workers:  brownoutWorkers,
		Shards:   shards,
		Seed:     1009,
		QueueCap: brownoutQueueCap,
		Window:   256,
		Policy:   testPolicy(t),
		SLO:      slo,
		WrapDS: func(_ int, ds uint8, b sched.Batched) sched.Batched {
			if ds == server.DSHashmap {
				return &slowBatched{inner: b, delay: batchCost}
			}
			return b
		},
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

// auditBrownoutBooks asserts every shard's extended ledger balances to
// the op and the drain was clean: offered == completed + shed +
// rejected + abandoned, nothing abandoned (clients stayed up), and
// accepted == completed (every admitted op answered exactly once).
func auditBrownoutBooks(t *testing.T, st server.Stats) {
	t.Helper()
	for _, ss := range st.PerShard {
		if got := ss.Completed + ss.Shed + ss.Rejected + ss.Abandoned; ss.Offered != got {
			t.Errorf("shard %d books: offered %d != completed %d + shed %d + rejected %d + abandoned %d",
				ss.Shard, ss.Offered, ss.Completed, ss.Shed, ss.Rejected, ss.Abandoned)
		}
		if ss.Abandoned != 0 {
			t.Errorf("shard %d abandoned %d ops with clean clients", ss.Shard, ss.Abandoned)
		}
		if ss.Accepted != ss.Completed {
			t.Errorf("shard %d drain: accepted %d != completed %d", ss.Shard, ss.Accepted, ss.Completed)
		}
	}
}

// TestBrownoutGracefulShed is the 10× overload witness. Phase one
// (open-loop, well under capacity) gives each shard's sampler its first
// completions and must shed nothing; phase two offers more than ten
// times the capacity open-loop. With admission control on, the overload
// must brown out: a substantial shed count, shed responses fast (they
// never touch a pump), accepted responses within the SLO, goodput near
// capacity, books balanced per shard, clean drain.
func TestBrownoutGracefulShed(t *testing.T) {
	const (
		slo       = 1 * time.Second
		batchCost = 5 * time.Millisecond
	)
	// Capacity ≈ shards × workers/batch time ≈ 2 × 2/6.5ms ≈ 600 ops/s
	// (a 5ms time.Sleep costs ~6.5ms here).
	overloadRate := 8000.0
	overloadOps := 2200 // per conn, 8 conns: ~2.2s of offered overload
	if testing.Short() {
		overloadOps = 800
	}
	s := brownoutServer(t, 2, slo, batchCost)
	defer s.Shutdown()
	addr := s.Addr().String()

	// Warm-up: completions on every shard (uniform keys reach both)
	// while staying well under capacity, so each sampler has left its
	// cold start and publishes a bound before the overload arrives.
	warm, err := loadgen.Run(loadgen.Workload{
		Addr: addr, Conns: 2, Ops: 40, RatePerSec: 150,
		DS: server.DSHashmap, KeySpace: 1 << 12, Seed: 1010,
	})
	if err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm-up shed %d ops well under capacity", warm.Errors)
	}

	// Poll the stats document during the overload: every shard must be
	// seen running under a bound inside [Workers, QueueCap].
	bounded := make([]bool, 2)
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pollStop:
				return
			case <-tick.C:
				for i, ss := range s.Snapshot().PerShard {
					if ss.AdmitLimit >= brownoutWorkers && ss.AdmitLimit <= brownoutQueueCap {
						bounded[i] = true
					}
				}
			}
		}
	}()
	res, err := loadgen.Run(loadgen.Workload{
		Addr: addr, Conns: 8, Ops: overloadOps, RatePerSec: overloadRate,
		DS: server.DSHashmap, KeySpace: 1 << 12, Seed: 1011,
	})
	close(pollStop)
	<-pollDone
	if err != nil {
		t.Fatalf("overload: %v", err)
	}
	if res.Responses != res.Sent {
		t.Fatalf("responses %d != sent %d", res.Responses, res.Sent)
	}
	// Brownout, not collapse: most of a 10× overload must shed...
	if res.Errors < res.Sent/4 {
		t.Fatalf("only %d/%d overload ops shed; admission control did not engage", res.Errors, res.Sent)
	}
	// ...while the server keeps serving near capacity: ~600 ops/s over
	// the ~3.5s the overload and its drain last is ~2000 ops, so a bound
	// that sheds twice what it must fails here.
	minServed := int64(1500)
	if testing.Short() {
		minServed = 100 // the short overload lasts under a second
	}
	if served := res.Responses - res.Errors; served < minServed {
		t.Fatalf("only %d ops served during overload, want >= %d", served, minServed)
	}
	// Shed ops answer fast: an edge FlagErr never waits on a pump, so
	// even its tail stays far inside the SLO.
	if res.ErrLatency == nil {
		t.Fatal("no error-latency histogram despite sheds")
	}
	if p99 := time.Duration(res.ErrLatency.Quantile(0.99)); p99 > slo/4 {
		t.Errorf("shed p99 = %v, want < %v (fast error, not a stalled park)", p99, slo/4)
	}
	// Accepted ops keep the SLO: the bound only admits what the shard's
	// measured rate serves inside it.
	if res.P999 > slo {
		t.Errorf("accepted-op p999 = %v exceeds SLO %v", res.P999, slo)
	}

	s.Shutdown()
	st := s.Snapshot()
	auditBrownoutBooks(t, st)
	t.Logf("brownout: offered=%d served=%d shed=%d rejected=%d shed-p99=%v ok-p999=%v slo=%v",
		st.Offered, res.Responses-res.Errors, st.Shed, st.Rejected,
		time.Duration(res.ErrLatency.Quantile(0.99)), res.P999, slo)
	if st.Shed == 0 {
		t.Fatal("stats report zero sheds after a shedding run")
	}
	if int64(res.Errors) != st.Shed+st.Rejected {
		t.Errorf("client errors %d != shed %d + rejected %d", res.Errors, st.Shed, st.Rejected)
	}
	if st.AdmitSLONS != slo.Nanoseconds() {
		t.Errorf("AdmitSLONS = %d, want %d", st.AdmitSLONS, slo.Nanoseconds())
	}
	for i, ok := range bounded {
		if !ok {
			t.Errorf("shard %d never reported admit_limit in [%d, %d] during the overload",
				i, brownoutWorkers, brownoutQueueCap)
		}
	}
	if st.Offered != warm.Sent+res.Sent {
		t.Errorf("offered %d != total sent %d", st.Offered, warm.Sent+res.Sent)
	}
}

// TestBrownoutNoShedBelowCapacity pins the other half of the contract:
// the bound sheds only what the shard cannot serve inside the SLO. At
// ~70% of capacity nothing sheds; a 10× overload then browns out inside
// the SLO; and once it has ended the same 70% load sheds nothing again
// — the bound compares standing work, so it disarms as the backlog
// drains instead of waiting for a forecast to recover.
func TestBrownoutNoShedBelowCapacity(t *testing.T) {
	const slo = 200 * time.Millisecond
	s := brownoutServer(t, 2, slo, 5*time.Millisecond)
	defer s.Shutdown()
	run := func(seed uint64, conns, ops int, rate float64) loadgen.Result {
		t.Helper()
		res, err := loadgen.Run(loadgen.Workload{
			Addr: s.Addr().String(), Conns: conns, Ops: ops / conns, RatePerSec: rate,
			DS: server.DSHashmap, KeySpace: 1 << 12, Seed: seed,
		})
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		if res.Responses != res.Sent {
			t.Fatalf("responses %d != sent %d", res.Responses, res.Sent)
		}
		return res
	}

	// Capacity is ~600 ops/s (see TestBrownoutGracefulShed).
	before := run(1020, 4, 800, 400)
	if before.Errors != 0 {
		t.Errorf("shed %d/%d ops at ~70%% of capacity", before.Errors, before.Sent)
	}
	over := run(1021, 8, 8000, 6000)
	if over.P999 > slo {
		t.Errorf("accepted-op p999 = %v exceeds SLO %v", over.P999, slo)
	}
	if served := over.Responses - over.Errors; served < 800 {
		t.Errorf("only %d ops served during overload, want >= 800", served)
	}
	time.Sleep(300 * time.Millisecond)
	after := run(1022, 4, 800, 400)
	if after.Errors != 0 {
		t.Errorf("shed %d/%d ops at ~70%% of capacity after the overload ended", after.Errors, after.Sent)
	}

	s.Shutdown()
	auditBrownoutBooks(t, s.Snapshot())
	t.Logf("below capacity: shed %d/%d before, %d/%d after; overload: served=%d shed=%d ok-p999=%v slo=%v",
		before.Errors, before.Sent, after.Errors, after.Sent,
		over.Responses-over.Errors, over.Errors, over.P999, slo)
}

// TestBrownoutBooksBalanceShards4 hammers a 4-shard server whose SLO is
// set below the service time itself, so once the samplers have measured
// a completion the bound sits at its floor and nearly everything sheds
// — the worst case for the edge ledger. Every shard's books must still
// balance to the op through sustained closed-loop shedding.
func TestBrownoutBooksBalanceShards4(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 150
	}
	s := brownoutServer(t, 4, 2*time.Millisecond, 1*time.Millisecond)
	defer s.Shutdown()
	res, err := loadgen.Run(loadgen.Workload{
		Addr:  s.Addr().String(),
		Conns: 8, Ops: ops, Window: 16,
		DS: server.DSHashmap, KeySpace: 1 << 14, Seed: 1012,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.Responses != res.Sent {
		t.Fatalf("responses %d != sent %d", res.Responses, res.Sent)
	}
	s.Shutdown()
	st := s.Snapshot()
	auditBrownoutBooks(t, st)
	if st.Shed == 0 {
		t.Fatal("an SLO below the service time shed nothing")
	}
	if st.Shed != int64(res.Errors)-st.Rejected {
		t.Errorf("shed %d != client errors %d - rejected %d", st.Shed, res.Errors, st.Rejected)
	}
	if st.Offered != res.Sent {
		t.Errorf("offered %d != sent %d", st.Offered, res.Sent)
	}
}
