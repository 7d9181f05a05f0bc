package server

// Admission control as a measured backlog bound (DESIGN.md §15).
// Invariant 1 makes a shard a single server — one batch at a time — so
// an operation admitted behind B standing operations waits about B/μ,
// where μ is the shard's completion rate while work stands. Both are
// counts the serving path already keeps: B is the edge ledger below, μ
// is the shard books' completed count differenced over a tick. The
// sampler publishes limit = μ·SLO/2 per shard and classify sheds, with
// a fast FlagErr, any operation that would stand deeper than that. The
// hot path reads two counters and never waits on the sampler.

import (
	"math"
	"sync/atomic"
	"time"
)

// edgeCounters is one shard's edge ledger, complementing the shard's
// pump books so every routed operation is accounted for exactly once:
// offered == completed + shed + rejected after a drain.
// limit and rate are the admission sampler's published operands; they
// sit with the ledger because classify reads limit right after it
// counts offered.
type edgeCounters struct {
	offered  atomic.Int64 // valid ops routed to this shard at decode
	shed     atomic.Int64 // answered FlagErr by the backlog bound
	rejected atomic.Int64 // answered FlagErr by a closed pump

	limit atomic.Int64  // backlog bound in ops; 0 = unlimited (SLO off, or nothing measured yet)
	rate  atomic.Uint64 // math.Float64bits of μ, completions per second
}

const (
	// admitInterval is the sampler's tick: long enough that a shard
	// completes several batches in it, short next to any SLO worth
	// setting.
	admitInterval = 10 * time.Millisecond
	// admitSafety divides the bound: an operation admitted at the limit
	// waits about SLO/admitSafety, and the other half absorbs μ's
	// sampling noise and the operation's own ≤ 2 landings (Lemma 2).
	admitSafety = 2
	// admitAlpha is the EWMA weight of a capacity sample: one tick's
	// completion count is quantised to whole batches, and 0.3 settles
	// within ~5 ticks of a real change while flattening that.
	admitAlpha = 0.3
)

// backlog returns shard i's standing operations: offered and not yet
// answered — the pump queue, the pending array and the running batch.
func (s *Server) backlog(i int) int64 {
	e := &s.edge[i]
	_, completed, _ := s.router.Shard(i).Books()
	return e.offered.Load() - completed - e.shed.Load() - e.rejected.Load()
}

// admitRate is the sampler step: μ after a tick that measured sample
// completions per second. A tick that began and ended with a full
// batch's worth of work standing kept the shard busy throughout, so
// its sample is the capacity and moves μ by admitAlpha of the error;
// any other tick may have idled, so its sample is only a lower bound.
func admitRate(mu float64, prevBusy bool, sample float64, busy bool) float64 {
	if prevBusy && busy {
		return mu + admitAlpha*(sample-mu)
	}
	return math.Max(mu, sample)
}

// admitLimit converts μ into the backlog bound. It is unlimited (0)
// until a completion has been measured; never below workers, so the
// shard can always form one full batch and keep measuring; and never
// above queueCap (Config.QueueCap), the measured ceiling of DESIGN.md
// §15: without it an overload's shed p99 rose to 0.7–0.95 s.
func admitLimit(mu float64, slo time.Duration, workers, queueCap int) int64 {
	if mu <= 0 {
		return 0
	}
	limit := int64(mu * slo.Seconds() / admitSafety)
	return min(max(limit, int64(workers)), int64(queueCap))
}

// runAdmission is the sampler goroutine; one per server, started by
// Start when Config.SLO > 0, exits when Shutdown begins.
func (s *Server) runAdmission() {
	type shardState struct {
		mu        float64
		completed int64
		busy      bool
	}
	states := make([]shardState, s.router.N())
	tick := time.NewTicker(admitInterval)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
		// Divide by the time that passed, not the nominal tick: a late
		// wake-up on a busy host would otherwise read as a faster shard.
		// The tick after a late one arrives early; fold it into the next
		// rather than read a rate off a sliver of time.
		now := time.Now()
		elapsed := now.Sub(last).Seconds()
		if elapsed < admitInterval.Seconds()/2 {
			continue
		}
		last = now
		for i := range states {
			st, sh, e := &states[i], s.router.Shard(i), &s.edge[i]
			workers := sh.Runtime().Workers()
			_, completed, _ := sh.Books()
			busy := s.backlog(i) >= int64(workers)
			sample := float64(completed-st.completed) / elapsed
			st.mu = admitRate(st.mu, st.busy, sample, busy)
			st.completed, st.busy = completed, busy
			e.rate.Store(math.Float64bits(st.mu))
			e.limit.Store(admitLimit(st.mu, s.cfg.SLO, workers, s.cfg.QueueCap))
		}
	}
}
