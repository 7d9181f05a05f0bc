package server_test

// The live-conformance chaos witness (DESIGN.md §16): a 4-shard server
// with admission control runs a mixed warm-up + sustained closed-loop
// phase, and afterwards every shard's always-on conformance monitor
// must report the theory intact — Lemma 2 landings at most 2, zero
// envelope violations, Theorem 5.4 headroom at most 1.0 — and the
// books balance. The name's TestChaos prefix enrolls it in the chaos
// suite (make chaos).

import (
	"testing"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/server"
)

func TestChaosConformanceEnvelope(t *testing.T) {
	ops := 600
	if testing.Short() {
		ops = 200
	}
	// Small but real per-batch cost, so spans and gaps are well above
	// clock resolution.
	s := brownoutServer(t, 4, 500*time.Millisecond, 500*time.Microsecond)
	defer s.Shutdown()
	addr := s.Addr().String()

	// Warm-up under capacity (uniform keys reach all four shards),
	// exactly as the brownout witness does.
	warm, err := loadgen.Run(loadgen.Workload{
		Addr: addr, Conns: 2, Ops: 60, RatePerSec: 400,
		DS: server.DSHashmap, KeySpace: 1 << 14, Seed: 2101,
	})
	if err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm-up shed %d ops under capacity", warm.Errors)
	}

	// Sustained closed-loop pressure: windowed pipelining keeps every
	// shard's pump busy so batches form, land, and the monitors see a
	// dense stream of spans and gaps.
	res, err := loadgen.Run(loadgen.Workload{
		Addr: addr, Conns: 8, Ops: ops, Window: 16,
		DS: server.DSHashmap, KeySpace: 1 << 14, Seed: 2102,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.Responses != res.Sent {
		t.Fatalf("responses %d != sent %d", res.Responses, res.Sent)
	}

	// Snapshot while the windows are still warm (default window 10s).
	st := s.Snapshot()
	if got := len(st.PerShard); got != 4 {
		t.Fatalf("PerShard has %d entries, want 4", got)
	}
	var busyShards int
	var wantHeadroom float64
	var wantLandings int64
	for _, ss := range st.PerShard {
		c := ss.Conformance
		if c.Batches == 0 {
			continue // an idle shard has nothing to conform to
		}
		busyShards++
		// Lemma 2: no op waited through more than two landings, and the
		// lifetime violation counter (which never rotates out) is clean.
		if c.MaxLandings < 1 || c.MaxLandings > 2 {
			t.Errorf("shard %d max_landings = %d, want 1..2 (Lemma 2)", ss.Shard, c.MaxLandings)
		}
		if c.Violations != 0 {
			t.Errorf("shard %d recorded %d envelope violations", ss.Shard, c.Violations)
		}
		// Theorem 5.4: measured windowed batch-delay max within the
		// 2·(span+gap) envelope.
		if c.Headroom <= 0 || c.Headroom > 1.0 {
			t.Errorf("shard %d headroom = %v, want in (0, 1.0] (Theorem 5.4)", ss.Shard, c.Headroom)
		}
		if c.SpanMaxNS <= 0 || c.DelayMaxNS <= 0 {
			t.Errorf("shard %d span=%d delay=%d, want both > 0 after traffic",
				ss.Shard, c.SpanMaxNS, c.DelayMaxNS)
		}
		if ss.MeasuredP999NS < 0 {
			t.Errorf("shard %d measured_p999_ns = %d negative", ss.Shard, ss.MeasuredP999NS)
		}
		if ss.Conformance.Headroom > wantHeadroom {
			wantHeadroom = ss.Conformance.Headroom
		}
		if ss.Conformance.MaxLandings > wantLandings {
			wantLandings = ss.Conformance.MaxLandings
		}
	}
	if busyShards != 4 {
		t.Errorf("only %d/4 shards saw batches under uniform keys", busyShards)
	}
	// The global stats fields are the worst-across-shards rollups.
	if st.ConformHeadroom != wantHeadroom {
		t.Errorf("global headroom %v != worst shard %v", st.ConformHeadroom, wantHeadroom)
	}
	if st.ConformMaxLandings != wantLandings {
		t.Errorf("global max_landings %d != worst shard %d", st.ConformMaxLandings, wantLandings)
	}

	s.Shutdown()
	auditBrownoutBooks(t, s.Snapshot())
	t.Logf("conformance: busy=%d headroom=%.3f landings=%d",
		busyShards, st.ConformHeadroom, st.ConformMaxLandings)
	for _, ss := range st.PerShard {
		c := ss.Conformance
		t.Logf("shard %d: batches=%d span_max=%v gap_max=%v delay_max=%v landings=%d headroom=%.3f",
			ss.Shard, c.Batches, time.Duration(c.SpanMaxNS), time.Duration(c.GapMaxNS),
			time.Duration(c.DelayMaxNS), c.MaxLandings, c.Headroom)
	}
}
