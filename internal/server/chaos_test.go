package server_test

// Chaos e2e tests: a live batcherd absorbing the failures the
// containment work exists for. Each test injects one fault class —
// panicking structure, torn frame, oversized frame, slowloris reader —
// and asserts the blast radius: exactly the faulty operations or
// connection pay, everything else keeps serving, and Shutdown still
// drains cleanly (which is itself the proof that no window slot leaked).

import (
	"math"
	"sync"
	"testing"
	"time"

	"batcher/internal/faultinject"
	"batcher/internal/loadgen"
	"batcher/internal/sched"
	"batcher/internal/server"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosPanicIsolation is the headline containment test: one
// connection repeatedly triggers a panicking BOP (a fault-injected skip
// list) while three others hammer the counter. The panicking
// connection's operations must come back FlagErr; every counter
// operation must succeed; the stats must show the panics; and Shutdown
// must drain cleanly afterwards.
func TestChaosPanicIsolation(t *testing.T) {
	const poison = int64(-0xBAD)
	var panicker *faultinject.Panicker
	s, err := server.Start(server.Config{
		Workers: 4,
		Seed:    77,
		WrapDS: func(_ int, ds uint8, b sched.Batched) sched.Batched {
			if ds == server.DSSkiplist {
				panicker = &faultinject.Panicker{Inner: b, Poison: poison}
				return panicker
			}
			return b
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	const (
		attackerOps = 30
		victims     = 3
		victimOps   = 200
	)
	var wg sync.WaitGroup
	errc := make(chan error, victims+1)

	wg.Add(1)
	go func() { // the attacker: every op poisons its own batch group
		defer wg.Done()
		cl, err := loadgen.Dial(addr)
		if err != nil {
			errc <- err
			return
		}
		defer cl.Close()
		for i := 0; i < attackerOps; i++ {
			r, err := cl.Do(server.Request{DS: server.DSSkiplist, Op: server.OpInsert, Key: poison, Val: 1})
			if err != nil {
				errc <- err
				return
			}
			if !r.Err() {
				t.Errorf("poisoned op %d answered without FlagErr (flags %#x)", i, r.Flags)
			}
		}
	}()
	for v := 0; v < victims; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := loadgen.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for i := 0; i < victimOps; i++ {
				r, err := cl.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1})
				if err != nil {
					errc <- err
					return
				}
				if r.Err() {
					t.Errorf("counter op answered FlagErr; panic leaked across structures")
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The counter must have absorbed every victim increment: one final
	// increment reads the running total.
	cl, err := loadgen.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1})
	if err != nil || r.Err() {
		t.Fatalf("post-chaos increment: r=%+v err=%v", r, err)
	}
	if want := int64(victims*victimOps) + 1; r.Res != want {
		t.Fatalf("counter total = %d, want %d (lost increments)", r.Res, want)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if st.Failed != attackerOps {
		t.Fatalf("stats Failed = %d, want %d", st.Failed, attackerOps)
	}
	if st.BatchPanics == 0 || st.BatchPanics != panicker.Panics.Load() {
		t.Fatalf("stats BatchPanics = %d, injected %d", st.BatchPanics, panicker.Panics.Load())
	}

	// Shutdown after containment must still drain: every window slot was
	// released (FlagErr responses release them like any other), so this
	// returns rather than hanging on connWG.
	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung after contained panics: leaked window slots")
	}

	// Satellite invariant: once quiescent, every response was either an
	// accepted (pumped) operation or an immediate one.
	final := s.Snapshot()
	if final.Completed != final.Accepted+final.Immediate {
		t.Fatalf("books unbalanced: completed=%d accepted=%d immediate=%d",
			final.Completed, final.Accepted, final.Immediate)
	}
}

// TestStatsBooksBalance documents the accounting invariant directly:
// after a mixed workload — pumped operations, rejected garbage, stats
// reads — and a full drain, completed == accepted + immediate, with
// rejections and stats reads on the immediate side.
func TestStatsBooksBalance(t *testing.T) {
	s, err := server.Start(server.Config{Workers: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := loadgen.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	const pumped, invalid, statsReads = 50, 5, 3
	for i := 0; i < pumped; i++ {
		if r, err := cl.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1}); err != nil || r.Err() {
			t.Fatalf("increment %d: r=%+v err=%v", i, r, err)
		}
	}
	for i := 0; i < invalid; i++ {
		r, err := cl.Do(server.Request{DS: 9, Op: server.OpInsert}) // no such structure
		if err != nil {
			t.Fatal(err)
		}
		if !r.Err() {
			t.Fatalf("invalid ds accepted (flags %#x)", r.Flags)
		}
	}
	for i := 0; i < statsReads; i++ {
		if _, err := cl.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	s.Shutdown()

	st := s.Snapshot()
	if st.Accepted != pumped {
		t.Fatalf("Accepted = %d, want %d", st.Accepted, pumped)
	}
	if st.Rejected != invalid {
		t.Fatalf("Rejected = %d, want %d", st.Rejected, invalid)
	}
	if st.Immediate != invalid+statsReads {
		t.Fatalf("Immediate = %d, want %d", st.Immediate, invalid+statsReads)
	}
	if st.Completed != st.Accepted+st.Immediate {
		t.Fatalf("completed=%d != accepted=%d + immediate=%d",
			st.Completed, st.Accepted, st.Immediate)
	}
	// OpsPerSec shares the same single ledger: with one shard the global
	// figure IS the shard figure, and both count only the pumped ops —
	// the immediate responses (rejections, stats reads) stay out.
	if len(st.PerShard) != 1 || st.PerShard[0].OpsPerSec != st.OpsPerSec {
		t.Fatalf("per-shard ops/s %+v does not sum to global %v", st.PerShard, st.OpsPerSec)
	}
	// Admission is off here, so no sampler realizes an interval p999;
	// the document still owes the shard's measured tail (lifetime).
	if got := st.PerShard[0].MeasuredP999NS; got <= 0 {
		t.Fatalf("measured_p999_ns = %d on a shard that served %d ops with admission off", got, pumped)
	}
	if up := st.UptimeSec; up > 0 {
		want := float64(pumped) / up
		if math.Abs(st.OpsPerSec-want)/want > 0.2 {
			t.Fatalf("OpsPerSec = %v, want ~%v (pumped/uptime; immediate ops must not count)",
				st.OpsPerSec, want)
		}
	}
}

// TestChaosTornAndOversizedFrames aims protocol garbage at a live
// server: a torn frame must be reaped by the idle deadline (slots
// reclaimed without Shutdown), an oversized length prefix and a
// short body must be dropped and counted as decode errors, and a
// well-behaved client must sail through it all.
func TestChaosTornAndOversizedFrames(t *testing.T) {
	s, err := server.Start(server.Config{
		Workers:     2,
		Seed:        13,
		IdleTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	torn, err := faultinject.SendTornFrame(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	if err := faultinject.SendOversizedFrame(addr); err != nil {
		t.Fatal(err)
	}

	// A healthy client keeps working while the torn connection is still
	// pinned inside ReadFrame. It closes before the wait below — with a
	// 150ms idle budget the server would (correctly) reap an idle
	// healthy client too.
	cl, err := loadgen.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := cl.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1}); err != nil || r.Err() {
		t.Fatalf("healthy op during torn-frame stall: r=%+v err=%v", r, err)
	}
	cl.Close()

	// The idle deadline must reap the torn connection on its own.
	waitFor(t, 5*time.Second, "torn connection reaped by idle deadline", func() bool {
		return s.Snapshot().Conns == 0
	})

	// A fresh client (quick, within the idle budget) reads the books.
	cl2, err := loadgen.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cl2.Close()
	if st.DecodeErrors < 1 {
		t.Fatalf("DecodeErrors = %d, want >= 1 (oversized frame)", st.DecodeErrors)
	}
	s.Shutdown()
}

// TestChaosSlowloris opens a connection that floods requests and never
// reads a response. The write-stall deadline must break it — releasing
// its window slots and abandoning its responses — while the server
// keeps serving and Shutdown stays prompt.
func TestChaosSlowloris(t *testing.T) {
	s, err := server.Start(server.Config{
		Workers:           2,
		Seed:              17,
		Window:            8,
		WriteStallTimeout: 150 * time.Millisecond,
		DrainTimeout:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	// The write error (server tearing the connection down mid-flood) is
	// expected for large n; only the dial matters. 25k payload-bearing
	// responses (~10MB) comfortably exceed what loopback send-buffer
	// autotuning can absorb (4MB ceiling on stock Linux).
	nc, _ := faultinject.Slowloris(addr, 25000)
	if nc == nil {
		t.Fatal("slowloris dial failed")
	}
	defer nc.Close()

	waitFor(t, 10*time.Second, "slowloris connection broken by write-stall deadline", func() bool {
		return s.Snapshot().Conns == 0
	})

	// Still serving.
	cl, err := loadgen.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := cl.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1}); err != nil || r.Err() {
		t.Fatalf("op after slowloris teardown: r=%+v err=%v", r, err)
	}
	cl.Close()

	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung after slowloris: leaked window slots")
	}
	final := s.Snapshot()
	if final.Completed != final.Accepted+final.Immediate {
		t.Fatalf("books unbalanced after slowloris: completed=%d accepted=%d immediate=%d",
			final.Completed, final.Accepted, final.Immediate)
	}
}
