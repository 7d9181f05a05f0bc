package server_test

// Sharded e2e tests: the blast-radius and drain witnesses rerun against
// a multi-runtime router. Containment and accounting must hold not just
// per structure but per shard — a poisoned shard answers FlagErr while
// its siblings keep serving, and shutdown balances every shard's books
// independently.

import (
	"math"
	"sync"
	"testing"
	"time"

	"batcher/internal/faultinject"
	"batcher/internal/loadgen"
	"batcher/internal/sched"
	"batcher/internal/server"
	"batcher/internal/shard"
)

// keysOnShard returns n distinct keys that shard.Of places on the given
// shard for ds, scanning upward from start. Searching in the test (instead
// of hard-coding keys) keeps it correct if the placement hash changes.
func keysOnShard(t *testing.T, ds uint8, shards, want, n int, start int64) []int64 {
	t.Helper()
	var keys []int64
	for k := start; len(keys) < n; k++ {
		if shard.Of(ds, k, shards) == want {
			keys = append(keys, k)
		}
		if k-start > 1<<20 {
			t.Fatalf("no %d keys on shard %d/%d within 2^20 candidates", n, want, shards)
		}
	}
	return keys
}

// TestChaosShardPoisonIsolation is the sharded containment witness: a
// Panicker wraps only shard 0's skip list, and an attacker hammers a
// poison key routed to shard 0. Skip-list traffic on the other shards
// and counter traffic (whose home shard is not 0 at four shards) must
// sail through untouched; shard 0's books alone show the failures; and
// Shutdown still drains every shard.
func TestChaosShardPoisonIsolation(t *testing.T) {
	const shards = 4
	if home := shard.Home(server.DSCounter, shards); home == 0 {
		t.Fatalf("counter home shard is 0 at %d shards; the isolation premise is gone", shards)
	}
	poison := keysOnShard(t, server.DSSkiplist, shards, 0, 1, -(1 << 16))[0]
	healthy := keysOnShard(t, server.DSSkiplist, shards, 1, 64, 1)

	var panicker *faultinject.Panicker
	s, err := server.Start(server.Config{
		Workers: 2,
		Seed:    79,
		Shards:  shards,
		WrapDS: func(sh int, ds uint8, b sched.Batched) sched.Batched {
			if sh == 0 && ds == server.DSSkiplist {
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
		attackerOps = 25
		victims     = 3
		victimOps   = 150
	)
	var wg sync.WaitGroup
	errc := make(chan error, victims+2)

	wg.Add(1)
	go func() { // attacker: every op lands on shard 0 and poisons its batch
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
	wg.Add(1)
	go func() { // same structure, different shard: must be untouched
		defer wg.Done()
		cl, err := loadgen.Dial(addr)
		if err != nil {
			errc <- err
			return
		}
		defer cl.Close()
		for i := 0; i < victimOps; i++ {
			k := healthy[i%len(healthy)]
			r, err := cl.Do(server.Request{DS: server.DSSkiplist, Op: server.OpInsert, Key: k, Val: 1})
			if err != nil {
				errc <- err
				return
			}
			if r.Err() {
				t.Errorf("skiplist op on shard 1 (key %d) answered FlagErr; panic leaked across shards", k)
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
					t.Errorf("counter op answered FlagErr; panic leaked across shards")
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The counter (pinned off shard 0) absorbed every increment.
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
	cl.Close()

	// Blast radius in the books: only shard 0 failed anything, and its
	// failure count is exactly the attacker's.
	for i := 0; i < shards; i++ {
		_, _, failed := s.Router().Shard(i).Books()
		if i == 0 && failed != attackerOps {
			t.Fatalf("shard 0 failed = %d, want %d", failed, attackerOps)
		}
		if i != 0 && failed != 0 {
			t.Fatalf("shard %d failed = %d, want 0 (poison leaked)", i, failed)
		}
	}
	if p := panicker.Panics.Load(); p == 0 || s.Router().BatchPanics() != p {
		t.Fatalf("router BatchPanics = %d, injected %d", s.Router().BatchPanics(), p)
	}

	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung after contained shard-0 panics: leaked window slots")
	}
	final := s.Snapshot()
	if final.Completed != final.Accepted+final.Immediate {
		t.Fatalf("books unbalanced: completed=%d accepted=%d immediate=%d",
			final.Completed, final.Accepted, final.Immediate)
	}
}

// TestShardedShutdownDrain is the cross-shard drain witness: four
// shards, a tiny window, tiny per-shard queues, and deep client
// pipelines mixing counter increments (pinned to one home shard) with
// hashmap inserts spread across all shards. At shutdown every admitted
// operation is answered exactly once — the counter results form a
// gapless permutation — and each shard's books balance independently.
func TestShardedShutdownDrain(t *testing.T) {
	const shards = 4
	s, err := server.Start(server.Config{
		Workers:  2,
		Seed:     41,
		Shards:   shards,
		Window:   2,
		QueueCap: 2,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	const conns = 8

	var mu sync.Mutex
	var got []int64
	var rejected int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := loadgen.Dial(s.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			var mine []int64
			var mineRejected int64
			inFlight := 0
			recv := func() bool {
				r, err := c.Recv()
				if err != nil {
					return false // drained and closed by shutdown
				}
				inFlight--
				if r.Err() {
					mineRejected++ // a parked op rejected at shutdown
				} else if r.Res > 0 {
					mine = append(mine, r.Res) // counter running total
				}
				return true
			}
			key := int64(id)
		loop:
			for {
				// Deep pipeline, 16 in flight against a window of 2. Odd
				// slots carry hashmap inserts with walking keys so each
				// frame's span fans out across shards.
				for inFlight < 16 {
					req := server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1}
					if inFlight%2 == 1 {
						key += 7
						req = server.Request{DS: server.DSHashmap, Op: server.OpInsert, Key: key, Val: key}
					}
					if _, err := c.Send(req); err != nil {
						break loop
					}
					inFlight++
				}
				if err := c.Flush(); err != nil {
					break
				}
				for inFlight > 8 {
					if !recv() {
						break loop
					}
				}
			}
			for inFlight > 0 {
				if !recv() {
					break
				}
			}
			mu.Lock()
			got = append(got, mine...)
			rejected += mineRejected
			mu.Unlock()
		}(i)
	}

	time.Sleep(75 * time.Millisecond)
	s.Shutdown()
	wg.Wait()
	if t.Failed() {
		return
	}

	if len(got) == 0 {
		t.Fatal("no counter operations completed before shutdown")
	}
	seen := make(map[int64]bool, len(got))
	max := int64(0)
	for _, v := range got {
		if v < 1 || seen[v] {
			t.Fatalf("counter result %d duplicated or out of range", v)
		}
		seen[v] = true
		if v > max {
			max = v
		}
	}
	if max != int64(len(got)) {
		t.Fatalf("received %d counter results but max is %d: accepted responses lost in drain", len(got), max)
	}

	// Global books, then per-shard: admission and completion are
	// accounted on the shard that ran the op, so each pair must balance
	// with no cross-shard slack hiding a lost response.
	st := s.Snapshot()
	if st.Completed != st.Accepted+st.Immediate {
		t.Fatalf("books unbalanced after drain: completed=%d accepted=%d immediate=%d",
			st.Completed, st.Accepted, st.Immediate)
	}
	var sumAccepted int64
	active := 0
	for i := 0; i < shards; i++ {
		accepted, completed, failed := s.Router().Shard(i).Books()
		if completed != accepted {
			t.Fatalf("shard %d books unbalanced: accepted=%d completed=%d", i, accepted, completed)
		}
		if failed != 0 {
			t.Fatalf("shard %d failed = %d, want 0", i, failed)
		}
		if accepted > 0 {
			active++
		}
		sumAccepted += accepted
	}
	if sumAccepted != st.Accepted {
		t.Fatalf("per-shard accepted sums to %d, server accepted %d", sumAccepted, st.Accepted)
	}
	// The global OpsPerSec is defined as the sum of the per-shard rates
	// (one pump-completed basis); allow only float summation-order slack.
	var sumRate float64
	for _, ss := range st.PerShard {
		sumRate += ss.OpsPerSec
	}
	if math.Abs(sumRate-st.OpsPerSec) > 1e-9*math.Max(1, st.OpsPerSec) {
		t.Fatalf("sum(per_shard ops_per_sec) = %v != global %v", sumRate, st.OpsPerSec)
	}
	if active < 2 {
		t.Fatalf("only %d of %d shards saw traffic; hashmap keys did not spread", active, shards)
	}
	if st.Conns != 0 {
		t.Fatalf("%d connections survived shutdown", st.Conns)
	}
	t.Logf("drained %d counter ops across %d active shards, %d rejections", len(got), active, rejected)
}

// TestStatsOpsPerSecBasis checks that the stats document's global
// OpsPerSec equals the per-shard sum exactly: both are computed from the
// shard ledgers' pumped completions, which exclude Immediate responses
// such as a stats read.
func TestStatsOpsPerSecBasis(t *testing.T) {
	s, err := server.Start(server.Config{Workers: 2, Shards: 2, Seed: 91})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	res, err := loadgen.Run(loadgen.Workload{
		Addr:     s.Addr().String(),
		Conns:    4,
		Ops:      200,
		Window:   8,
		DS:       server.DSHashmap,
		ReadFrac: 0.5,
		KeySpace: 1 << 10,
		Seed:     91,
	})
	if err != nil || res.Errors != 0 {
		t.Fatalf("loadgen: err=%v rejected=%d", err, res.Errors)
	}
	cl, err := loadgen.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	s.Shutdown()

	st := s.Snapshot()
	var sum float64
	var comp int64
	for _, ss := range st.PerShard {
		sum += ss.OpsPerSec
		comp += ss.Completed
	}
	if math.Abs(sum-st.OpsPerSec) > 1e-9*math.Max(1, st.OpsPerSec) {
		t.Fatalf("sum(per_shard ops_per_sec) = %v != global %v", sum, st.OpsPerSec)
	}
	if comp != st.Completed-st.Immediate {
		t.Fatalf("shard ledgers total %d, want Completed-Immediate = %d",
			comp, st.Completed-st.Immediate)
	}
}
