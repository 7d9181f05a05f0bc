package server_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/server"
)

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// TestServerCounterPermutation is the linearizability and no-lost-
// response witness: 64 connections pipeline increments at a shared
// counter, and the multiset of returned running totals must be exactly
// a permutation of 1..N — every duplicate, gap, or drop is visible.
func TestServerCounterPermutation(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, Seed: 21})
	const conns, per = 64, 50
	total := conns * per

	results := make([][]int64, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := loadgen.Dial(s.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			got := make([]int64, 0, per)
			const window = 8
			inFlight := 0
			recv := func() bool {
				r, err := c.Recv()
				if err != nil {
					t.Errorf("recv: %v", err)
					return false
				}
				if r.Err() || !r.OK() {
					t.Errorf("increment rejected (flags %#x)", r.Flags)
					return false
				}
				got = append(got, r.Res)
				return true
			}
			for k := 0; k < per; k++ {
				if inFlight == window {
					if !recv() {
						return
					}
					inFlight--
				}
				if _, err := c.Send(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				inFlight++
				if inFlight == window || k == per-1 {
					if err := c.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
			for ; inFlight > 0; inFlight-- {
				if !recv() {
					return
				}
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := make(map[int64]bool, total)
	for _, rs := range results {
		if len(rs) != per {
			t.Fatalf("connection got %d responses, want %d", len(rs), per)
		}
		// Note: within one connection the values need not be increasing —
		// pipelined increments can share a batch, and working-set order
		// inside a batch is arbitrary; responses return in completion
		// order. The permutation across all connections is the witness.
		for _, v := range rs {
			if v < 1 || v > int64(total) || seen[v] {
				t.Fatalf("counter value %d out of range or duplicated", v)
			}
			seen[v] = true
		}
	}
}

// TestServerMixedLoad drives inserts and searches at the skip list from
// many connections with disjoint key ranges, then verifies every
// inserted key is found with its value and absent keys miss.
func TestServerMixedLoad(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, Seed: 22})
	const conns, per = 16, 40

	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := loadgen.Dial(s.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			base := int64(i) * per
			for k := int64(0); k < per; k++ {
				key := base + k
				r, err := c.Do(server.Request{DS: server.DSSkiplist, Op: server.OpInsert, Key: key, Val: key * 2})
				if err != nil || r.Err() {
					t.Errorf("insert %d: err=%v flags=%#x", key, err, r.Flags)
					return
				}
				if !r.OK() {
					t.Errorf("insert %d: reported duplicate on fresh key", key)
					return
				}
			}
			for k := int64(0); k < per; k++ {
				key := base + k
				r, err := c.Do(server.Request{DS: server.DSSkiplist, Op: server.OpLookup, Key: key})
				if err != nil || r.Err() || !r.OK() {
					t.Errorf("lookup %d: err=%v flags=%#x", key, err, r.Flags)
					return
				}
				if r.Res != key*2 {
					t.Errorf("lookup %d: val %d, want %d", key, r.Res, key*2)
					return
				}
			}
			// A key no connection ever inserts must miss.
			r, err := c.Do(server.Request{DS: server.DSSkiplist, Op: server.OpLookup, Key: int64(conns)*per + 7})
			if err != nil || r.Err() || r.OK() {
				t.Errorf("absent lookup: err=%v flags=%#x, want miss", err, r.Flags)
			}
		}(i)
	}
	wg.Wait()
}

// TestServerAllStructures sends one round trip at each served structure
// and each op, pinning the (ds, op) routing table.
func TestServerAllStructures(t *testing.T) {
	s := startServer(t, server.Config{Workers: 2, Seed: 23})
	c, err := loadgen.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	do := func(ds, op uint8, key, val int64) server.Response {
		t.Helper()
		r, err := c.Do(server.Request{DS: ds, Op: op, Key: key, Val: val})
		if err != nil {
			t.Fatalf("do(ds=%d op=%d): %v", ds, op, err)
		}
		return r
	}

	if r := do(server.DSCounter, server.OpInsert, 0, 5); r.Err() || r.Res != 5 {
		t.Fatalf("counter: flags=%#x res=%d", r.Flags, r.Res)
	}
	for _, ds := range []uint8{server.DSSkiplist, server.DSTree23, server.DSHashmap} {
		if r := do(ds, server.OpInsert, 10, 100); r.Err() || !r.OK() {
			t.Fatalf("ds %d insert: flags=%#x", ds, r.Flags)
		}
		if r := do(ds, server.OpLookup, 10, 0); r.Err() || !r.OK() || r.Res != 100 {
			t.Fatalf("ds %d lookup: flags=%#x res=%d", ds, r.Flags, r.Res)
		}
		if r := do(ds, server.OpDelete, 10, 0); r.Err() || !r.OK() {
			t.Fatalf("ds %d delete: flags=%#x", ds, r.Flags)
		}
		if r := do(ds, server.OpLookup, 10, 0); r.Err() || r.OK() {
			t.Fatalf("ds %d lookup after delete: flags=%#x", ds, r.Flags)
		}
	}
	// Skip-list successor: key carries the found key.
	do(server.DSSkiplist, server.OpInsert, 50, 500)
	if r := do(server.DSSkiplist, server.OpSucc, 40, 0); r.Err() || !r.OK() || r.Key != 50 || r.Res != 500 {
		t.Fatalf("succ: flags=%#x key=%d res=%d", r.Flags, r.Key, r.Res)
	}
	// Invalid (ds, op) pairs are rejected, not fatal.
	if r := do(server.DSCounter, server.OpDelete, 0, 0); !r.Err() {
		t.Fatalf("counter delete accepted (flags=%#x)", r.Flags)
	}
	if r := do(server.DSTree23, server.OpSucc, 0, 0); !r.Err() {
		t.Fatalf("tree23 succ accepted (flags=%#x)", r.Flags)
	}
	if r := do(9, server.OpInsert, 0, 0); !r.Err() {
		t.Fatalf("unknown ds accepted (flags=%#x)", r.Flags)
	}
}

// TestServerBatchingAndStats runs the loadgen driver at the server and
// then checks the stats endpoint: concurrent network load must achieve
// a mean batch size above 1 (the whole point of the serving layer), and
// the counters must be coherent.
func TestServerBatchingAndStats(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, Seed: 24})
	res, err := loadgen.Run(loadgen.Workload{
		Addr:     s.Addr().String(),
		Conns:    64,
		Ops:      100,
		Window:   8,
		DS:       server.DSHashmap,
		ReadFrac: 0.5,
		KeySpace: 1 << 12,
		Seed:     24,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen saw %d rejected ops: %v", res.Errors, res)
	}
	if res.Responses != res.Sent || res.Responses != 64*100 {
		t.Fatalf("responses %d, sent %d, want %d", res.Responses, res.Sent, 64*100)
	}
	t.Logf("loadgen: %v", res)

	c, err := loadgen.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	t.Logf("stats: %+v", st)
	if st.Workers != 4 {
		t.Fatalf("stats workers = %d, want 4", st.Workers)
	}
	if st.Accepted != 64*100 || st.BatchedOps != 64*100 {
		t.Fatalf("stats accepted=%d batched_ops=%d, want %d", st.Accepted, st.BatchedOps, 64*100)
	}
	if st.MeanBatch <= 1.0 {
		t.Fatalf("mean batch size %.2f; want > 1 (no batching at the network edge)", st.MeanBatch)
	}
	if st.Completed < st.Accepted {
		t.Fatalf("completed %d < accepted %d", st.Completed, st.Accepted)
	}
}

// TestServerBackpressure drives a deliberately tiny window (2) with
// pipelined load from many connections, on one shard and on four. The
// window parks readers — the frames behind it wait in the socket, which
// is TCP backpressure on the client — so the server never holds more
// than conns × Window decoded ops, and every request must still
// complete: exactly one response each, none rejected, none lost, just
// slower.
func TestServerBackpressure(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// QueueCap 2 caps nothing without an SLO: the pumps are uncapped.
			s := startServer(t, server.Config{Workers: 2, Shards: shards, Seed: 25, Window: 2, QueueCap: 2})
			const conns, per = 8, 100
			res, err := loadgen.Run(loadgen.Workload{
				Addr:     s.Addr().String(),
				Conns:    conns,
				Ops:      per,
				Window:   8, // deliberately deeper than the server window
				DS:       server.DSHashmap,
				ReadFrac: 0.5,
				Seed:     25,
			})
			if err != nil {
				t.Fatalf("loadgen: %v", err)
			}
			if res.Errors != 0 {
				t.Fatalf("backpressure rejected %d ops; it must be lossless: %v", res.Errors, res)
			}
			if res.Responses != conns*per {
				t.Fatalf("responses %d, want %d (lost or duplicated)", res.Responses, conns*per)
			}

			c, err := loadgen.Dial(s.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			st, err := c.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if st.Accepted != conns*per {
				t.Fatalf("stats accepted %d, want %d", st.Accepted, conns*per)
			}
			if st.Rejected != 0 {
				t.Fatalf("stats rejected %d, want 0", st.Rejected)
			}
			if st.QueueDepth != 0 {
				t.Fatalf("queue depth %d after quiescence, want 0", st.QueueDepth)
			}
		})
	}
}

// TestServerGracefulShutdown interrupts live traffic with Shutdown and
// checks the drain guarantee: every admitted operation executes and its
// response reaches the client before the connection closes. The counter
// permutation makes a lost or phantom response arithmetically visible.
func TestServerGracefulShutdown(t *testing.T) {
	s, err := server.Start(server.Config{Workers: 4, Seed: 26})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	const conns = 16

	var mu sync.Mutex
	var got []int64 // successful increment results across all conns
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := loadgen.Dial(s.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			var mine []int64
			for {
				r, err := c.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1})
				if err != nil {
					break // connection drained and closed by shutdown
				}
				if !r.Err() {
					if !r.OK() {
						t.Error("accepted increment without Ok")
						return
					}
					mine = append(mine, r.Res)
				}
			}
			mu.Lock()
			got = append(got, mine...)
			mu.Unlock()
		}()
	}

	// Let traffic build, then pull the plug mid-flight.
	time.Sleep(100 * time.Millisecond)
	s.Shutdown()
	wg.Wait()
	if t.Failed() {
		return
	}
	s.Shutdown() // idempotent: a second call returns immediately

	if len(got) == 0 {
		t.Fatal("no operations completed before shutdown")
	}
	// Every response the clients received must form a permutation of
	// 1..N for N = count: a dropped in-flight response leaves a hole at
	// the top, a duplicate or phantom collides.
	seen := make(map[int64]bool, len(got))
	max := int64(0)
	for _, v := range got {
		if v < 1 || seen[v] {
			t.Fatalf("result %d duplicated or out of range", v)
		}
		seen[v] = true
		if v > max {
			max = v
		}
	}
	if max != int64(len(got)) {
		t.Fatalf("received %d results but max is %d: responses lost in shutdown", len(got), max)
	}
	t.Logf("drained %d in-flight-era operations cleanly", len(got))
}

// TestServerConcurrentShutdown calls Shutdown from many goroutines at
// once; all must return and the server must come down exactly once.
func TestServerConcurrentShutdown(t *testing.T) {
	s, err := server.Start(server.Config{Workers: 2, Seed: 27})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Shutdown() }()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Shutdown wedged")
	}
}

// TestServerProtocolError checks that a malformed frame drops only the
// offending connection, not the server.
func TestServerProtocolError(t *testing.T) {
	s := startServer(t, server.Config{Workers: 2, Seed: 28})

	bad, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// A frame with a correct length prefix but a truncated body: decodes
	// wrong, and the server must drop only this connection.
	if _, err := bad.Write([]byte{3, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := bad.Read(make([]byte, 1)); err == nil {
		t.Fatal("expected connection close after malformed frame")
	}
	bad.Close()

	good, err := loadgen.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer good.Close()
	r, err := good.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1})
	if err != nil || r.Err() {
		t.Fatalf("server unhealthy after peer protocol error: err=%v flags=%#x", err, r.Flags)
	}
}
