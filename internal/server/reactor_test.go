package server_test

// Behavioral witnesses for the reactor-pool wire edge: cross-connection
// write coalescing, steady-state allocation bounds, the shutdown drain
// under deep client pipelines, and stall isolation between connections
// sharing a writer loop.

import (
	"sync"
	"testing"
	"time"

	"batcher/internal/faultinject"
	"batcher/internal/loadgen"
	"batcher/internal/server"
)

// TestServerWriteCoalescing pins the reactor's syscall amortization:
// with pipelined load across several connections, completed responses
// must land in strictly fewer write syscalls than responses — the
// shared writer loops batch every response that is ready when a
// connection's turn comes, so one write carries many frames. Reads
// amortize the same way against the clients' burst flushes.
func TestServerWriteCoalescing(t *testing.T) {
	if raceEnabled {
		t.Skip("syscall-count ratios are not meaningful under -race")
	}
	s := startServer(t, server.Config{Workers: 2, Seed: 32})
	const conns, per = 8, 400
	res, err := loadgen.Run(loadgen.Workload{
		Addr:   s.Addr().String(),
		Conns:  conns,
		Ops:    per,
		Window: 32,
		DS:     server.DSCounter,
		Seed:   32,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.Responses != conns*per {
		t.Fatalf("responses %d, want %d", res.Responses, conns*per)
	}

	st := s.Snapshot()
	t.Logf("ops=%d reads=%d writes=%d (%.2f ops/read, %.2f ops/write)",
		st.Completed, st.ReadSyscalls, st.WriteSyscalls,
		float64(st.Completed)/float64(st.ReadSyscalls),
		float64(st.Completed)/float64(st.WriteSyscalls))
	if st.WriteSyscalls >= st.Completed {
		t.Fatalf("no write coalescing: %d write syscalls for %d responses",
			st.WriteSyscalls, st.Completed)
	}
	if st.ReadSyscalls >= st.Accepted+st.Immediate {
		t.Fatalf("no read coalescing: %d read syscalls for %d requests",
			st.ReadSyscalls, st.Accepted+st.Immediate)
	}
}

// TestServerSteadyStateAllocs pins the edge's per-op allocation budget
// at steady state: request records are pooled, decode scratch and
// response buffers are reused per loop and per connection, and the
// client side runs on a fixed timestamp ring — so a warmed server and
// a pre-dialed driver together must stay in low single digits of
// allocations per operation (the remainder is scheduler batch scratch
// and driver bookkeeping, both amortized across a whole run).
func TestServerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation measurement is timing-heavy; skipped in -short")
	}
	s := startServer(t, server.Config{Workers: 2, Seed: 33})
	d, err := loadgen.NewDriver(loadgen.Workload{
		Addr:   s.Addr().String(),
		Conns:  4,
		Window: 32,
		DS:     server.DSCounter,
		Seed:   33,
	})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	defer d.Close()

	const opsPerRound = 2000
	// Warm the request pool, loop scratch, outbufs, and pump queue.
	for i := 0; i < 2; i++ {
		if _, err := d.Run(opsPerRound); err != nil {
			t.Fatalf("warmup run: %v", err)
		}
	}
	perOp := testing.AllocsPerRun(3, func() {
		if _, err := d.Run(opsPerRound); err != nil {
			t.Fatalf("measured run: %v", err)
		}
	}) / opsPerRound
	t.Logf("steady-state allocs/op (client+server in-process): %.2f", perOp)
	if perOp > 6 {
		t.Fatalf("steady-state allocations %.2f per op, want <= 6", perOp)
	}
}

// TestServerReactorShutdownDrain is the drain witness under deep client
// pipelines and a deliberately tiny server window: at shutdown, every
// decoded operation is served — none is rejected — and its response
// reaches its client before the connection closes, and the books
// balance. Frames past the window were never decoded; they stay unread
// in the socket. The counter permutation makes any dropped response a
// visible hole at the top of the range.
func TestServerReactorShutdownDrain(t *testing.T) {
	s, err := server.Start(server.Config{
		Workers: 2,
		Seed:    31,
		Window:  2,
		// Without an SLO QueueCap caps nothing: the shard pumps are
		// uncapped, so even this tiny value must not reject.
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
		go func() {
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
					mineRejected++
				} else {
					mine = append(mine, r.Res)
				}
				return true
			}
		loop:
			for {
				// Deep pipeline: 16 in flight against a server window of 2,
				// so most frames wait unread in the socket.
				for inFlight < 16 {
					if _, err := c.Send(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1}); err != nil {
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
		}()
	}

	time.Sleep(75 * time.Millisecond)
	s.Shutdown()
	wg.Wait()
	if t.Failed() {
		return
	}

	if len(got) == 0 {
		t.Fatal("no operations completed before shutdown")
	}
	if rejected != 0 {
		t.Fatalf("%d client-visible rejections: the drain must serve every decoded op", rejected)
	}
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
		t.Fatalf("received %d results but max is %d: accepted responses lost in drain", len(got), max)
	}

	st := s.Snapshot()
	if st.Completed != st.Accepted+st.Immediate {
		t.Fatalf("books unbalanced after drain: completed=%d accepted=%d immediate=%d",
			st.Completed, st.Accepted, st.Immediate)
	}
	if st.Conns != 0 {
		t.Fatalf("%d connections survived shutdown", st.Conns)
	}
	t.Logf("drained %d accepted ops, books balanced", len(got))
}

// TestServerStallIsolation pins deadline ownership in the shared writer
// loops: a connection that stops reading (its responses wedged against
// a full socket buffer) must not delay loop-mates. The stalled conn's
// flush is bounded per attempt and it moves to the blocked list; the
// healthy connection sharing the same writer loop keeps completing
// round trips at full speed while the stall is still in progress.
func TestServerStallIsolation(t *testing.T) {
	s, err := server.Start(server.Config{
		Workers:           2,
		Seed:              34,
		Window:            8,
		WriteStallTimeout: 5 * time.Second, // long: the stall must persist through the test
		DrainTimeout:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	// Flood requests and never read: ~10MB of payload-bearing responses
	// wedges the server's writes against the socket buffer.
	nc, _ := faultinject.Slowloris(addr, 25000)
	if nc == nil {
		t.Fatal("slowloris dial failed")
	}
	defer nc.Close()

	cl, err := loadgen.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	const ops = 200
	for i := 0; i < ops; i++ {
		r, err := cl.Do(server.Request{DS: server.DSCounter, Op: server.OpInsert, Val: 1})
		if err != nil || r.Err() {
			t.Fatalf("healthy op %d during loop-mate stall: r=%+v err=%v", i, r, err)
		}
	}
	elapsed := time.Since(start)
	// Generous bound: ops are sequential round trips, so even modest
	// head-of-line blocking behind the stalled conn would blow through it.
	if elapsed > 3*time.Second {
		t.Fatalf("%d round trips took %v behind a stalled loop-mate; writer loop is not isolating the stall", ops, elapsed)
	}
	if st := s.Snapshot(); st.Conns < 2 {
		t.Fatalf("stalled conn already evicted (conns=%d); the test did not witness coexistence", st.Conns)
	}
	t.Logf("%d round trips in %v alongside a write-stalled loop-mate", ops, elapsed)

	nc.Close()
	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung after stall isolation test")
	}
}
