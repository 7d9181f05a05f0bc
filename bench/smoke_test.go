package main

import (
	"bufio"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batcher/internal/server"
)

// small shrinks a workload so a pass takes a fraction of a second: a
// small keyspace to preload, one set-up, a short warm-up. Everything
// else — drivers, rungs, checks — is what the benchmark runs.
func small(sp *spec) *spec {
	s := *sp
	if s.keyspace > 0 {
		s.keyspace = 1 << 14
	}
	s.setups = 1
	s.warmOps = 2000
	return &s
}

// TestSmoke runs both passes of every workload with the output checks
// on, so `go test ./...` keeps the harness compiling and correct.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		sp := small(sp)
		t.Run(sp.name, func(t *testing.T) {
			res := endToEndPass(sp, 7, 0.25)
			for _, p := range res.Problems {
				t.Errorf("end-to-end: %s", p)
			}
			for _, d := range endToEnd {
				// slo_ok_frac may read 0 when the race detector slows
				// every op past the limit.
				if v := res.Metrics[d.name]; !(v > 0 || d.name == "slo_ok_frac" && v == 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", d.name, v)
				}
			}
			if _, failed := res.totals(); failed != 0 {
				t.Errorf("end-to-end: %d operations failed", failed)
			}

			// About 20k ops through every rung.
			seconds := 20_000 / float64(ladderOps(sp, 1))
			res = tracedPass(sp, 7, seconds, "")
			for _, p := range res.Problems {
				t.Errorf("traced: %s", p)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("traced pass did not report %s", d.name)
				}
			}
			m := res.Metrics
			if sp.lib {
				if m["server.ns_per_op"] != 0 || m["shard.ns_per_op"] != 0 {
					t.Errorf("fork-join workload reported wire rungs: %v", m)
				}
				return
			}
			// The rungs telescope: the structure plus every layer's self
			// time is the wire figure.
			sum := m["ds.ns_per_op"] + m["sched.batchify_self_ns"] + m["sched.pump_self_ns"] + m["shard.self_ns"] + m["server.self_ns"]
			if math.Abs(sum-m["server.ns_per_op"]) > 1e-6*m["server.ns_per_op"] {
				t.Errorf("ladder does not telescope: parts sum to %v, server.ns_per_op = %v", sum, m["server.ns_per_op"])
			}
			if m["e2e.fail_frac"] != 0 {
				t.Errorf("e2e.fail_frac = %v", m["e2e.fail_frac"])
			}
		})
	}
}

// TestBenchmarkJSON keeps the committed BENCHMARK.json equal to the
// tables in spec.go (`go run ./bench spec` regenerates it).
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(benchmarkJSON()) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: go run ./bench spec > BENCHMARK.json")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

// stubServer answers every request at once and correctly, except that
// the connection handling request number stallAt sleeps for stall first.
func stubServer(t *testing.T, stallAt int64, stall time.Duration) (addr string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		handled atomic.Int64
		wg      sync.WaitGroup
	)
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
				var in, out []byte
				for {
					body, err := server.ReadFrame(br, in)
					if err != nil {
						return
					}
					in = body[:0]
					q, err := server.DecodeRequest(body)
					if err != nil {
						return
					}
					if handled.Add(1) == stallAt {
						time.Sleep(stall)
					}
					out = server.AppendResponse(out[:0], server.Response{ID: q.ID, Flags: server.FlagOK, Key: q.Key, Res: valueOf(q.Key)})
					bw.Write(out)
					if br.Buffered() == 0 {
						if bw.Flush() != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestOpenLoopChargesStallToLaterRequests proves the open-loop driver has
// no coordinated omission: when the server stalls for 50ms, the driver
// keeps to its schedule, and every request that fell due during the
// stall shows it in its latency — not only the one request in flight.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	sp := small(findWorkload("wire_skiplist_open"))
	sp.rate = 2000 * float64(conns())
	st := newStream(sp, 3)
	addr := stubServer(t, 200, stall)
	wcs, err := dialConns(addr, sp, st)
	if err != nil {
		t.Fatal(err)
	}
	defer closeConns(wcs)

	run := runWire(wcs, sp, 3, limit{deadline: now() + int64(500*time.Millisecond)}, 1<<62, 4096, nil, 0, true)
	if run.err != nil {
		t.Fatal(run.err)
	}
	if c := run.counts(); c.Failed != 0 || c.Sent < 400 {
		t.Fatalf("sent %d, failed %d; want at least 400 sent and none failed", c.Sent, c.Failed)
	}
	// One connection stalled. At 2000 requests a second, about 100 fell
	// due during the stall, and all but the last few waited over 5ms. A
	// driver that waited for the stalled response before sending again
	// would show exactly one.
	most := 0
	for _, r := range run.recs {
		slow := 0
		for _, ns := range r.lat {
			if ns > uint32(5*time.Millisecond) {
				slow++
			}
		}
		most = max(most, slow)
	}
	if most < 50 {
		t.Errorf("%d requests saw the 50ms stall; an open loop charges it to the ~100 that fell due during it", most)
	}
	// A sender that waited for the stalled response would have sent those
	// ~100 requests (a tenth of the connection's) 25ms or more late.
	late, sent := 0, 0
	for _, r := range run.recs {
		for _, ns := range r.lag {
			if ns > uint32(stall/2) {
				late++
			}
		}
		sent += len(r.lag)
	}
	if late*20 > sent {
		t.Errorf("%d of %d requests left the generator over 25ms late: the sender waited for the server", late, sent)
	}
}

func TestCheckerCatchesWrongResults(t *testing.T) {
	kv := findWorkload("wire_skiplist_open")
	st := newStream(small(kv), 1)
	k := newChecker(kv, st)
	var pre, absent int64 = -1, -1
	for key := int64(0); pre < 0 || absent < 0; key++ {
		if st.preloaded(key) {
			pre = key
		} else {
			absent = key
		}
	}
	for _, c := range []struct {
		name     string
		key, res int64
		ok, want bool
	}{
		{"present with its value", pre, valueOf(pre), true, true},
		{"present with another value", pre, valueOf(pre) + 1, true, false},
		{"preloaded key reported absent", pre, 0, false, false},
		{"never-written key absent", absent, 0, false, true},
	} {
		if got := k.result(c.key, false, c.res, c.ok); got != c.want {
			t.Errorf("%s: checker said %v, want %v", c.name, got, c.want)
		}
	}

	ctr := findWorkload("wire_counter_closed")
	a, b := newChecker(ctr, st), newChecker(ctr, st)
	for v := int64(1); v <= 10; v++ {
		k := &a
		if v%2 == 0 {
			k = &b
		}
		if !k.result(0, true, v, true) {
			t.Fatalf("counter value %d rejected", v)
		}
	}
	if n, err := mergeCounters([]*checker{&a, &b}); err != nil || n != 10 {
		t.Errorf("mergeCounters = %d, %v; want 10, nil", n, err)
	}
	if a.result(0, true, 3, true) {
		t.Error("a counter value returned twice to one client passed")
	}
	b.result(0, true, 12, true) // 11 never returned
	if _, err := mergeCounters([]*checker{&a, &b}); err == nil {
		t.Error("a gap in the counter values passed")
	}
	c := newChecker(ctr, st)
	c.result(0, true, 4, true) // 4 was already returned to b
	if _, err := mergeCounters([]*checker{&a, &b, &c}); err == nil {
		t.Error("a counter value returned to two clients passed")
	}
}
