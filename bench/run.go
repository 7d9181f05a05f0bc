package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/server"
)

// counts is what one phase of a run sent and got back.
type counts struct {
	Sent      int64 `json:"sent"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
}

// result is one pass of one workload.
type result struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"metrics"`
	Phases   map[string]counts  `json:"phases"`
	// Problems lists every output check that failed; the pass is correct
	// when it is empty.
	Problems []string `json:"problems"`
	// Valid is false when the open-loop generator ran late (send lag p99
	// over a millisecond): the latencies then measure the generator.
	Valid bool        `json:"valid"`
	Env   fingerprint `json:"env"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) totals() (attempted, failed int64) {
	for _, c := range r.Phases {
		attempted += c.Sent
		failed += c.Failed
	}
	return attempted, failed
}

const (
	// windowsPerRun is how many windows a timed region is cut into, and
	// bestWindow the rank, from a metric's better end, of the window whose
	// value is reported (see endToEnd).
	windowsPerRun = 40
	bestWindow    = 0.05
	// maxLagNS is the send lag p99 beyond which an open-loop run is void.
	maxLagNS = 1_000_000
)

// ladderOps is the length of the stream prefix the ladder replays for
// sp: fixed by the run length alone, so every rung, and both sides of a
// later comparison, do identical work. The rates make a traced pass last
// about as long as the timed region of an untraced one.
func ladderOps(sp *spec, seconds float64) int64 {
	rate := 20_000.0
	if sp.lib {
		rate = 100_000
	}
	c := int64(conns())
	return max(int64(seconds*rate)/c, 1) * c
}

// wireTarget is a served, preloaded structure with its clients.
type wireTarget struct {
	sp  *spec
	st  *stream
	srv *server.Server
	wcs []*wireConn
}

// setupWire builds the inputs, starts the server with its structure
// preloaded, dials the clients and, if warm, runs the warm-up.
func setupWire(sp *spec, seed uint64, warm bool) (*wireTarget, counts, error) {
	st := newStream(sp, seed)
	srv, err := startServer(sp, st)
	if err != nil {
		return nil, counts{}, err
	}
	wcs, err := dialConns(srv.Addr().String(), sp, st)
	if err != nil {
		srv.Shutdown()
		return nil, counts{}, err
	}
	tg := &wireTarget{sp: sp, st: st, srv: srv, wcs: wcs}
	var c counts
	if warm {
		run := runWire(wcs, sp, seed, limit{ops: sp.warmOps / int64(len(wcs))}, 1<<62, int(sp.warmOps), nil, 0, false)
		c = run.counts()
		if run.err != nil {
			tg.close()
			return nil, c, fmt.Errorf("warm-up: %w", run.err)
		}
	}
	return tg, c, nil
}

func (tg *wireTarget) close() {
	closeConns(tg.wcs)
	tg.srv.Shutdown()
}

func (run *wireRun) counts() counts {
	var c counts
	for _, r := range run.recs {
		c.Sent += r.sent
		c.Succeeded += r.ok
		c.Failed += r.bad
	}
	c.Failed += run.missing
	return c
}

// finish reads back what the run wrote, shuts the server down and checks
// the books. It returns the server's final stats and the structure size.
func (tg *wireTarget) finish(res *result) (server.Stats, int64) {
	res.Phases["sweep"] = tg.sweep(res)
	closeConns(tg.wcs)
	tg.srv.Shutdown()
	st := tg.srv.Snapshot()

	if st.Failed != 0 || st.Rejected != 0 || st.Shed != 0 {
		res.problem("server failed %d, rejected %d, shed %d operations", st.Failed, st.Rejected, st.Shed)
	}
	if st.Completed != st.Accepted+st.Immediate {
		res.problem("books: completed %d != accepted %d + immediate %d", st.Completed, st.Accepted, st.Immediate)
	}
	var acc int64
	for _, ss := range st.PerShard {
		acc += ss.Accepted
		if ss.Accepted != ss.Completed {
			res.problem("books: shard %d accepted %d != completed %d", ss.Shard, ss.Accepted, ss.Completed)
		}
	}
	if acc != st.Accepted {
		res.problem("books: shards accepted %d != server accepted %d", acc, st.Accepted)
	}

	size := servedSize(tg.srv, tg.sp)
	if tg.sp.ds == server.DSCounter {
		chks := make([]*checker, len(tg.wcs))
		for i, wc := range tg.wcs {
			chks[i] = &wc.chk
		}
		n, err := mergeCounters(chks)
		switch {
		case err != nil:
			res.problem("%v", err)
		case n != size:
			res.problem("clients witnessed 1..%d but the counter holds %d", n, size)
		}
	}
	return st, size
}

// sweep reads back, over the wire, a sample of the writes the run saw
// acknowledged and a sample of the preloaded keys: all must be present
// with their value.
func (tg *wireTarget) sweep(res *result) counts {
	var c counts
	if tg.sp.ds == server.DSCounter {
		return c
	}
	var keys []int64
	for _, wc := range tg.wcs {
		keys = append(keys, wc.chk.acked...)
	}
	for key, n := int64(0), 0; key < tg.sp.keyspace && n < 4096; key += 61 {
		if tg.st.preloaded(key) {
			keys = append(keys, key)
			n++
		}
	}
	cl := tg.wcs[0].c
	const burst = 16
	for len(keys) > 0 {
		n := min(burst, len(keys))
		want := map[uint64]int64{}
		for _, key := range keys[:n] {
			id, err := cl.Send(server.Request{DS: tg.sp.ds, Op: server.OpLookup, Key: key})
			if err != nil {
				res.problem("sweep: %v", err)
				c.Failed += int64(len(keys))
				return c
			}
			want[id] = key
		}
		c.Sent += int64(n)
		if err := cl.Flush(); err != nil {
			res.problem("sweep: %v", err)
			c.Failed += int64(n)
			return c
		}
		for i := 0; i < n; i++ {
			r, err := cl.Recv()
			if err != nil {
				res.problem("sweep: %v", err)
				c.Failed += int64(n - i)
				return c
			}
			key, ok := want[r.ID]
			if !ok || r.Err() || !r.OK() || r.Key != key || r.Res != valueOf(key) {
				c.Failed++
				continue
			}
			c.Succeeded++
		}
		keys = keys[n:]
	}
	if c.Failed > 0 {
		res.problem("sweep: %d of %d written or preloaded keys did not read back", c.Failed, c.Sent)
	}
	return c
}

// newResult starts a pass's record.
func newResult(sp *spec, seed uint64, seconds float64, traced bool) *result {
	return &result{
		Workload: sp.name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Phases: map[string]counts{},
		Problems: []string{}, Valid: true, Env: env,
	}
}

// endToEndPass measures sp untraced for the given time and reports the
// end-to-end metrics.
func endToEndPass(sp *spec, seed uint64, seconds float64) *result {
	res := newResult(sp, seed, seconds, false)
	winNS := int64(seconds * 1e9 / windowsPerRun)
	dur := int64(seconds * 1e9)
	var setups []float64

	if sp.lib {
		var (
			rt *sched.Runtime
			b  sched.Batched
			st *stream
		)
		for i := 0; i < sp.setups; i++ {
			b, rt = nil, nil
			runtime.GC()
			t0 := time.Now()
			st = newStream(sp, seed)
			b = newDS(sp, 0)
			preload(b, sp, st, 0, 1)
			rt = sched.New(sched.Config{Workers: sp.workers, Seed: progSeed})
			warm := runLib(rt, b, sp, st, 0, limit{ops: sp.warmOps}, 1<<62, int(sp.warmOps), nil, 0)
			setups = append(setups, time.Since(t0).Seconds())
			res.Phases["warmup"] = counts{Sent: warm.ops, Succeeded: warm.ops - warm.bad(), Failed: warm.bad()}
		}
		run := runLib(rt, b, sp, st, sp.warmOps, limit{deadline: now() + dur}, winNS, int(seconds*2e6), nil, 0)
		rss := retainedRSSMiB()
		runtime.KeepAlive(b) // the structure is what the measurement above is of
		res.Phases["timed"] = counts{Sent: run.ops, Succeeded: run.ops - run.bad(), Failed: run.bad()}
		res.endToEnd(setups, run.wins, res.Phases["timed"], rss)
		return res
	}

	var tg *wireTarget
	for i := 0; i < sp.setups; i++ {
		if tg != nil {
			tg.close()
			tg = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		tg, res.Phases["warmup"], err = setupWire(sp, seed, true)
		if err != nil {
			res.problem("set-up: %v", err)
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	open := sp.rate > 0
	capacity := int(seconds * 150_000 / float64(len(tg.wcs)))
	if open {
		capacity = int(seconds * sp.rate * 1.2 / float64(len(tg.wcs)))
	}
	run := runWire(tg.wcs, sp, seed, limit{deadline: now() + dur}, winNS, capacity, nil, 0, open)
	rss := retainedRSSMiB()
	if run.err != nil {
		res.problem("timed run: %v", run.err)
	}
	res.Phases["timed"] = run.counts()
	if open {
		if lag := run.lagP99(); lag > maxLagNS {
			res.Valid = false
			fmt.Fprintf(stderr, "bench: %s: generator send lag p99 %.0fus exceeds %dus; latencies are void\n", sp.name, float64(lag)/1e3, maxLagNS/1000)
		}
	}
	tg.finish(res)
	res.endToEnd(setups, run.windows(winNS), res.Phases["timed"], rss)
	return res
}

func (run *wireRun) lagP99() uint32 {
	var lag []uint32
	for _, r := range run.recs {
		lag = append(lag, r.lag...)
	}
	slices.Sort(lag)
	return quantile(lag, 0.99)
}

// endToEnd fills in the end-to-end metrics from a timed region's windows.
//
// Throughput, median latency and CPU per op are each the value of a
// best-case window: the one at rank 5% from the metric's better end (the
// third best of 40). The host this runs on is a shared two-core VM whose
// speed sags by up to a third for seconds or minutes at a time;
// interference only ever slows a window, so the best windows are the
// ones that measured the program, and they repeat from run to run where
// the median window does not (README.md has the numbers). slo_ok_frac is
// the opposite kind of metric and covers every op of the region, so that
// a stall the best windows would hide still shows.
func (res *result) endToEnd(setups []float64, wins []window, timed counts, rssMiB float64) {
	var rate, p50, cpu []float64
	var within, sampled int
	for _, w := range wins {
		if w.ops == 0 || len(w.lat) == 0 {
			continue // a stall spanning the window: its ops land, late, in the next
		}
		rate = append(rate, float64(w.ops)/(float64(w.wall)/1e9))
		p50 = append(p50, float64(quantile(w.lat, 0.50))/1e3)
		cpu = append(cpu, float64(w.cpu)/1e3/float64(w.ops))
		i, _ := slices.BinarySearch(w.lat, sloNS+1)
		within += i
		sampled += len(w.lat)
	}
	if len(rate) == 0 {
		res.problem("timed region completed no window with operations in it")
		return
	}
	slices.Sort(rate)
	slices.Sort(p50)
	slices.Sort(cpu)
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = quantile(rate, 1-bestWindow)
	m["lat_p50_us"] = quantile(p50, bestWindow)
	m["cpu_us_per_op"] = quantile(cpu, bestWindow)
	m["rss_mb"] = rssMiB
	// Failed ops miss the limit by definition; the rest are judged by
	// their latency (every op on the wire, a sample in the fork-join
	// program).
	m["slo_ok_frac"] = (1 - float64(timed.Failed)/float64(max(timed.Sent, 1))) * float64(within) / float64(sampled)
}

// phaseMeans turns the recorders' phase sums into per-phase means and
// returns the mean server-side latency (PhaseRead to PhaseDone) too.
func phaseMeans(recs []*recorder) (means [obs.NumPhases - 1]float64, total float64) {
	var sum [obs.NumPhases - 1]int64
	var tot, n int64
	for _, r := range recs {
		for i, s := range r.phaseSum {
			sum[i] += s
		}
		tot += r.totalSum
		n += r.phaseSeen
	}
	if n == 0 {
		return means, 0
	}
	for i, s := range sum {
		means[i] = float64(s) / float64(n)
	}
	return means, float64(tot) / float64(n)
}
