package main

import (
	"fmt"
	"slices"

	"batcher/internal/ds/counter"
	"batcher/internal/ds/hashmap"
	"batcher/internal/ds/skiplist"
	"batcher/internal/sched"
)

// applyFn performs one stream op on a structure from a core task
// through the structure's typed Batchify method.
type applyFn func(c *sched.Ctx, key int64, write bool) (res int64, ok bool)

func batchifyFn(b sched.Batched) applyFn {
	switch b := b.(type) {
	case *counter.Batched:
		return func(c *sched.Ctx, _ int64, _ bool) (int64, bool) { return b.Increment(c, 1), true }
	case *skiplist.Batched:
		return func(c *sched.Ctx, key int64, write bool) (int64, bool) {
			if write {
				return 0, b.Insert(c, key, valueOf(key))
			}
			return b.Contains(c, key)
		}
	case *hashmap.Batched:
		return func(c *sched.Ctx, key int64, write bool) (int64, bool) {
			if write {
				return 0, b.Put(c, key, valueOf(key))
			}
			return b.Get(c, key)
		}
	}
	panic(fmt.Sprintf("bench: no Batchify methods for %T", b))
}

// libChunk is how many ops one c.For issues. The root checks the clock
// between chunks, so a chunk bounds how far a timed run overshoots.
const libChunk = 1 << 13

// libLatEvery is the share of fork-join ops whose call is timed: two
// clock reads cost a tenth of a Batchify round trip, so timing every op
// would measure the clock.
const libLatEvery = 16

// libRun is one timed region of the fork-join program.
type libRun struct {
	ops   int64
	wall  int64
	wins  []window // ops, wall and cpu, cut at chunk ends
	recs  []*recorder
	chks  []*checker
	start int64
}

// runLib runs the paper's Figure 1 shape: one root task that calls
// c.For with grain 1, every iteration issuing the next op of the stream
// (from index from) through Batchify. It stops after ops operations or
// at the deadline, whichever lim sets.
func runLib(rt *sched.Runtime, b sched.Batched, sp *spec, st *stream, from int64, lim limit, winNS int64, capacity int, tr *tracer, root int64) *libRun {
	apply := batchifyFn(b)
	p := rt.Workers()
	run := &libRun{recs: make([]*recorder, p), chks: make([]*checker, p)}
	tks := make([]*track, p)
	every := int64(libLatEvery)
	if tr != nil {
		every = sampleEvery
	}
	for i := range run.recs {
		run.recs[i] = newRecorder(capacity/int(every)/p+1, false, false)
		run.recs[i].winNS = winNS
		k := newChecker(sp, st)
		run.chks[i] = &k
		tks[i] = tr.newTrack(capacity/sampleEvery + 16)
	}
	run.start = now()
	for _, r := range run.recs {
		r.start = run.start
	}

	base := from
	body := func(c *sched.Ctx, i int) {
		idx := base + int64(i)
		key, write := st.at(idx)
		w := c.WorkerID()
		if idx%every != 0 {
			res, ok := apply(c, key, write)
			if !run.chks[w].result(key, write, res, ok) {
				run.recs[w].bad++
			}
			return
		}
		t0 := now()
		res, ok := apply(c, key, write)
		t := now()
		run.recs[w].observe(t, t-t0, run.chks[w].result(key, write, res, ok))
		tks[w].add(root, "sched.batchify", "sched", t0, t, idx)
	}

	rt.Run(func(c *sched.Ctx) {
		winStart, winOps := run.start, int64(0)
		cpu0 := cpuTime()
		for {
			n := int64(libChunk)
			if lim.ops > 0 && lim.ops-run.ops < n {
				n = lim.ops - run.ops
			}
			c.For(0, int(n), 1, body)
			base += n
			run.ops += n
			winOps += n
			t := now()
			if t-winStart >= winNS {
				cpu1 := cpuTime()
				run.wins = append(run.wins, window{ops: winOps, wall: t - winStart, cpu: cpu1 - cpu0})
				winStart, winOps, cpu0 = t, 0, cpu1
			}
			if (lim.ops > 0 && run.ops >= lim.ops) || (lim.deadline > 0 && t >= lim.deadline) {
				run.wall = t - run.start
				return
			}
		}
	})

	// Attach each window's sampled latencies, from every worker.
	for k := range run.wins {
		w := &run.wins[k]
		for _, r := range run.recs {
			if k >= len(r.winOff) {
				continue
			}
			lo := 0
			if k > 0 {
				lo = r.winOff[k-1]
			}
			w.lat = append(w.lat, r.lat[lo:r.winOff[k]]...)
		}
		slices.Sort(w.lat)
	}
	return run
}

func (run *libRun) bad() int64 {
	var n int64
	for _, r := range run.recs {
		n += r.bad
	}
	return n
}

// nsPerOp is a rung's figure: wall time over ops.
func nsPerOp(wall int64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(wall) / float64(ops)
}
