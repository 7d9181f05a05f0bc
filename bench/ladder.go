package main

import (
	"runtime"
	"slices"
	"sync"

	"batcher/internal/ds/counter"
	"batcher/internal/ds/hashmap"
	"batcher/internal/ds/skiplist"
	"batcher/internal/sched"
	"batcher/internal/server"
	"batcher/internal/shard"
)

// The ladder replays one fixed prefix of a workload's op stream through
// each layer boundary in turn, closed loop and flat out, on a freshly
// preloaded structure each time:
//
//	R0 ds      the structure alone
//	R1 sched   rt.Run + c.For calling the typed Batchify methods
//	R2 sched   submitter goroutines -> Pump.SubmitAll -> OnDone
//	R3 shard   submitter goroutines -> shard.Of + Shard.SubmitAll on a Router
//	R4 server  the loopback wire run
//
// A rung's figure is wall time over ops, so each layer's self time is
// the difference between its rung and the one below, and the self times
// add up to the wire figure by construction.
type rung struct {
	ops  int64
	wall int64
	size int64 // structure size at the end; every rung must agree
	bad  int64 // results that failed their check

	// Scheduler counters over the rung (zero at R0).
	steals, failedSteals, parks int64
	batches, batched            int64
	reasons                     [sched.NumLaunchReasons]int64

	// Submitter-side measurements (R2, R3).
	submitNS  int64    // time inside SubmitAll calls
	submits   int64    // SubmitAll calls
	bursts    int64    // bursts handed to the layer
	doneWait  []uint32 // sampled submit -> OnDone, ns
	depthMax  int
	imbalance float64 // R3: max over mean of per-shard accepted ops
}

func (r *rung) nsPerOp() float64 { return nsPerOp(r.wall, r.ops) }

// addRuntime folds one quiescent runtime's counters into the rung.
func (r *rung) addRuntime(rt *sched.Runtime) {
	m := rt.Metrics()
	r.steals += m.SuccessfulSteals
	r.failedSteals += m.FailedSteals
	r.parks += m.Parks
	b, o := rt.LiveBatchStats()
	r.batches += b
	r.batched += o
	for i, n := range rt.LaunchReasons() {
		r.reasons[i] += n
	}
}

// rungDS is R0: the first n stream ops applied to the structure alone.
// The skip list and the counter have sequential forms; the hash map has
// only its batched operation, which is handed batches of P ops on a
// one-worker runtime.
func rungDS(sp *spec, st *stream, n int64, tk *track) *rung {
	r := &rung{ops: n}
	k := newChecker(sp, st)
	b := newDS(sp, 0)
	preload(b, sp, st, 0, 1)
	start := now()
	switch b := b.(type) {
	case *counter.Batched:
		seq := counter.NewSeq(0)
		for i := int64(0); i < n; i++ {
			if !k.result(0, true, seq.Increment(1), true) {
				r.bad++
			}
		}
		r.size = seq.Value()
	case *skiplist.Batched:
		l := b.List()
		for i := int64(0); i < n; i++ {
			key, write := st.at(i)
			var res int64
			var ok bool
			if write {
				ok = l.Insert(key, valueOf(key))
			} else {
				res, ok = l.Contains(key)
			}
			if !k.result(key, write, res, ok) {
				r.bad++
			}
		}
		r.size = sizeOf(b)
	case *hashmap.Batched:
		recs := make([]sched.OpRecord, sp.workers)
		ops := make([]*sched.OpRecord, sp.workers)
		for i := range ops {
			ops[i] = &recs[i]
		}
		sched.New(sched.Config{Workers: 1, Seed: progSeed}).Run(func(c *sched.Ctx) {
			for i := int64(0); i < n; i += int64(len(ops)) {
				m := min(int64(len(ops)), n-i)
				for j := int64(0); j < m; j++ {
					key, write := st.at(i + j)
					recs[j] = sched.OpRecord{DS: b, Kind: hashmap.OpGet, Key: key}
					if write {
						recs[j].Kind, recs[j].Val = hashmap.OpPut, valueOf(key)
					}
				}
				b.RunBatch(c, ops[:m])
				for j := int64(0); j < m; j++ {
					if !k.result(recs[j].Key, recs[j].Kind == hashmap.OpPut, recs[j].Res, recs[j].Ok) {
						r.bad++
					}
				}
			}
		})
		r.size = sizeOf(b)
	}
	r.wall = now() - start
	tk.add(0, "R0.ds", "ds", start, start+r.wall, -1)
	return r
}

// rungBatchify is R1: the fork-join program over the first n ops.
func rungBatchify(sp *spec, st *stream, n int64, tr *tracer) *rung {
	b := newDS(sp, 0)
	preload(b, sp, st, 0, 1)
	rt := sched.New(sched.Config{Workers: sp.workers, Seed: progSeed})
	root := tr.newTrack(1)
	id := root.add(0, "R1.batchify", "sched", now(), 0, -1)
	run := runLib(rt, b, sp, st, 0, limit{ops: n}, 1<<62, int(n), tr, id)
	if root != nil {
		root.spans[0].End = run.start + run.wall
	}
	r := &rung{ops: run.ops, wall: run.wall, size: sizeOf(b), bad: run.bad()}
	r.addRuntime(rt)
	if sp.ds == server.DSCounter {
		if _, err := mergeCounters(run.chks); err != nil {
			r.bad++
		}
	}
	return r
}

// slot is one in-flight operation of a submitter: the record the
// scheduler batches, and what the submitter needs to check the result.
type slot struct {
	op      sched.OpRecord
	owner   *submitter
	idx     int64
	write   bool
	sampled bool
	t0, t1  int64 // submit and OnDone times of a sampled op
}

// submitter is one goroutine feeding a pump or a router the way a
// connection's reader loop does: closed loop, up to window ops
// outstanding, handed over in bursts of half a window.
type submitter struct {
	slots []slot
	free  []*slot
	pend  []*sched.OpRecord // filled but not yet admitted
	done  chan *slot        // capacity = window, so OnDone never blocks
	chk   checker

	tk    *track // nil unless traced
	root  int64  // the rung's root span
	layer string

	// R3 scratch: this burst's records grouped by shard, and the refused.
	groups  [][]*sched.OpRecord
	refused []*sched.OpRecord

	rung
}

// onDone is the pump's completion callback. It runs on a scheduler
// worker and must not block: the channel has room for every slot.
func onDone(op *sched.OpRecord) {
	sl := op.Aux.(*slot)
	if sl.sampled {
		sl.t1 = now()
	}
	sl.owner.done <- sl
}

func newSubmitter(sp *spec, st *stream, window int, n int64, tr *tracer) *submitter {
	s := &submitter{
		slots:   make([]slot, window),
		pend:    make([]*sched.OpRecord, 0, window),
		done:    make(chan *slot, window),
		chk:     newChecker(sp, st),
		tk:      tr.newTrack(int(n)/sampleEvery + int(n)/submitSpanEvery + 16),
		groups:  make([][]*sched.OpRecord, sp.shards),
		refused: make([]*sched.OpRecord, 0, window),
	}
	for i := range s.slots {
		s.slots[i].owner = s
		s.slots[i].op.Aux = &s.slots[i]
		s.free = append(s.free, &s.slots[i])
	}
	if tr != nil {
		s.doneWait = make([]uint32, 0, n/sampleEvery+1)
	}
	return s
}

// submitSpanEvery is the share of SubmitAll bursts kept as spans; every
// burst is timed into the rung's counters.
const submitSpanEvery = 8

// run drives ops from, from+stride, ... below n. ds picks the structure
// a key's record targets; submit admits a prefix of the pending records,
// moving any it refused behind the admitted ones, and returns how many
// it admitted.
func (s *submitter) run(sp *spec, st *stream, from, stride, n int64,
	ds func(key int64) sched.Batched, submit func(*submitter, []*sched.OpRecord) int) {
	window := len(s.slots)
	inFlight := 0
	next := from
	for {
		for inFlight+len(s.pend) < window && next < n {
			sl := s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			key, write := st.at(next)
			sl.idx, sl.write = next, write
			sl.sampled = s.tk != nil && next/stride%sampleEvery == 0
			sl.op.DS, sl.op.Key, sl.op.Val, sl.op.Res, sl.op.Ok = ds(key), key, 0, 0, false
			sl.op.Kind = sched.OpKind(server.OpLookup)
			if write {
				sl.op.Kind, sl.op.Val = sched.OpKind(server.OpInsert), valueOf(key)
			}
			if sp.ds == server.DSCounter {
				sl.op.Val = 1
			}
			s.pend = append(s.pend, &sl.op)
			next += stride
		}
		if len(s.pend) > 0 {
			s.bursts++
			var t0 int64
			if s.tk != nil {
				t0 = now()
				for _, op := range s.pend {
					if sl := op.Aux.(*slot); sl.sampled {
						sl.t0 = t0
					}
				}
			}
			k := submit(s, s.pend)
			if s.tk != nil {
				t1 := now()
				s.submitNS += t1 - t0
				if s.bursts%submitSpanEvery == 0 {
					s.tk.add(s.root, s.layer+".submit_all", s.layer, t0, t1, -1)
				}
			}
			inFlight += k
			s.pend = s.pend[:copy(s.pend, s.pend[k:])]
		}
		if inFlight == 0 {
			if len(s.pend) == 0 {
				return
			}
			runtime.Gosched() // the queue is full of other submitters' ops
			continue
		}
		drainTo := window / 2
		if next >= n || len(s.pend) > 0 {
			// Nothing new to send, or waiting for room in the queue:
			// take one completion and look again.
			drainTo = inFlight - 1
		}
		for inFlight > drainTo {
			sl := <-s.done
			inFlight--
			s.ops++
			if sl.op.Err != nil || !s.chk.result(sl.op.Key, sl.write, sl.op.Res, sl.op.Ok) {
				s.bad++
			}
			if sl.sampled {
				s.doneWait = append(s.doneWait, clampNS(sl.t1-sl.t0))
				s.tk.add(s.root, s.layer+".done_wait", s.layer, sl.t0, sl.t1, sl.idx)
			}
			s.free = append(s.free, sl)
		}
	}
}

// rungPump is R2: submitters feed one pump over one runtime.
func rungPump(sp *spec, st *stream, n int64, tr *tracer) *rung {
	b := newDS(sp, 0)
	preload(b, sp, st, 0, 1)
	rt := sched.New(sched.Config{Workers: sp.workers, Seed: progSeed})
	pump := sched.NewPump(rt, sched.PumpConfig{OnDone: onDone})
	served := make(chan struct{})
	go func() { pump.Serve(); close(served) }()

	r := driveSubmitters(sp, st, n, tr, "R2.pump", "sched",
		func(int64) sched.Batched { return b },
		func(s *submitter, ops []*sched.OpRecord) int {
			k, _ := pump.SubmitAll(ops) // a saturated queue admits a prefix; the rest is retried
			s.submits++
			s.depthMax = max(s.depthMax, pump.Depth())
			return k
		})
	pump.Close()
	<-served
	r.size = sizeOf(b)
	r.addRuntime(rt)
	return r
}

// rungShard is R3: submitters route each op with shard.Of and hand each
// touched shard its span with one Shard.SubmitAll, as the server's
// reader loops do.
func rungShard(sp *spec, st *stream, n int64, tr *tracer) *rung {
	dss := make([]sched.Batched, sp.shards)
	router := shard.NewRouter(shard.Config{
		Shards:  sp.shards,
		Workers: sp.workers,
		Seed:    progSeed,
		NewDS: func(i int) []sched.Batched {
			dss[i] = newDS(sp, i)
			preload(dss[i], sp, st, i, sp.shards)
			return nil // the rung points each record at its structure itself
		},
		OnDone: func(_ int, op *sched.OpRecord) { onDone(op) },
	})
	served := make(chan struct{})
	go func() { router.Serve(); close(served) }()

	place := func(key int64) int {
		if sp.ds == server.DSCounter {
			return router.Home(sp.ds)
		}
		return router.ShardOf(sp.ds, key)
	}
	r := driveSubmitters(sp, st, n, tr, "R3.shard", "shard",
		func(key int64) sched.Batched { return dss[place(key)] },
		func(s *submitter, ops []*sched.OpRecord) int {
			for _, op := range ops {
				sh := place(op.Key)
				s.groups[sh] = append(s.groups[sh], op)
			}
			admitted := 0
			s.refused = s.refused[:0]
			for sh, span := range s.groups {
				if len(span) == 0 {
					continue
				}
				k, _ := router.Shard(sh).SubmitAll(span) // a saturated shard admits a prefix of its span
				s.submits++
				s.depthMax = max(s.depthMax, router.Shard(sh).Pump().Depth())
				admitted += k
				s.refused = append(s.refused, span[k:]...)
				s.groups[sh] = span[:0]
			}
			copy(ops[admitted:], s.refused)
			return admitted
		})
	router.Close()
	<-served

	var maxAcc, sumAcc int64
	for i, sh := range router.Shards() {
		r.addRuntime(sh.Runtime())
		acc, comp, _ := sh.Books()
		if acc != comp {
			r.bad++
		}
		sumAcc += acc
		maxAcc = max(maxAcc, acc)
		if sp.ds != server.DSCounter || i == router.Home(sp.ds) {
			r.size += sizeOf(dss[i])
		}
	}
	if sumAcc > 0 {
		r.imbalance = float64(maxAcc) * float64(sp.shards) / float64(sumAcc)
	}
	return r
}

// driveSubmitters runs conns() submitters over the first n ops and
// merges their measurements into one rung.
func driveSubmitters(sp *spec, st *stream, n int64, tr *tracer, name, layer string,
	ds func(int64) sched.Batched, submit func(*submitter, []*sched.OpRecord) int) *rung {
	window := sp.pipeline
	if window == 0 {
		window = 16
	}
	c := int64(conns())
	root := tr.newTrack(1)
	subs := make([]*submitter, c)
	for i := range subs {
		subs[i] = newSubmitter(sp, st, window, n/c+1, tr)
		subs[i].layer = layer
	}
	start := now()
	id := root.add(0, name, layer, start, 0, -1)
	var wg sync.WaitGroup
	for i, s := range subs {
		s.root = id
		wg.Add(1)
		go func(i int64, s *submitter) {
			defer wg.Done()
			s.run(sp, st, i, c, n, ds, submit)
		}(int64(i), s)
	}
	wg.Wait()
	r := &rung{wall: now() - start}
	if root != nil {
		root.spans[0].End = start + r.wall
	}
	chks := make([]*checker, len(subs))
	for i, s := range subs {
		r.ops += s.ops
		r.bad += s.bad
		r.submitNS += s.submitNS
		r.submits += s.submits
		r.bursts += s.bursts
		r.doneWait = append(r.doneWait, s.doneWait...)
		r.depthMax = max(r.depthMax, s.depthMax)
		chks[i] = &s.chk
	}
	slices.Sort(r.doneWait)
	r.bad += n - r.ops
	if sp.ds == server.DSCounter {
		if total, err := mergeCounters(chks); err != nil || total != n {
			r.bad++
		}
	}
	return r
}
