package main

import (
	"math"
	"runtime"
	"slices"

	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/server"
)

// tracedPass runs the ladder for sp and reports the per-layer metrics.
// Every metric is reported for every workload; one that does not apply
// (a wire figure on the fork-join workload) reads 0.
func tracedPass(sp *spec, seed uint64, seconds float64, traceOut string) *result {
	res := newResult(sp, seed, seconds, true)
	m := res.Metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	n := ladderOps(sp, seconds)
	st := newStream(sp, seed)
	tr := &tracer{}
	check := func(name string, r *rung, want int64) {
		res.Phases[name] = counts{Sent: r.ops, Succeeded: r.ops - r.bad, Failed: r.bad}
		if r.bad > 0 {
			res.problem("%s: %d of %d results failed their check", name, r.bad, r.ops)
		}
		if r.size != want {
			res.problem("%s ended with structure size %d; R0 ended with %d", name, r.size, want)
		}
	}

	r0 := rungDS(sp, st, n, tr.newTrack(1))
	check("R0.ds", r0, r0.size)
	r1 := rungBatchify(sp, st, n, tr)
	check("R1.batchify", r1, r0.size)
	m["ds.ns_per_op"] = r0.nsPerOp()
	m["sched.batchify_ns_per_op"] = r1.nsPerOp()
	m["sched.batchify_self_ns"] = r1.nsPerOp() - r0.nsPerOp()

	top := r1 // the rung whose scheduler counters describe the workload
	if sp.lib {
		plain := rungBatchify(sp, st, n, nil)
		check("R1.untraced", plain, r0.size)
		m["trace.overhead_frac"] = r1.nsPerOp()/plain.nsPerOp() - 1
	} else {
		r2 := rungPump(sp, st, n, tr)
		check("R2.pump", r2, r0.size)
		r3 := rungShard(sp, st, n, tr)
		check("R3.shard", r3, r0.size)
		m["sched.pump_ns_per_op"] = r2.nsPerOp()
		m["sched.pump_self_ns"] = r2.nsPerOp() - r1.nsPerOp()
		m["sched.submit_busy_ns_per_op"] = nsPerOp(r2.submitNS, r2.ops)
		m["sched.done_wait_p50_us"] = float64(quantile(r2.doneWait, 0.50)) / 1e3
		m["sched.done_wait_p99_us"] = float64(quantile(r2.doneWait, 0.99)) / 1e3
		m["shard.ns_per_op"] = r3.nsPerOp()
		m["shard.self_ns"] = r3.nsPerOp() - r2.nsPerOp()
		m["shard.imbalance"] = r3.imbalance
		m["shard.queue_depth_max"] = float64(r3.depthMax)
		m["shard.spans_per_frame"] = float64(r3.submits) / float64(max(r3.bursts, 1))

		r4, run := rungWire(sp, seed, n, tr, res, "R4.server", false)
		if r4 == nil {
			return res
		}
		check("R4.server", r4, r0.size)
		plain, _ := rungWire(sp, seed, n, nil, res, "R4.untraced", false)
		if plain == nil {
			return res
		}
		check("R4.untraced", plain, r0.size)
		m["server.ns_per_op"] = r4.nsPerOp()
		m["server.self_ns"] = r4.nsPerOp() - r3.nsPerOp()
		m["trace.overhead_frac"] = r4.nsPerOp()/plain.nsPerOp() - 1
		top = r4
		if sp.rate > 0 {
			// Latency, phases and generator health of an open-loop
			// workload come from an open-loop traced run; the closed-loop
			// R4 above only prices the layer.
			var o *rung
			if o, run = rungWire(sp, seed, int64(seconds*sp.rate/2), tr, res, "open.traced", true); o == nil {
				return res
			}
			top = o
		}
		wireMetrics(res, top, run)
	}

	if top.batches > 0 {
		kop := float64(top.ops) / 1e3
		m["sched.mean_batch"] = float64(top.batched) / float64(top.batches)
		m["sched.batches_per_kop"] = float64(top.batches) / kop
		m["sched.steals_per_op"] = float64(top.steals) / float64(top.ops)
		m["sched.failed_steals_per_op"] = float64(top.failedSteals) / float64(top.ops)
		m["sched.parks_per_kop"] = float64(top.parks) / kop
		for r, c := range top.reasons {
			if sched.LaunchReason(r) != sched.LaunchHold {
				m["sched.launch_share."+sched.LaunchReasonNames[r]] = float64(c) / float64(top.batches)
			}
		}
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s is %v", k, v)
			m[k] = 0
		}
	}
	if traceOut != "" {
		if err := tr.writeJSON(traceOut); err != nil {
			res.problem("write spans: %v", err)
		}
	}
	return res
}

// rungWire is R4: a fresh server, the first n ops over the loopback wire
// (closed loop, or on the workload's arrival schedule when open), traced
// when tr is not nil. It returns nil after recording a problem if the
// server could not be set up.
func rungWire(sp *spec, seed uint64, n int64, tr *tracer, res *result, name string, open bool) (*rung, *wireRun) {
	tg, _, err := setupWire(sp, seed, false)
	if err != nil {
		res.problem("%s: %v", name, err)
		return nil, nil
	}
	if tr != nil {
		for _, wc := range tg.wcs {
			wc.opFlag = server.OpFlagPhases
		}
	}
	c := int64(len(tg.wcs))
	lim := limit{ops: n / c}
	if open {
		lim = limit{deadline: now() + int64(float64(n)/sp.rate*1e9)}
	}
	root := tr.newTrack(1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := now()
	id := root.add(0, name, "server", start, 0, -1)
	run := runWire(tg.wcs, sp, seed, lim, 1<<62, int(n/c)+1, tr, id, open)
	if root != nil {
		root.spans[0].End = start + run.wall
	}
	runtime.ReadMemStats(&ms1)
	if run.err != nil {
		res.problem("%s: %v", name, run.err)
	}
	cnt := run.counts()
	res.Phases[name] = cnt
	r := &rung{ops: cnt.Succeeded, wall: run.wall, bad: cnt.Failed}
	run.snap, r.size = tg.finish(res)
	for _, sh := range tg.srv.Router().Shards() {
		r.addRuntime(sh.Runtime())
	}
	run.mallocs = int64(ms1.Mallocs - ms0.Mallocs)
	return r, run
}

// wireMetrics reports what the traced wire run saw: latency tail, the
// server's phase echo and syscall counters, and the generator's health.
func wireMetrics(res *result, r *rung, run *wireRun) {
	m := res.Metrics
	ops := float64(max(r.ops, 1))
	var lat, delays, recvNS, lag []uint32
	var flushNS, sent int64
	for _, rec := range run.recs {
		lat = append(lat, rec.lat...)
		delays = append(delays, rec.delays...)
		recvNS = append(recvNS, rec.recvNS...)
		lag = append(lag, rec.lag...)
		flushNS += rec.flushNS
		sent += rec.sent
	}
	for _, s := range [][]uint32{lat, delays, recvNS, lag} {
		slices.Sort(s)
	}
	m["server.lat_p99_us"] = float64(quantile(lat, 0.99)) / 1e3
	m["server.lat_p999_us"] = float64(quantile(lat, 0.999)) / 1e3
	m["sched.batch_delay_p99_us"] = float64(quantile(delays, 0.99)) / 1e3
	m["server.rsys_per_op"] = float64(run.snap.ReadSyscalls) / ops
	m["server.wsys_per_op"] = float64(run.snap.WriteSyscalls) / ops
	m["server.allocs_per_op"] = float64(run.mallocs) / ops
	m["obs.conform_headroom"] = run.snap.ConformHeadroom
	m["obs.max_landings"] = float64(run.snap.ConformMaxLandings)
	for _, ss := range run.snap.PerShard {
		m["obs.violations"] += float64(ss.Conformance.Violations)
	}

	means, total := phaseMeans(run.recs)
	sum := 0.0
	for i, name := range obs.PhaseNames {
		m["server.phase_mean_ns."+name] = means[i]
		sum += means[i]
	}
	if total > 0 && math.Abs(sum-total) > 0.1*total {
		res.problem("phase means sum to %.0fns but the server-side latency is %.0fns", sum, total)
	}

	// The generator is busy while it encodes and flushes, and while it
	// decodes. A Recv call also waits for the server; most calls find
	// their response already buffered, so the median call is the decode.
	decode := float64(quantile(recvNS, 0.50))
	m["loadgen.encode_flush_ns_per_op"] = float64(flushNS) / ops
	m["loadgen.recv_decode_ns_per_op"] = decode
	m["loadgen.busy_frac"] = (float64(flushNS) + decode*ops) / (float64(run.wall) * float64(len(run.recs)))
	m["loadgen.send_lag_p99_us"] = float64(quantile(lag, 0.99)) / 1e3
	if quantile(lag, 0.99) > maxLagNS {
		res.Valid = false
	}

	i, _ := slices.BinarySearch(lat, sloNS+1)
	failed := float64(run.counts().Failed)
	m["e2e.fail_frac"] = failed / float64(max(sent, 1))
	m["e2e.slo_miss_frac"] = (failed + float64(len(lat)-i)) / float64(max(sent, 1))
}
