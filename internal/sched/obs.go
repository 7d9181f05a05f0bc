package sched

// This file wires the runtime into the observability layer
// (internal/obs) through two hooks, the event tracer and the batch
// monitor. Both follow one discipline: a nil-guarded pointer read on
// the hot path, so a runtime with observability detached pays a single
// predictable branch per event site, and neither allocates when
// attached (alloc_test.go pins the detached round trip, obs_test.go and
// pump_test.go the fully attached one). See DESIGN.md §10.
//
// Event-to-ring mapping: worker i records on ring i; events produced
// off the workers (Pump.Submit runs on network-reader goroutines) go to
// the extra "external" ring, index P. Runtime.NewTracer sizes a tracer
// accordingly.

import (
	"batcher/internal/obs"
)

// NewTracer creates a tracer sized for this runtime: one ring per
// worker plus one external ring for non-worker goroutines, each holding
// perRing events (rounded up to a power of two). Attach it with
// SetTracer.
func (rt *Runtime) NewTracer(perRing int) *obs.Tracer {
	return obs.NewTracer(len(rt.workers)+1, perRing)
}

// SetTracer attaches (or, with nil, detaches) an event tracer. The
// scheduler records batch launches and landings, successful steals,
// parks/wakes, pump admissions/rejections, and contained batch panics.
// Call only while no Run or Serve is in progress; workers read the
// pointer unsynchronized.
func (rt *Runtime) SetTracer(tr *obs.Tracer) {
	if rt.running.Load() {
		panic("sched: SetTracer called during Run")
	}
	rt.tracer = tr
}

// SetConformance attaches (or, with nil, detaches) the batch monitor:
// LaunchBatch feeds it one RecordBatch per executed nonempty batch —
// launch and land stamps, the minimum pending-publish stamp and the
// landed-batch count among the batch's ops (read from the pending-array
// slots), and the working-set size, which the monitor's BatchSizes
// histogram observes. While a monitor is attached the scheduler also
// stamps op lifecycle phases: Batchify writes obs.PhasePending,
// Pump.Submit obs.PhaseAdmit, and LaunchBatch obs.PhaseLaunch and
// obs.PhaseLand plus the landing batch's size and group index into
// every OpRecord it handles. Call only while no Run or Serve is in
// progress; workers read the pointer unsynchronized.
func (rt *Runtime) SetConformance(m *obs.Conform) {
	if rt.running.Load() {
		panic("sched: SetConformance called during Run")
	}
	rt.conform = m
}

// LiveSteals returns the number of successful steals over the runtime's
// lifetime. Like LiveBatchStats it is an atomic maintained on the steal
// path (one uncontended add per successful steal — failed attempts, the
// common case under low load, touch nothing), so stats endpoints can
// read it while serving.
func (rt *Runtime) LiveSteals() int64 { return rt.liveSteals.Load() }

// parkAndSleep is the shared tail of every idle-park site: count the
// park, trace it (park/wake bracket the sleep so trace viewers render
// parked time as a span), sleep on the worker's slot until woken, and
// resume the idle ladder at the post-park level.
func (w *worker) parkAndSleep() {
	w.m.Parks++
	rt := w.rt
	if tr := rt.tracer; tr != nil {
		tr.Record(w.id, obs.EvPark, 0, 0)
		rt.idle.sleep(w.id)
		tr.Record(w.id, obs.EvWake, 0, 0)
	} else {
		rt.idle.sleep(w.id)
	}
	w.idleFails = idleResume
}
