package obs

import "time"

// Op-lifecycle phase attribution. An operation crossing the serving
// stack passes six boundaries; each gets a slot in a fixed-size vector
// of monotonic nanosecond stamps carried inside the scheduler's
// OpRecord. A fixed [NumPhases]int64 — no map, no slice, no interface —
// keeps the stamp writes allocation-free and cache-friendly on the hot
// path: stamping is one clock read and one array store per boundary
// (see DESIGN.md §11).
//
// The boundaries, in the happens-before order the serving path
// guarantees:
//
//	PhaseRead     conn read done: the request is decoded and validated
//	PhaseAdmit    pump admission: the op enters its shard's FIFO
//	PhasePending  pending-array publish (the Batchify entry)
//	PhaseLaunch   batch launch: the op is compacted into a working set
//	PhaseLand     batch land: the op's group's BOP has run
//	PhaseDone     completion: the response is handed to the writer
//
// Consecutive differences are therefore the five phase *durations*
// exported as batcherd_op_phase_ns{phase=...}; PhaseLand−PhasePending
// is the paper's batch delay — the wait an operation spends between
// arriving in the pending array and its batch completing, the quantity
// Theorem 5.4 charges each op (at most two batches' worth, by Lemma 2).
const (
	PhaseRead = iota
	PhaseAdmit
	PhasePending
	PhaseLaunch
	PhaseLand
	PhaseDone
	// NumPhases is the stamp-vector length.
	NumPhases
)

// PhaseNames names the five durations between consecutive stamps:
// PhaseNames[i] is the interval [stamp i, stamp i+1).
var PhaseNames = [NumPhases - 1]string{
	"ingress",  // read done -> pump admitted (the edge's span submission)
	"queue",    // pump admitted -> pending-array publish (ingress queue)
	"pending",  // pending publish -> batch launch (trapped, awaiting launch)
	"exec",     // batch launch -> batch land (the BOP itself)
	"complete", // batch land -> response handed to the writer
}

// phaseEpoch anchors Now. Stamps are nanoseconds since process start
// (well, package init), not wall-clock times: time.Since reads Go's
// monotonic clock, so differences between stamps are immune to
// wall-clock steps and the int64 arithmetic never overflows.
var phaseEpoch = time.Now()

// Now returns the current monotonic phase stamp. It is allocation-free
// and safe from any goroutine; its only guarantees are monotonicity and
// a common epoch across the process, which is all differencing needs.
func Now() int64 { return int64(time.Since(phaseEpoch)) }

// PhaseDurations converts a stamp vector into the five consecutive
// durations (PhaseNames order). Negative gaps — possible only when a
// stamp was never written (stamping disabled, or an op rejected before
// reaching a boundary) — clamp to zero so partial vectors stay sane.
func PhaseDurations(stamps [NumPhases]int64) [NumPhases - 1]int64 {
	var d [NumPhases - 1]int64
	for i := range d {
		if dv := stamps[i+1] - stamps[i]; dv > 0 {
			d[i] = dv
		}
	}
	return d
}

// BatchDelay returns the paper's batch-delay term for a stamp vector:
// the time from pending-array arrival to batch landing (zero if the
// stamps are absent or out of order).
func BatchDelay(stamps [NumPhases]int64) int64 {
	if d := stamps[PhaseLand] - stamps[PhasePending]; d > 0 {
		return d
	}
	return 0
}
