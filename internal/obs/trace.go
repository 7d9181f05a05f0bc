package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// EventKind classifies scheduler trace events. The set mirrors the
// quantities the paper's bound (Theorem 5.4 in the conference numbering
// used by ISSUE/EXPERIMENTS; Theorem 1 in DESIGN.md) makes load-bearing:
// batch launches and landings (s and the batch-size distribution),
// steals (the O(s·log P) steal-bound term), parks/wakes (idle time), and
// the serving layer's admission decisions.
type EventKind uint8

const (
	// EvNone marks an unused slot; Snapshot never returns it.
	EvNone EventKind = iota
	// EvBatchLaunch: a trapped worker won the launch CAS. Ring = worker.
	EvBatchLaunch
	// EvBatchLand: a LaunchBatch body completed a nonempty batch on this
	// ring's worker. A = batch size (ops), B = batch duration in ns.
	EvBatchLand
	// EvSteal: a successful steal. A = victim worker id, B = 0 for a
	// core-deque steal, 1 for a batch-deque steal.
	EvSteal
	// EvPark: the worker exhausted its idle spin budget and parked.
	EvPark
	// EvWake: the worker returned from a park.
	EvWake
	// EvPumpAdmit: Pump.Submit accepted an external operation (recorded
	// on the external ring — submitters are not workers). A = resulting
	// ingress-queue depth.
	EvPumpAdmit
	// EvPumpReject: Pump.Submit refused an operation because the pump
	// was closed, the only refusal it makes. A = 2, the closed-pump
	// reason code.
	EvPumpReject
	// EvPanicContained: a batch group's BOP panicked and was contained.
	// A = group index within its batch.
	EvPanicContained

	evKinds // count; keep last
)

func (k EventKind) String() string {
	switch k {
	case EvBatchLaunch:
		return "batch-launch"
	case EvBatchLand:
		return "batch-land"
	case EvSteal:
		return "steal"
	case EvPark:
		return "park"
	case EvWake:
		return "wake"
	case EvPumpAdmit:
		return "pump-admit"
	case EvPumpReject:
		return "pump-reject"
	case EvPanicContained:
		return "panic-contained"
	}
	return "invalid"
}

// Event is one decoded trace event.
type Event struct {
	// TS is nanoseconds since the tracer was created.
	TS int64
	// Ring identifies the writer: worker id, or the external ring (the
	// last one) for events from non-worker goroutines.
	Ring int32
	// Kind is the event type; A and B are its kind-specific arguments.
	Kind EventKind
	A, B int64
}

// slot is one ring entry. Every field is an atomic so that concurrent
// writers (possible on the external ring, and on any ring across a full
// wraparound lap) and concurrent snapshot readers are race-free. seq
// holds index+1 of the event occupying the slot, 0 while a write is in
// progress; Snapshot validates seq before and after reading the fields
// and discards torn slots.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	kind atomic.Uint32
	a, b atomic.Int64
}

// ring is one writer's event ring. pos is claimed by fetch-add, so the
// record path is wait-free; old events are overwritten once the ring
// wraps (a tracer never blocks or allocates on the hot path — it
// forgets instead).
type ring struct {
	pos atomic.Uint64
	_   [120]byte // keep neighboring rings' cursors off one cache line
}

// Tracer is a set of fixed-size event rings, one per writer (the
// scheduler uses one per worker plus one shared "external" ring for
// non-worker goroutines such as network readers). Record is wait-free
// and allocation-free; Snapshot may run at any time, including while
// writers are active, and returns a time-ordered best-effort copy of
// the events still resident in the rings.
type Tracer struct {
	epoch time.Time
	mask  uint64
	size  uint64
	rings []ring
	slots [][]slot
}

// NewTracer creates a tracer with nrings rings of perRing slots each
// (rounded up to a power of two, minimum 64).
func NewTracer(nrings, perRing int) *Tracer {
	if nrings < 1 {
		nrings = 1
	}
	size := uint64(64)
	for size < uint64(perRing) {
		size <<= 1
	}
	t := &Tracer{
		epoch: time.Now(),
		mask:  size - 1,
		size:  size,
		rings: make([]ring, nrings),
		slots: make([][]slot, nrings),
	}
	for i := range t.slots {
		t.slots[i] = make([]slot, size)
	}
	return t
}

// Rings returns the number of rings (writers) the tracer was built for.
func (t *Tracer) Rings() int { return len(t.rings) }

// ExternalRing returns the index of the last ring, by convention the
// shared ring for events recorded off the scheduler's workers.
func (t *Tracer) ExternalRing() int { return len(t.rings) - 1 }

// Record appends one event to ring r. It is wait-free, never allocates,
// and never blocks: when the ring is full the oldest event is
// overwritten. Out-of-range rings are redirected to the external ring,
// so a mis-sized tracer loses attribution, not events.
func (t *Tracer) Record(r int, kind EventKind, a, b int64) {
	if t == nil {
		return
	}
	if r < 0 || r >= len(t.rings) {
		r = len(t.rings) - 1
	}
	i := t.rings[r].pos.Add(1) - 1
	s := &t.slots[r][i&t.mask]
	s.seq.Store(0)
	s.ts.Store(int64(time.Since(t.epoch)))
	s.kind.Store(uint32(kind))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(i + 1)
}

// Len returns the total number of events recorded so far (including
// events that have since been overwritten).
func (t *Tracer) Len() int64 {
	var n int64
	for i := range t.rings {
		n += int64(t.rings[i].pos.Load())
	}
	return n
}

// Snapshot copies out every event still resident in the rings, sorted
// by timestamp. It is safe concurrently with writers: slots overwritten
// or mid-write during the scan are detected via their sequence stamps
// and skipped, so the result is a consistent sample, not a guaranteed
// prefix. Call it live (a /trace endpoint) or after the run.
func (t *Tracer) Snapshot() []Event {
	var evs []Event
	for ri := range t.rings {
		end := t.rings[ri].pos.Load()
		start := uint64(0)
		if end > t.size {
			start = end - t.size
		}
		for i := start; i < end; i++ {
			s := &t.slots[ri][i&t.mask]
			if s.seq.Load() != i+1 {
				continue // overwritten by a newer lap, or mid-write
			}
			ev := Event{
				TS:   s.ts.Load(),
				Ring: int32(ri),
				Kind: EventKind(s.kind.Load()),
				A:    s.a.Load(),
				B:    s.b.Load(),
			}
			if s.seq.Load() != i+1 || ev.Kind == EvNone || ev.Kind >= evKinds {
				continue
			}
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// CountKinds tallies a snapshot by event kind — the quick look
// batcherlab trace prints before exporting.
func CountKinds(evs []Event) map[EventKind]int {
	m := make(map[EventKind]int)
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}
