package obs

import (
	"sync/atomic"
	"time"
)

// Live conformance monitor: the one implementation of the paper's
// per-op guarantees. It checks them continuously from the scheduler's
// own batch-land path; batcherd exposes the result as scrapeable gauges
// and `batcherlab audit` prints the same snapshot after an offline run.
//
// The two guarantees tracked, per DESIGN.md §16:
//
//   - Lemma 2: an operation that is pending when a batch is not yet
//     executing waits through at most two batch landings. MaxLandings
//     is the measured maximum number of landings inside any op's
//     pending wait; > 2 means the implementation broke the lemma. The
//     scheduler counts them in batch sequence numbers, not timestamps:
//     a clock read taken before the pending-array publish would charge
//     a descheduled worker landings it was never pending for.
//   - Theorem 5.4 envelope: each op's batch delay is at most
//     2·(max batch span + max inter-batch gap). Headroom is the
//     measured ratio delayMax / 2·(spanMax+gapMax); > 1 means the
//     envelope was exceeded.
//
// One monitor instance serves one Runtime (one shard). The writer is
// the batch-launch body, which Invariant 1 serializes — exactly one
// batch executes at a time, and the batch flag's reset-then-CAS pair
// orders one batch's RecordBatch before the next's — so the writer
// state needs no synchronization with itself. Scrapers read
// concurrently, so everything they touch is an atomic. RecordBatch
// allocates nothing (fixed arrays, no maps, no interfaces) and the
// scheduler's hook is the usual nil-guarded pointer read, so a runtime
// without a monitor pays one predicted branch per batch.
//
// Maxima are windowed, not lifetime: a single cold-start outlier must
// not pin the gauges forever, and operators alert on "the envelope
// held over the last window", not "since boot". Two windows (current
// and previous) are kept and gauges report the max over both, so a
// scrape landing just after a rotation never reads an empty window —
// the same discipline as the tail FlightRecorder.

// confWindow holds one observation window's running maxima. All
// fields are atomics because scrapers read them while the launch body
// writes; the single-writer rule makes load-then-store updates safe.
type confWindow struct {
	span     atomic.Int64 // max batch span (launch -> land), ns
	gap      atomic.Int64 // max inter-batch gap (prev land -> launch), ns
	delay    atomic.Int64 // max per-op batch delay (min pending -> land), ns
	landings atomic.Int64 // max landings inside any op's pending wait
	batches  atomic.Int64 // batches observed this window
}

func (w *confWindow) reset() {
	w.span.Store(0)
	w.gap.Store(0)
	w.delay.Store(0)
	w.landings.Store(0)
	w.batches.Store(0)
}

func (w *confWindow) copyFrom(src *confWindow) {
	w.span.Store(src.span.Load())
	w.gap.Store(src.gap.Load())
	w.delay.Store(src.delay.Load())
	w.landings.Store(src.landings.Load())
	w.batches.Store(src.batches.Load())
}

// raise is the single-writer max update: only the launch body calls
// it, so a plain load-compare-store cannot lose a concurrent raise.
func raise(a *atomic.Int64, v int64) {
	if v > a.Load() {
		a.Store(v)
	}
}

// Conform is a per-runtime live conformance monitor. A nil monitor
// ignores every call. Create with NewConform and attach with
// sched.Runtime.SetConformance, which also turns on the runtime's
// op-lifecycle phase stamping: the monitor is the one observer of a
// landed batch.
type Conform struct {
	window int64 // rotation period, ns

	// sizes receives every observed batch's size, so its Count and Sum
	// equal the runtime's LiveBatchStats batches and ops exactly.
	sizes *Histogram

	// Writer-only state (the launch body, serialized by Invariant 1).
	prevLand int64 // land stamp of the previous batch, 0 before the first
	curStart int64 // land stamp opening the current window

	cur, prev confWindow

	// batches counts lifetime observed batches; violations counts
	// batches whose landings count exceeded Lemma 2's bound of two —
	// lifetime, not windowed, because a broken invariant must never
	// rotate out of view.
	batches    atomic.Int64
	violations atomic.Int64
}

// NewConform creates a monitor with the given observation window
// (default 10s when nonpositive, matching the FlightRecorder).
func NewConform(window time.Duration) *Conform {
	if window <= 0 {
		window = 10 * time.Second
	}
	return &Conform{window: int64(window), sizes: NewHistogram()}
}

// RecordBatch observes one landed batch: its launch and land stamps
// (obs.Now nanoseconds), the minimum pending-publish stamp among its
// ops, the most batch landings any of its ops was pending through
// (this one included), and its size, which BatchSizes observes.
// Called by the scheduler's launch body after the batch's ops have
// landed; allocation-free and lock-free (the gauges are single-writer
// load/stores; the histogram's min/max CAS loops never contend, since
// the launch body is their only writer).
func (m *Conform) RecordBatch(launchNS, landNS, minPendingNS, landings int64, size int) {
	if m == nil || size <= 0 {
		return
	}

	span := landNS - launchNS
	if span < 0 {
		span = 0
	}
	gap := int64(0)
	if m.prevLand != 0 {
		gap = launchNS - m.prevLand
		if gap < 0 {
			gap = 0
		}
	}
	delay := landNS - minPendingNS
	if delay < 0 {
		delay = 0
	}

	// Rotate on window expiry before folding this batch in, so the
	// observation lands in the window its timestamp belongs to.
	if m.curStart == 0 {
		m.curStart = landNS
	} else if landNS-m.curStart >= m.window {
		m.prev.copyFrom(&m.cur)
		m.cur.reset()
		m.curStart = landNS
	}

	raise(&m.cur.span, span)
	raise(&m.cur.gap, gap)
	raise(&m.cur.delay, delay)
	raise(&m.cur.landings, landings)
	m.cur.batches.Add(1)
	m.batches.Add(1)
	m.sizes.Observe(int64(size))
	if landings > 2 {
		m.violations.Add(1)
	}

	m.prevLand = landNS
}

// windowMax returns the max of the current and previous windows for
// one gauge, so scrapes just after a rotation stay populated.
func (m *Conform) windowMax(f func(*confWindow) *atomic.Int64) int64 {
	c, p := f(&m.cur).Load(), f(&m.prev).Load()
	if p > c {
		return p
	}
	return c
}

// SpanMaxNS returns the windowed maximum batch span (launch to land).
func (m *Conform) SpanMaxNS() int64 {
	if m == nil {
		return 0
	}
	return m.windowMax(func(w *confWindow) *atomic.Int64 { return &w.span })
}

// GapMaxNS returns the windowed maximum inter-batch gap (previous
// land to next launch).
func (m *Conform) GapMaxNS() int64 {
	if m == nil {
		return 0
	}
	return m.windowMax(func(w *confWindow) *atomic.Int64 { return &w.gap })
}

// DelayMaxNS returns the windowed maximum per-op batch delay (the
// pending-to-land wait of each batch's longest-waiting op).
func (m *Conform) DelayMaxNS() int64 {
	if m == nil {
		return 0
	}
	return m.windowMax(func(w *confWindow) *atomic.Int64 { return &w.delay })
}

// MaxLandings returns the windowed maximum number of batch landings
// inside any op's pending wait. Lemma 2 bounds it by two.
func (m *Conform) MaxLandings() int64 {
	if m == nil {
		return 0
	}
	return m.windowMax(func(w *confWindow) *atomic.Int64 { return &w.landings })
}

// Batches returns the lifetime number of observed batches.
func (m *Conform) Batches() int64 {
	if m == nil {
		return 0
	}
	return m.batches.Load()
}

// BatchSizes returns the histogram of observed batch sizes (lifetime,
// not windowed), or nil for a nil monitor.
func (m *Conform) BatchSizes() *Histogram {
	if m == nil {
		return nil
	}
	return m.sizes
}

// Violations returns the lifetime number of batches whose landings
// count exceeded Lemma 2's bound (never rotated out).
func (m *Conform) Violations() int64 {
	if m == nil {
		return 0
	}
	return m.violations.Load()
}

// Headroom returns the Theorem 5.4 bound-headroom gauge: the windowed
// maximum batch delay divided by 2·(spanMax+gapMax), the envelope the
// theorem charges each op. At most 1.0 while the envelope holds; 0
// when no batches have been observed (or the denominator is zero —
// back-to-back zero-length batches on a coarse clock).
func (m *Conform) Headroom() float64 {
	if m == nil {
		return 0
	}
	bound := 2 * (m.SpanMaxNS() + m.GapMaxNS())
	if bound <= 0 {
		return 0
	}
	return float64(m.DelayMaxNS()) / float64(bound)
}

// ConformSnapshot is a point-in-time copy of the monitor's gauges,
// for stats endpoints.
type ConformSnapshot struct {
	Batches     int64   `json:"batches"`
	SpanMaxNS   int64   `json:"span_max_ns"`
	GapMaxNS    int64   `json:"gap_max_ns"`
	DelayMaxNS  int64   `json:"delay_max_ns"`
	MaxLandings int64   `json:"max_landings"`
	Violations  int64   `json:"violations"`
	Headroom    float64 `json:"headroom"`
}

// Snapshot returns the current gauge values. Safe to call while the
// scheduler records; the fields are each individually consistent (the
// snapshot is not an atomic cut across gauges, which monitoring does
// not need).
func (m *Conform) Snapshot() ConformSnapshot {
	if m == nil {
		return ConformSnapshot{}
	}
	return ConformSnapshot{
		Batches:     m.Batches(),
		SpanMaxNS:   m.SpanMaxNS(),
		GapMaxNS:    m.GapMaxNS(),
		DelayMaxNS:  m.DelayMaxNS(),
		MaxLandings: m.MaxLandings(),
		Violations:  m.Violations(),
		Headroom:    m.Headroom(),
	}
}
