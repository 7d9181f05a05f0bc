package obs

import (
	"sync"
	"testing"
	"time"
)

// TestConformBasic drives the monitor with hand-built timestamps and
// checks every gauge against the arithmetic in the doc comments.
func TestConformBasic(t *testing.T) {
	m := NewConform(time.Hour) // no rotation during the test

	// Batch 1: pending at 100, launch 150, land 250. Span 100, no
	// previous batch so gap 0, delay 150, one landing (its own).
	m.RecordBatch(150, 250, 100, 1, 3)
	if got := m.SpanMaxNS(); got != 100 {
		t.Fatalf("span = %d, want 100", got)
	}
	if got := m.GapMaxNS(); got != 0 {
		t.Fatalf("gap = %d, want 0", got)
	}
	if got := m.DelayMaxNS(); got != 150 {
		t.Fatalf("delay = %d, want 150", got)
	}
	if got := m.MaxLandings(); got != 1 {
		t.Fatalf("landings = %d, want 1", got)
	}

	// Batch 2: its slowest op went pending at 200 — before batch 1
	// landed at 250 — launch 300, land 400. Gap = 300-250 = 50; the op
	// waited through batch 1's landing plus its own: two landings
	// (counted by the scheduler), exactly Lemma 2's bound. Delay =
	// 400-200 = 200.
	m.RecordBatch(300, 400, 200, 2, 2)
	if got := m.SpanMaxNS(); got != 100 {
		t.Fatalf("span = %d, want 100 (unchanged)", got)
	}
	if got := m.GapMaxNS(); got != 50 {
		t.Fatalf("gap = %d, want 50", got)
	}
	if got := m.DelayMaxNS(); got != 200 {
		t.Fatalf("delay = %d, want 200", got)
	}
	if got := m.MaxLandings(); got != 2 {
		t.Fatalf("landings = %d, want 2", got)
	}
	if got := m.Violations(); got != 0 {
		t.Fatalf("violations = %d, want 0", got)
	}
	if got := m.Batches(); got != 2 {
		t.Fatalf("batches = %d, want 2", got)
	}
	if h := m.BatchSizes(); h.Count() != 2 || h.Sum() != 5 {
		t.Fatalf("batch sizes count/sum = %d/%d, want 2/5", h.Count(), h.Sum())
	}

	// Headroom: delayMax 200 over 2*(span 100 + gap 50) = 300.
	if got, want := m.Headroom(), 200.0/300.0; got != want {
		t.Fatalf("headroom = %v, want %v", got, want)
	}

	// Batch 3: a Lemma 2 violation — the scheduler reports an op that
	// was pending through both earlier landings and its own: three.
	m.RecordBatch(500, 600, 50, 3, 1)
	if got := m.MaxLandings(); got != 3 {
		t.Fatalf("landings = %d, want 3", got)
	}
	if got := m.Violations(); got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
}

// TestConformClamps checks that out-of-order stamps (possible only
// from coarse clocks or absent stamps) clamp to zero instead of going
// negative, and that empty batches are ignored.
func TestConformClamps(t *testing.T) {
	m := NewConform(time.Hour)
	m.RecordBatch(0, 0, 0, 1, 0) // size 0: ignored entirely
	if got := m.Batches(); got != 0 {
		t.Fatalf("batches = %d, want 0 after empty batch", got)
	}
	m.RecordBatch(200, 100, 300, 1, 1) // land < launch, pending > land
	if got := m.SpanMaxNS(); got != 0 {
		t.Fatalf("span = %d, want 0 (clamped)", got)
	}
	if got := m.DelayMaxNS(); got != 0 {
		t.Fatalf("delay = %d, want 0 (clamped)", got)
	}
	m.RecordBatch(50, 300, 40, 1, 1) // launch < prev land: gap clamps
	if got := m.GapMaxNS(); got != 0 {
		t.Fatalf("gap = %d, want 0 (clamped)", got)
	}
}

// TestConformRotation checks the two-window discipline: a maximum
// survives exactly one rotation (so scrapes just after one are never
// empty) and vanishes after two.
func TestConformRotation(t *testing.T) {
	const win = int64(1000)
	m := NewConform(time.Duration(win))

	m.RecordBatch(100, 300, 50, 1, 1) // span 200 opens the first window
	if got := m.SpanMaxNS(); got != 200 {
		t.Fatalf("span = %d, want 200", got)
	}

	// Land past the window boundary: rotation, old max still visible
	// through prev.
	land2 := 300 + win
	m.RecordBatch(land2-10, land2, land2-20, 1, 1) // span 10
	if got := m.SpanMaxNS(); got != 200 {
		t.Fatalf("span = %d, want 200 (prev window still counts)", got)
	}

	// Another rotation: the 200ns span ages out entirely.
	land3 := land2 + win
	m.RecordBatch(land3-30, land3, land3-40, 1, 1) // span 30
	if got := m.SpanMaxNS(); got != 30 {
		t.Fatalf("span = %d, want 30 after two rotations", got)
	}
}

// TestConformNil checks the nil-monitor contract: every method is a
// no-op returning zeros, so call sites need only the dispatch check.
func TestConformNil(t *testing.T) {
	var m *Conform
	m.RecordBatch(1, 2, 0, 1, 1)
	if m.SpanMaxNS() != 0 || m.GapMaxNS() != 0 || m.DelayMaxNS() != 0 ||
		m.MaxLandings() != 0 || m.Batches() != 0 || m.Violations() != 0 ||
		m.Headroom() != 0 || m.BatchSizes() != nil {
		t.Fatal("nil monitor returned nonzero gauges")
	}
	if (m.Snapshot() != ConformSnapshot{}) {
		t.Fatal("nil monitor snapshot not zero")
	}
}

// TestConformConcurrentScrape runs one writer (the launch body's
// serialization is modeled by a single goroutine) against concurrent
// scrapers; meaningful under -race, and also asserts the gauges stay
// within the writer's value range.
func TestConformConcurrentScrape(t *testing.T) {
	m := NewConform(time.Millisecond)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if h := m.Headroom(); h < 0 {
					t.Error("negative headroom")
					return
				}
				if l := m.MaxLandings(); l < 0 || l > 2 {
					t.Errorf("landings out of range: %d", l)
					return
				}
				_ = m.Snapshot()
			}
		}()
	}
	base := Now()
	for i := int64(0); i < 5000; i++ {
		launch := base + i*1000
		m.RecordBatch(launch, launch+500, launch-200, 1+i%2, 2)
	}
	close(done)
	wg.Wait()
	if got := m.Batches(); got != 5000 {
		t.Fatalf("batches = %d, want 5000", got)
	}
}

// TestConformRecordAllocs pins the zero-allocation contract of the
// record path itself (the scheduler-side pin with a full runtime lives
// in internal/sched's obs tests).
func TestConformRecordAllocs(t *testing.T) {
	m := NewConform(time.Hour)
	base := Now()
	i := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		i++
		launch := base + i*100
		m.RecordBatch(launch, launch+50, launch-10, 1, 1)
	}); n != 0 {
		t.Fatalf("RecordBatch allocates %v times per call, want 0", n)
	}
}
