package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestTracerSnapshotOrdered(t *testing.T) {
	tr := NewTracer(4, 256)
	for i := 0; i < 100; i++ {
		tr.Record(i%4, EvSteal, int64(i), 0)
	}
	evs := tr.Snapshot()
	if len(evs) != 100 {
		t.Fatalf("got %d events, want 100", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("snapshot not time-ordered at %d", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len=%d want 100", tr.Len())
	}
}

// TestTracerWraparoundConcurrent hammers a small tracer from many
// goroutines — every ring wraps many times while a concurrent reader
// snapshots — and checks that (under -race) nothing races and every
// surfaced event is well-formed.
func TestTracerWraparoundConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 20_000
		ringSize  = 64 // tiny: forces hundreds of wraparound laps
	)
	tr := NewTracer(3, ringSize) // fewer rings than writers: contended rings
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range tr.Snapshot() {
				if ev.Kind == EvNone || ev.Kind >= evKinds {
					t.Errorf("snapshot surfaced invalid kind %d", ev.Kind)
					return
				}
			}
		}
	}()
	var writerWG sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		writerWG.Add(1)
		go func(wi int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(wi%3, EventKind(1+i%int(evKinds-1)), int64(i), int64(wi))
			}
		}(wi)
	}
	writerWG.Wait()
	// Out-of-range rings must be redirected, not crash.
	tr.Record(99, EvPark, 0, 0)
	tr.Record(-1, EvWake, 0, 0)
	close(stop)
	readerWG.Wait()

	evs := tr.Snapshot()
	// At most ringSize events survive per ring (plus none invalid).
	if len(evs) > 3*ringSize {
		t.Fatalf("snapshot returned %d events from rings of capacity %d", len(evs), 3*ringSize)
	}
	if len(evs) == 0 {
		t.Fatal("snapshot empty after heavy traffic")
	}
	if got := tr.Len(); got != int64(writers*perWriter)+2 {
		t.Fatalf("Len=%d want %d", got, writers*perWriter+2)
	}
}

func TestTracerRecordZeroAllocs(t *testing.T) {
	tr := NewTracer(2, 128)
	got := testing.AllocsPerRun(1000, func() { tr.Record(0, EvSteal, 1, 2) })
	if got != 0 {
		t.Fatalf("Record allocates %v objects/op, want 0", got)
	}
}

func TestNilTracerRecordSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(0, EvSteal, 0, 0) // must be a no-op, not a crash
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(2, 256)
	tr.Record(0, EvBatchLaunch, 0, 0)
	tr.Record(0, EvBatchLand, 7, 1500)
	tr.Record(1, EvSteal, 0, 1)
	tr.Record(1, EvPark, 0, 0)
	tr.Record(1, EvWake, 0, 0)
	tr.Record(1, EvWake, 0, 0) // unmatched wake: must not emit a bare E
	tr.Record(1, EvPark, 0, 0) // left open: must be closed by the exporter
	tr.Record(1, EvPumpAdmit, 3, 0)
	tr.Record(1, EvPumpReject, 2, 0)
	tr.Record(0, EvPanicContained, 2, 0)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int32   `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace missing traceEvents/displayTimeUnit")
	}
	// B/E spans must balance per track.
	depth := map[int32]int{}
	sawBatch := false
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			depth[e.TID]++
		case "E":
			depth[e.TID]--
			if depth[e.TID] < 0 {
				t.Fatalf("unbalanced E on tid %d", e.TID)
			}
		case "X":
			sawBatch = true
			if e.Dur <= 0 {
				t.Fatalf("batch span with non-positive dur %v", e.Dur)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d left %d spans open", tid, d)
		}
	}
	if !sawBatch {
		t.Fatal("no batch X span in export")
	}
}
