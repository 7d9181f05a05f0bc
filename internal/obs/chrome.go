package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Chrome trace_event export: a Snapshot rendered as the JSON object
// format chrome://tracing and Perfetto load directly. One track (tid)
// per ring; batch executions appear as complete ("X") spans with their
// size in args, parks as begin/end ("B"/"E") spans, and everything else
// as instant ("i") events. Timestamps are microseconds, as the format
// requires.
//
// Events stream to w one at a time through a buffered writer — the
// export never materializes the whole document, so a large ring
// snapshot costs O(1) memory beyond the snapshot itself and the first
// bytes reach the client (a live /trace scrape) immediately.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeWriter streams one trace document: header, comma-separated
// events, footer. The first write error sticks and suppresses the rest.
type chromeWriter struct {
	bw    *bufio.Writer
	enc   *json.Encoder
	wrote bool
	err   error
}

func (cw *chromeWriter) event(ce *chromeEvent) {
	if cw.err != nil {
		return
	}
	if cw.wrote {
		if _, cw.err = cw.bw.WriteString(","); cw.err != nil {
			return
		}
	}
	cw.wrote = true
	// Encoder appends a newline after each value, giving one event per
	// line — valid JSON and friendlier to diffing than a single line.
	cw.err = cw.enc.Encode(ce)
}

// WriteChromeTrace renders events (as returned by Tracer.Snapshot) to w
// in Chrome trace_event JSON object format, streaming event by event.
func WriteChromeTrace(w io.Writer, events []Event) error {
	cw := &chromeWriter{bw: bufio.NewWriter(w)}
	cw.enc = json.NewEncoder(cw.bw)
	if _, err := cw.bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		return err
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	// Parks emit B/E pairs; a wake whose park was overwritten by ring
	// wraparound must not emit an unmatched E (it would corrupt the
	// track's span stack), so track open parks per ring.
	openPark := make(map[int32]bool)
	for i := range events {
		e := &events[i]
		ce := chromeEvent{Name: e.Kind.String(), TS: us(e.TS), TID: e.Ring}
		switch e.Kind {
		case EvBatchLand:
			// Render the batch as a span covering its execution.
			ce.Name = "batch"
			ce.Ph = "X"
			ce.TS = us(e.TS - e.B)
			ce.Dur = us(e.B)
			ce.Args = map[string]any{"size": e.A, "dur_ns": e.B}
		case EvPark:
			ce.Name = "parked"
			ce.Ph = "B"
			openPark[e.Ring] = true
		case EvWake:
			if !openPark[e.Ring] {
				continue
			}
			openPark[e.Ring] = false
			ce.Name = "parked"
			ce.Ph = "E"
		case EvSteal:
			ce.Ph = "i"
			ce.S = "t"
			which := "core"
			if e.B != 0 {
				which = "batch"
			}
			ce.Args = map[string]any{"victim": e.A, "deque": which}
		case EvPumpAdmit:
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"queue_depth": e.A}
		case EvPumpReject:
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"reason": "closed"}
		case EvPanicContained:
			ce.Ph = "i"
			ce.S = "g" // global-scope instant: draw it loud
			ce.Args = map[string]any{"group": e.A}
		default: // EvBatchLaunch and any future instants
			ce.Ph = "i"
			ce.S = "t"
		}
		cw.event(&ce)
	}
	// Close any park left open at snapshot time so spans balance.
	var last float64
	if n := len(events); n > 0 {
		last = us(events[n-1].TS)
	}
	for tid, open := range openPark {
		if open {
			cw.event(&chromeEvent{Name: "parked", Ph: "E", TS: last, TID: tid})
		}
	}
	if cw.err != nil {
		return cw.err
	}
	if _, err := cw.bw.WriteString("]}\n"); err != nil {
		return err
	}
	return cw.bw.Flush()
}
