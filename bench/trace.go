package main

import (
	"encoding/json"
	"os"
	"time"
)

// The traced pass records a span around calls from this program into a
// layer of the program under test. Spans live in per-goroutine buffers
// allocated before the timed region and are written out, if asked, when
// the benchmark ends. Per-burst calls (SubmitAll, Flush) are all timed
// into counters; per-operation spans are kept for one op in sampleEvery
// so the traced pass stays close to the untraced one.
const sampleEvery = 64

// span is one recorded call. Parent is the id of the span that caused it
// (0 for a rung's root span); Op is the stream index of the operation a
// per-op span belongs to, -1 for a span covering several.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int64  `json:"op"`
}

// epoch anchors span times; all spans of one process share it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// track is one goroutine's span buffer. A nil track records nothing, so
// an untraced pass pays one nil check per call site and no clock reads.
type track struct {
	base  int64 // ids of this track are base+1, base+2, ...
	spans []span
}

// add records a finished span and returns its id (0 when the track is
// nil or full: a full buffer drops spans rather than allocating inside
// a timed region).
func (t *track) add(parent int64, name, layer string, start, end, op int64) int64 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return 0
	}
	id := t.base + int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: start, End: end, Op: op})
	return id
}

// tracer owns the tracks of one traced pass. A nil tracer hands out nil
// tracks. Tracks are created by the coordinating goroutine before the
// goroutines that fill them start.
type tracer struct {
	tracks []*track
}

func (tr *tracer) newTrack(capacity int) *track {
	if tr == nil {
		return nil
	}
	t := &track{base: int64(len(tr.tracks)+1) << 32, spans: make([]span, 0, capacity)}
	tr.tracks = append(tr.tracks, t)
	return t
}

// writeJSON writes every recorded span as one JSON array.
func (tr *tracer) writeJSON(path string) error {
	all := []span{}
	for _, t := range tr.tracks {
		all = append(all, t.spans...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
