// Package obs is the repository's observability layer: a lock-free
// per-worker event tracer with a Chrome trace_event exporter, HDR-style
// log-bucket latency histograms with a zero-allocation record path, and
// a Prometheus-text-format metric registry. The scheduler
// (internal/sched), the serving edge (internal/server), and the load
// generator (internal/loadgen) all publish into it; everything is
// stdlib-only and safe for concurrent use.
//
// The package deliberately has no dependency on the rest of the
// repository, so any layer can import it without cycles.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: values are non-negative int64s (typically
// nanoseconds or batch sizes) mapped into log-linear buckets — the
// HdrHistogram layout. The first 2^subBits buckets are exact (width 1);
// above that each octave [2^k, 2^(k+1)) is split into 2^subBits equal
// sub-buckets, so the relative width of any bucket is at most
// 1/2^subBits. With subBits = 5 that is a guaranteed ≤3.125% relative
// quantile error at *any* quantile — p50 and p99.9 alike — which is why
// a fixed array of counters can replace the sorted-slice percentile
// code (see DESIGN.md §10).
const (
	subBits  = 5
	subCount = 1 << subBits // 32 exact buckets, 32 sub-buckets per octave
	// numBuckets covers every non-negative int64: the largest index is
	// reached at v = 2^63-1, where e = 63-(subBits+1) and sub = 2^(subBits+1)-1.
	numBuckets = (62-subBits)*subCount + 2*subCount
)

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	// Shift so the top subBits+1 bits remain: sub is in [subCount, 2*subCount)
	// and indices continue contiguously from the exact region.
	e := uint(bits.Len64(uint64(v))) - (subBits + 1)
	sub := int64(uint64(v) >> e)
	return int(e)*subCount + int(sub)
}

// bucketUpper returns the largest value mapping to bucket idx (the
// bucket's inclusive upper bound). Quantile reports this bound, so its
// estimates err high by at most one bucket width.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	e := uint(idx/subCount - 1)
	sub := int64(idx - int(e)*subCount)
	return ((sub + 1) << e) - 1
}

// Histogram is a fixed-geometry log-bucket histogram with an
// allocation-free, lock-free record path: Observe is one index
// computation plus four atomic updates. All methods are safe for
// concurrent use; readers see a live (not point-in-time consistent)
// view, which is what a metrics scrape wants.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid when count > 0
	max    atomic.Int64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64
	return h
}

// Observe records one value. Negative values clamp to zero. It never
// allocates and never blocks.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of observed values (not bucket-rounded), so
// Mean is exact — the property the batch-size histogram needs to agree
// with the scheduler's LiveBatchStats counters.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns Sum/Count, or 0 when empty.
func (h *Histogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper estimate of the q-quantile (q in [0, 1]):
// the inclusive upper bound of the bucket containing the ceil(q·count)-th
// smallest observation. The estimate is exact below 2^subBits and within
// 2^-subBits (3.125%) relative error above. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i := range h.counts {
		cum += int64(h.counts[i].Load())
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return h.Max()
}

// Merge adds every observation of o into h. Bucket counts, count, sum,
// min, and max all merge exactly.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	if c := o.count.Load(); c > 0 {
		h.count.Add(c)
		h.sum.Add(o.sum.Load())
		for lo := o.Min(); ; {
			cur := h.min.Load()
			if lo >= cur || h.min.CompareAndSwap(cur, lo) {
				break
			}
		}
		for hi := o.Max(); ; {
			cur := h.max.Load()
			if hi <= cur || h.max.CompareAndSwap(cur, hi) {
				break
			}
		}
	}
}

// Bucket is one cumulative exposition bucket: Count observations were
// ≤ Upper.
type Bucket struct {
	Upper int64
	Count int64
}

// Cumulative returns cumulative exposition buckets: one per nonempty
// histogram bucket, in increasing upper-bound order, each carrying the
// count of observations ≤ its bound. The counts are exact (no
// re-bucketing), and any prefix of boundaries is a valid Prometheus
// cumulative histogram. When more than maxExpoBuckets buckets are
// nonempty, adjacent boundaries are merged (keeping cumulative counts
// exact at the surviving boundaries) to bound scrape size.
func (h *Histogram) Cumulative() []Bucket {
	var out []Bucket
	var cum int64
	total := h.count.Load()
	for i := 0; i < numBuckets && cum < total; i++ {
		c := int64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, Bucket{Upper: bucketUpper(i), Count: cum})
	}
	if len(out) > maxExpoBuckets {
		stride := (len(out) + maxExpoBuckets - 1) / maxExpoBuckets
		kept := out[:0]
		for i := range out {
			// Keep every stride-th boundary and always the last (so the
			// final bucket carries the full count).
			if (i+1)%stride == 0 || i == len(out)-1 {
				kept = append(kept, out[i])
			}
		}
		out = kept
	}
	return out
}

// maxExpoBuckets bounds the number of _bucket lines one histogram emits
// on a scrape.
const maxExpoBuckets = 64
