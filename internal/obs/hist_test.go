package obs

import (
	"math"
	"sort"
	"testing"

	"batcher/internal/rng"
)

// exactQuantile computes the reference quantile the histogram's estimate
// is checked against: the ceil(q·n)-th smallest sample.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	target := int(q*float64(len(sorted)) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > len(sorted) {
		target = len(sorted)
	}
	return sorted[target-1]
}

// checkQuantiles asserts that every checked quantile of h is within the
// geometry's guaranteed relative error of the exact sample quantile.
func checkQuantiles(t *testing.T, name string, h *Histogram, samples []int64) {
	t.Helper()
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		want := exactQuantile(sorted, q)
		if want < subCount {
			if got != want {
				t.Errorf("%s: q=%v: got %d, want exactly %d (exact region)", name, q, got, want)
			}
			continue
		}
		// The estimate is the bucket's inclusive upper bound: never below
		// the exact value, and within one bucket width (2^-subBits
		// relative) above it.
		if got < want {
			t.Errorf("%s: q=%v: estimate %d below exact %d", name, q, got, want)
		}
		if relErr := float64(got-want) / float64(want); relErr > 1.0/subCount+1e-9 {
			t.Errorf("%s: q=%v: estimate %d vs exact %d, rel err %.4f > %.4f",
				name, q, got, want, relErr, 1.0/subCount)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	r := rng.New(42)
	dists := map[string]func() int64{
		// Uniform over a wide range (spans many octaves).
		"uniform": func() int64 { return int64(r.Uint64() % 10_000_000) },
		// Exponential-ish: latency-shaped with a heavy tail.
		"exponential": func() int64 {
			return int64(-50_000 * math.Log(1-r.Float64()))
		},
		// Constant: every quantile must be (nearly) the constant.
		"constant": func() int64 { return 123_456 },
		// Small integers: the exact region (batch sizes).
		"small": func() int64 { return int64(r.Uint64() % 9) },
	}
	for name, gen := range dists {
		h := NewHistogram()
		samples := make([]int64, 20_000)
		for i := range samples {
			samples[i] = gen()
			h.Observe(samples[i])
		}
		checkQuantiles(t, name, h, samples)

		// Count/Sum/Min/Max are exact, not bucket-rounded.
		var sum, mn, mx int64
		mn = samples[0]
		for _, v := range samples {
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if h.Count() != int64(len(samples)) {
			t.Errorf("%s: Count=%d want %d", name, h.Count(), len(samples))
		}
		if h.Sum() != sum {
			t.Errorf("%s: Sum=%d want %d", name, h.Sum(), sum)
		}
		if h.Min() != mn || h.Max() != mx {
			t.Errorf("%s: Min/Max=%d/%d want %d/%d", name, h.Min(), h.Max(), mn, mx)
		}
		if math.Abs(h.Mean()-float64(sum)/float64(len(samples))) > 1e-9 {
			t.Errorf("%s: Mean=%v want %v", name, h.Mean(), float64(sum)/float64(len(samples)))
		}
	}
}

func TestHistogramBucketIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and
	// bucket indexing must be monotone in the value.
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 65, 1000, 1 << 20, (1 << 62) - 1, 1 << 62, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if up := bucketUpper(idx); up < v {
			t.Fatalf("bucketUpper(%d)=%d below value %d", idx, up, v)
		}
		if idx >= numBuckets {
			t.Fatalf("bucketIndex(%d)=%d out of range %d", v, idx, numBuckets)
		}
	}
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	r := rng.New(7)
	var all []int64
	for i := 0; i < 5000; i++ {
		v := int64(r.Uint64() % 1_000_000)
		all = append(all, v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	checkQuantiles(t, "merged", a, all)
	if a.Count() != int64(len(all)) {
		t.Fatalf("merged Count=%d want %d", a.Count(), len(all))
	}
	// Merging an empty histogram is a no-op.
	before := a.Count()
	a.Merge(NewHistogram())
	if a.Count() != before || a.Min() != 0 && a.Min() > a.Max() {
		t.Fatalf("merge of empty histogram changed state")
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram()
	r := rng.New(99)
	for i := 0; i < 10_000; i++ {
		h.Observe(int64(r.Uint64() % 5_000_000))
	}
	buckets := h.Cumulative()
	if len(buckets) == 0 || len(buckets) > maxExpoBuckets {
		t.Fatalf("got %d exposition buckets, want 1..%d", len(buckets), maxExpoBuckets)
	}
	prevU, prevC := int64(-1), int64(-1)
	for _, b := range buckets {
		if b.Upper <= prevU {
			t.Fatalf("bucket bounds not increasing: %d after %d", b.Upper, prevU)
		}
		if b.Count < prevC {
			t.Fatalf("cumulative counts decreasing: %d after %d", b.Count, prevC)
		}
		prevU, prevC = b.Upper, b.Count
	}
	if last := buckets[len(buckets)-1]; last.Count != h.Count() {
		t.Fatalf("final cumulative bucket %d != count %d", last.Count, h.Count())
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := NewHistogram()
	got := testing.AllocsPerRun(1000, func() { h.Observe(123_456) })
	if got != 0 {
		t.Fatalf("Observe allocates %v objects/op, want 0", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if buckets := h.Cumulative(); len(buckets) != 0 {
		t.Fatalf("empty histogram rendered %d buckets", len(buckets))
	}
}

// TestHistogramMergeDisjointQuantileError merges two histograms whose
// value ranges do not overlap — the regime where a merge bug (dropped
// buckets, double-counted totals) shows up as a quantile landing in
// the wrong half — and holds the merged estimates to the geometry's
// guaranteed relative error at every checked quantile.
func TestHistogramMergeDisjointQuantileError(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	r := rng.New(11)
	var all []int64
	for i := 0; i < 4000; i++ {
		lo := int64(r.Uint64()%10_000) + 1
		hi := int64(r.Uint64()%10_000_000) + 50_000_000
		a.Observe(lo)
		b.Observe(hi)
		all = append(all, lo, hi)
	}
	a.Merge(b)
	checkQuantiles(t, "disjoint-merge", a, all)
	if med := a.Quantile(0.5); med < 1 || med > 20_000 {
		t.Fatalf("merged median %d landed outside the low half", med)
	}
	if p99 := a.Quantile(0.99); p99 < 50_000_000 {
		t.Fatalf("merged p99 %d landed outside the high half", p99)
	}
}
