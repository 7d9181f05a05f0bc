package skiplist

import (
	"math"
	"slices"
	"testing"

	"batcher/internal/rng"
	"batcher/internal/sched"
)

// TestFingerOrderIndependentStructure loads one key set ascending (every
// insert after the first links behind the finger), descending (every
// insert lies below the finger's gap and searches) and shuffled. Heights
// come from the key, so all three must build the same chains on every
// level. The set spans the head's key 0, negative keys and both extremes.
func TestFingerOrderIndependentStructure(t *testing.T) {
	var keys []int64
	for k := int64(-3000); k < 3000; k += 3 {
		keys = append(keys, k)
	}
	keys = append(keys, math.MinInt64, math.MinInt64+1, math.MaxInt64-1, math.MaxInt64)
	slices.Sort(keys)

	load := func(keys []int64) *List {
		l := NewList(41)
		for _, k := range keys {
			if !l.Insert(k, k) {
				t.Fatalf("Insert(%d) reported present", k)
			}
		}
		if err := l.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if l.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(keys))
		}
		return l
	}
	asc := load(keys)
	if got := asc.Keys(); !slices.Equal(got, keys) {
		t.Fatalf("ascending load holds %v", got)
	}
	desc := slices.Clone(keys)
	slices.Reverse(desc)
	sameChains(t, "descending", asc, load(desc))
	shuffled := slices.Clone(keys)
	r := rng.New(3)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	sameChains(t, "shuffled", asc, load(shuffled))
}

// fingerOracle drives a batched skip list's sequential List and its
// RunBatch against a map, and checks the whole structure after every
// step.
type fingerOracle struct {
	t *testing.T
	b *Batched
	m map[int64]int64
}

func newFingerOracle(t *testing.T) *fingerOracle {
	return &fingerOracle{t: t, b: NewBatched(17), m: map[int64]int64{}}
}

func (o *fingerOracle) insert(k, v int64) {
	o.t.Helper()
	_, had := o.m[k]
	if o.b.l.Insert(k, v) == had {
		o.t.Fatalf("Insert(%d) new = %v, key present = %v", k, !had, had)
	}
	o.m[k] = v
	o.check()
}

func (o *fingerOracle) del(k int64) {
	o.t.Helper()
	_, had := o.m[k]
	if o.b.l.Delete(k) != had {
		o.t.Fatalf("Delete(%d) = %v, key present = %v", k, !had, had)
	}
	delete(o.m, k)
	o.check()
}

// batch runs one RunBatch of the inserts ins (key k with value -k) and
// the deletes dels; it linearizes as every insert, then every delete.
func (o *fingerOracle) batch(ins, dels []int64) {
	o.t.Helper()
	var ops []*sched.OpRecord
	for _, k := range ins {
		ops = append(ops, &sched.OpRecord{Kind: OpInsert, Key: k, Val: -k})
		o.m[k] = -k
	}
	for _, k := range dels {
		ops = append(ops, &sched.OpRecord{Kind: OpDelete, Key: k})
	}
	runOn(1, func(c *sched.Ctx) { o.b.RunBatch(c, ops) })
	for _, k := range dels {
		delete(o.m, k)
	}
	o.check()
}

func (o *fingerOracle) check() {
	o.t.Helper()
	l := o.b.l
	if err := l.checkInvariants(); err != nil {
		o.t.Fatal(err)
	}
	want := make([]int64, 0, len(o.m))
	for k := range o.m {
		want = append(want, k)
	}
	slices.Sort(want)
	if got := l.Keys(); !slices.Equal(got, want) {
		o.t.Fatalf("keys %v, want %v", got, want)
	}
	for k, v := range o.m {
		if got, ok := l.Contains(k); !ok || got != v {
			o.t.Fatalf("Contains(%d) = %d,%v, want %d", k, got, ok, v)
		}
	}
}

// run inserts keys lo, lo+step, ... below hi in ascending order.
func (o *fingerOracle) run(lo, hi, step int64) {
	o.t.Helper()
	for k := lo; k < hi; k += step {
		o.insert(k, k)
	}
}

// TestFingerInvalidation breaks ascending Insert runs with every change
// that can leave the finger stale, then resumes the run: a stale finger
// would link the next key behind an unlinked node, or miss a node a
// batch put into its gap, and the oracle or the invariants would see it.
// The runs start below 0, the head's key.
func TestFingerInvalidation(t *testing.T) {
	cases := []struct {
		name string
		f    func(o *fingerOracle)
	}{
		{"delete finger node", func(o *fingerOracle) {
			o.run(-20, 21, 2) // the finger is 20
			o.del(20)
			o.run(19, 30, 1)
		}},
		{"delete level-0 predecessor", func(o *fingerOracle) {
			o.run(-20, 21, 2)
			o.del(18)
			o.run(21, 30, 1)
			o.del(29)
			o.del(28)
			o.run(28, 40, 1)
		}},
		{"delete the finger's taller predecessors", func(o *fingerOracle) {
			o.run(-200, 200, 1)
			l := o.b.l
			// The nearest key below 199 that is taller than 199 stands in
			// the finger's tower above 199's own height; delete every
			// such key, the nearest included.
			for k := int64(198); k >= -200; k-- {
				if l.height(k) > l.height(199) {
					o.del(k)
				}
			}
			o.run(200, 260, 1)
		}},
		{"delete the only key", func(o *fingerOracle) {
			o.insert(0, 0)
			o.del(0)
			o.run(-3, 4, 1)
		}},
		{"batch inserts into the gap", func(o *fingerOracle) {
			o.run(-20, 21, 2)
			o.batch([]int64{30, 25}, nil)
			o.insert(22, 22)
			o.insert(27, 27)
			o.insert(30, 30) // present: an update
			o.insert(35, 35)
		}},
		{"batch deletes the finger", func(o *fingerOracle) {
			o.run(-20, 21, 2)
			o.batch([]int64{40}, []int64{20, 18})
			o.run(19, 45, 1)
		}},
		{"batch inserts and deletes elsewhere", func(o *fingerOracle) {
			o.run(0, 100, 3)
			o.batch([]int64{-5, 1, 50}, []int64{3, 6, 60})
			o.run(100, 120, 1)
			o.run(-10, 0, 1)
		}},
		{"updates of present keys", func(o *fingerOracle) {
			o.run(-40, 41, 10)
			o.insert(0, 7)   // update in the middle
			o.insert(-5, -5) // just below it
			o.insert(0, 8)   // the same key again
			o.insert(5, 5)   // just above it
			o.insert(-40, 9) // update behind the head
			o.insert(-50, -50)
			o.insert(-45, -45)
			o.insert(-40, 10)
			o.insert(40, 11) // update of the last key
			o.insert(41, 41)
		}},
		{"extreme keys", func(o *fingerOracle) {
			o.insert(math.MaxInt64, 1)
			o.insert(math.MaxInt64-1, 2)
			o.insert(math.MaxInt64, 3)
			o.insert(math.MinInt64, 4)
			o.insert(math.MinInt64+1, 5)
			o.insert(math.MinInt64, 6)
			o.run(-2, 3, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.f(newFingerOracle(t))
		})
	}
}

// TestFingerRandomInterleavings mixes ascending runs with updates,
// deletes of the last key inserted or of its neighbours, stray inserts
// and batches, checking every step against the oracle.
func TestFingerRandomInterleavings(t *testing.T) {
	o := newFingerOracle(t)
	r := rng.New(9)
	last := int64(-150)
	for range 3000 {
		switch p := r.Intn(100); {
		case p < 55:
			last += 1 + int64(r.Intn(3))
			o.insert(last, last)
		case p < 60:
			o.insert(last-int64(r.Intn(4)), int64(p))
		case p < 65:
			last -= 1 + int64(r.Intn(5))
			o.insert(last, last)
		case p < 78:
			o.del(last - int64(r.Intn(3)))
		case p < 86:
			last = int64(r.Intn(400)) - 200
			o.insert(last, last)
		default:
			ins := []int64{last + 1 + int64(r.Intn(4)), int64(r.Intn(400)) - 200}
			dels := []int64{last - int64(r.Intn(3)), int64(r.Intn(400)) - 200}
			o.batch(ins[:r.Intn(3)], dels[:r.Intn(3)])
		}
	}
}
