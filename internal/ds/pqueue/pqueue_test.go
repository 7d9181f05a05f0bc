package pqueue

import (
	"container/heap"
	"sort"
	"testing"
	"testing/quick"

	"batcher/internal/rng"
	"batcher/internal/sched"
)

func runOn(p int, f func(c *sched.Ctx)) {
	rt := sched.New(sched.Config{Workers: p, Seed: 3})
	rt.Run(f)
}

func TestSeqBasic(t *testing.T) {
	q := NewSeq()
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty")
	}
	q.Insert(5, 50)
	q.Insert(1, 10)
	q.Insert(3, 30)
	if k, v, ok := q.Min(); !ok || k != 1 || v != 10 {
		t.Fatalf("Min = %d,%d,%v", k, v, ok)
	}
	wantK := []int64{1, 3, 5}
	for _, w := range wantK {
		k, _, ok := q.DeleteMin()
		if !ok || k != w {
			t.Fatalf("DeleteMin = %d,%v want %d", k, ok, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestSeqSortsRandomInput(t *testing.T) {
	q := NewSeq()
	r := rng.New(5)
	const n = 10000
	in := make([]int64, n)
	for i := range in {
		in[i] = r.Int63() % 1000
		q.Insert(in[i], 0)
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	for i := 0; i < n; i++ {
		k, _, ok := q.DeleteMin()
		if !ok || k != in[i] {
			t.Fatalf("pop %d = %d, want %d", i, k, in[i])
		}
	}
}

// stdHeap is a container/heap oracle.
type stdHeap []int64

func (h stdHeap) Len() int           { return len(h) }
func (h stdHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h stdHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *stdHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *stdHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func TestQuickSeqAgainstContainerHeap(t *testing.T) {
	f := func(ops []int16) bool {
		q := NewSeq()
		var o stdHeap
		heap.Init(&o)
		for _, op := range ops {
			if op >= 0 {
				q.Insert(int64(op), 0)
				heap.Push(&o, int64(op))
			} else {
				gk, _, gok := q.DeleteMin()
				if o.Len() == 0 {
					if gok {
						return false
					}
					continue
				}
				wk := heap.Pop(&o).(int64)
				if !gok || gk != wk {
					return false
				}
			}
		}
		return q.Len() == o.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedInsertsThenDrain(t *testing.T) {
	for _, p := range []int{1, 4, 8} {
		b := NewBatched()
		const n = 2000
		runOn(p, func(c *sched.Ctx) {
			c.For(0, n, 1, func(cc *sched.Ctx, i int) {
				b.Insert(cc, int64((i*31)%n), int64(i))
			})
		})
		if b.Len() != n {
			t.Fatalf("P=%d: Len = %d", p, b.Len())
		}
		// Drain sequentially and check ascending order.
		prev := int64(-1)
		runOn(p, func(c *sched.Ctx) {
			for i := 0; i < n; i++ {
				k, _, ok := b.DeleteMin(c)
				if !ok {
					t.Fatalf("premature empty at %d", i)
				}
				if k < prev {
					t.Fatalf("out of order: %d after %d", k, prev)
				}
				prev = k
			}
		})
		if b.Len() != 0 {
			t.Fatalf("P=%d: Len = %d after drain", p, b.Len())
		}
	}
}

func TestBatchedDeleteMinOnEmpty(t *testing.T) {
	b := NewBatched()
	runOn(4, func(c *sched.Ctx) {
		if _, _, ok := b.DeleteMin(c); ok {
			t.Error("DeleteMin on empty returned ok")
		}
	})
}

func TestBatchedMixedConservation(t *testing.T) {
	// Parallel inserts and delete-mins: every successful delete-min must
	// return an inserted priority, each insert consumed at most once.
	b := NewBatched()
	const n = 1200
	delKeys := make([]int64, n)
	delOK := make([]bool, n)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			if i%2 == 0 {
				b.Insert(cc, int64(i), int64(i))
			} else {
				delKeys[i], _, delOK[i] = b.DeleteMin(cc)
			}
		})
	})
	inserted := n / 2
	got := 0
	for i := 1; i < n; i += 2 {
		if delOK[i] {
			got++
			if delKeys[i]%2 != 0 || delKeys[i] < 0 || delKeys[i] >= n {
				t.Fatalf("impossible priority %d", delKeys[i])
			}
		}
	}
	if b.Len() != inserted-got {
		t.Fatalf("Len = %d, want %d", b.Len(), inserted-got)
	}
}

func TestBatchedHeapPropertyAfterMixedRuns(t *testing.T) {
	b := NewBatched()
	r := rng.New(17)
	for round := 0; round < 5; round++ {
		// Draw before the parallel loop: a Rand is not safe for
		// concurrent use. -1 means "no insert at this index".
		keys := make([]int64, 300)
		for i := range keys {
			keys[i] = -1
			if r.Bool() {
				keys[i] = r.Int63() % 500
			}
		}
		runOn(4, func(c *sched.Ctx) {
			c.For(0, len(keys), 1, func(cc *sched.Ctx, i int) {
				if keys[i] >= 0 {
					b.Insert(cc, keys[i], 0)
				}
			})
		})
	}
	// Full drain must be sorted.
	prev := int64(-1)
	runOn(2, func(c *sched.Ctx) {
		for {
			k, _, ok := b.DeleteMin(c)
			if !ok {
				return
			}
			if k < prev {
				t.Errorf("heap order violated: %d after %d", k, prev)
				return
			}
			prev = k
		}
	})
}

func TestBuildHeapDirect(t *testing.T) {
	// Exercise the parallel pairwise-meld reduction directly with a
	// full-width batch (real batches on a 1-CPU host are mostly
	// singletons, which would leave the fork path untested).
	rt := sched.New(sched.Config{Workers: 4, Seed: 5})
	rt.Run(func(c *sched.Ctx) {
		keys := []int64{9, 3, 7, 1, 8, 2, 6, 4, 5, 0}
		ops := make([]*sched.OpRecord, len(keys))
		for i, k := range keys {
			ops[i] = &sched.OpRecord{Kind: OpInsert, Key: k, Val: k * 10}
		}
		h := buildHeap(c, ops)
		prev := int64(-1)
		count := 0
		for h != nil {
			if h.k < prev {
				t.Errorf("heap order violated: %d after %d", h.k, prev)
				return
			}
			if h.v != h.k*10 {
				t.Errorf("payload mismatch for %d", h.k)
				return
			}
			prev = h.k
			h = meld(h.l, h.r)
			count++
		}
		if count != len(keys) {
			t.Errorf("drained %d elements, want %d", count, len(keys))
		}
	})
}

func TestBuildHeapEmpty(t *testing.T) {
	rt := sched.New(sched.Config{Workers: 2, Seed: 6})
	rt.Run(func(c *sched.Ctx) {
		if buildHeap(c, nil) != nil {
			t.Error("empty buildHeap not nil")
		}
	})
}

func TestSeqMinAfterDeletes(t *testing.T) {
	q := NewSeq()
	for _, k := range []int64{5, 2, 8} {
		q.Insert(k, k)
	}
	q.DeleteMin() // removes 2
	if k, _, ok := q.Min(); !ok || k != 5 {
		t.Fatalf("Min = %d,%v", k, ok)
	}
	q.DeleteMin()
	q.DeleteMin()
	if _, _, ok := q.Min(); ok {
		t.Fatal("Min on empty")
	}
}

func TestRunBatchUnknownKindPanics(t *testing.T) {
	b := NewBatched()
	rt := sched.New(sched.Config{Workers: 1, Seed: 7})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown op kind")
		}
	}()
	rt.Run(func(c *sched.Ctx) {
		b.RunBatch(c, []*sched.OpRecord{{Kind: 99}})
	})
}
