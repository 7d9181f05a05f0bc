// Package hashmap implements a batched hash table (a parallel
// dictionary, the structure class the paper's related work cites via
// Paul–Vishkin–Wagener and the STL bulk-operation dictionaries). The
// batched operation
//
//  1. applies the batch's operations inline in compaction order (the
//     batch's linearization order), one bucket probe each,
//  2. if the load factor crossed a threshold, rebuilds the table in two
//     passes: count the entries each new bucket receives, then carve
//     every new bucket out of one slab (with a slot of slack) and fill
//     it. With table doubling, old bucket i redistributes only into new
//     buckets i and i+oldLen, so both passes parallelize over old
//     buckets with disjoint writes, and a prefix sum gives the offsets.
//
// Step 1 stays sequential, a span of O(k) for k operations: the
// scheduler hands RunBatch at most P operations (Invariant 2), too few
// to pay for grouping them by bucket and forking. The rebuild is where
// a batch has Θ(n) work to spread.
//
// Lookups and updates of present keys allocate nothing; a Put that
// outgrows its bucket's slack allocates, and a rebuild makes O(1)
// allocations, not one per bucket.
//
// Amortized Θ(1) work per operation, with Θ(n)-work rebuild batches —
// the same amortized profile as the paper's stack example, handled by
// Theorem 1's parallelism-based definition of the data-structure span.
package hashmap

import (
	"batcher/internal/prefix"
	"batcher/internal/rng"
	"batcher/internal/sched"
)

// Operation kinds.
const (
	// OpPut maps Key to Val; Ok reports "newly inserted".
	OpPut sched.OpKind = iota
	// OpGet reads Key into Res; Ok reports presence.
	OpGet
	// OpDel removes Key; Ok reports "was present".
	OpDel
)

type entry struct{ k, v int64 }

const (
	initialBuckets = 8
	// rebuildGrain is the number of buckets one rebuild task handles.
	rebuildGrain = 256
)

// Batched is the implicitly batched hash map.
type Batched struct {
	buckets [][]entry
	size    int
	seed    uint64
	// Rebuilds counts table doublings/halvings (for tests and benches).
	Rebuilds int
}

var _ sched.Batched = (*Batched)(nil)

// NewBatched returns an empty map; seed fixes the hash function.
func NewBatched(seed uint64) *Batched {
	return &Batched{buckets: make([][]entry, initialBuckets), seed: seed}
}

// Len returns the number of keys. Quiescent only.
func (b *Batched) Len() int { return b.size }

// Buckets returns the current bucket count (for tests).
func (b *Batched) Buckets() int { return len(b.buckets) }

func (b *Batched) hash(k int64) int {
	st := uint64(k) ^ b.seed
	return int(rng.SplitMix64(&st) & uint64(len(b.buckets)-1))
}

// Put maps key to val; reports whether key was newly inserted. Core
// tasks only.
func (b *Batched) Put(c *sched.Ctx, key, val int64) bool {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpPut, Key: key, Val: val}
	c.Batchify(op)
	return op.Ok
}

// Get looks up key. Core tasks only.
func (b *Batched) Get(c *sched.Ctx, key int64) (int64, bool) {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpGet, Key: key}
	c.Batchify(op)
	return op.Res, op.Ok
}

// Del removes key, reporting whether it was present. Core tasks only.
func (b *Batched) Del(c *sched.Ctx, key int64) bool {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpDel, Key: key}
	c.Batchify(op)
	return op.Ok
}

// RunBatch implements sched.Batched.
func (b *Batched) RunBatch(c *sched.Ctx, ops []*sched.OpRecord) {
	for _, op := range ops {
		b.size += b.applyToBucket(b.hash(op.Key), op)
	}

	// Resize when over- or under-loaded.
	switch {
	case b.size > 3*len(b.buckets): // load factor 3
		b.resize(c, len(b.buckets)*2)
	case len(b.buckets) > initialBuckets && b.size < len(b.buckets)/2:
		b.resize(c, len(b.buckets)/2)
	}
}

// applyToBucket performs one operation on bucket bi, returning the size
// delta.
func (b *Batched) applyToBucket(bi int, op *sched.OpRecord) int {
	bucket := b.buckets[bi]
	pos := -1
	for i := range bucket {
		if bucket[i].k == op.Key {
			pos = i
			break
		}
	}
	switch op.Kind {
	case OpPut:
		if pos >= 0 {
			bucket[pos].v = op.Val
			op.Ok = false
			return 0
		}
		b.buckets[bi] = append(bucket, entry{op.Key, op.Val})
		op.Ok = true
		return 1
	case OpGet:
		if pos >= 0 {
			op.Res, op.Ok = bucket[pos].v, true
		} else {
			op.Res, op.Ok = 0, false
		}
		return 0
	case OpDel:
		if pos < 0 {
			op.Ok = false
			return 0
		}
		bucket[pos] = bucket[len(bucket)-1]
		b.buckets[bi] = bucket[:len(bucket)-1]
		op.Ok = true
		return -1
	default:
		panic("hashmap: unknown op kind")
	}
}

// resize rebuilds the table with newLen buckets (a power of two) in two
// parallel passes. Pass 1 counts each new bucket's entries plus one slot
// of slack; an inclusive prefix sum turns the counts into each bucket's
// end in one slab. Pass 2 carves the buckets out of the slab and fills
// them. Growing by 2x sends old bucket i only to new buckets i and
// i+oldLen, so both passes run a task per old bucket that writes only
// those two; shrinking gives each task one new bucket, which pulls from
// its source old buckets i, i+newLen, ....
func (b *Batched) resize(c *sched.Ctx, newLen int) {
	b.Rebuilds++
	old := b.buckets
	fresh := make([][]entry, newLen)
	b.buckets = fresh // b.hash now maps keys into fresh
	ends := make([]int64, newLen)
	carve := func(slab []entry, i int) {
		lo := int64(0)
		if i > 0 {
			lo = ends[i-1]
		}
		fresh[i] = slab[lo:lo:ends[i]]
	}
	if newLen >= len(old) {
		c.For(0, len(old), rebuildGrain, func(_ *sched.Ctx, i int) {
			ends[i], ends[i+len(old)] = 1, 1
			for _, e := range old[i] {
				ends[b.hash(e.k)]++
			}
		})
		slab := make([]entry, prefix.InclusiveInt64(c, ends))
		c.For(0, len(old), rebuildGrain, func(_ *sched.Ctx, i int) {
			carve(slab, i)
			carve(slab, i+len(old))
			for _, e := range old[i] {
				ni := b.hash(e.k)
				fresh[ni] = append(fresh[ni], e)
			}
		})
		return
	}
	ratio := len(old) / newLen
	c.For(0, newLen, rebuildGrain, func(_ *sched.Ctx, i int) {
		n := 1
		for r := 0; r < ratio; r++ {
			n += len(old[i+r*newLen])
		}
		ends[i] = int64(n)
	})
	slab := make([]entry, prefix.InclusiveInt64(c, ends))
	c.For(0, newLen, rebuildGrain, func(_ *sched.Ctx, i int) {
		carve(slab, i)
		for r := 0; r < ratio; r++ {
			fresh[i] = append(fresh[i], old[i+r*newLen]...)
		}
	})
}
