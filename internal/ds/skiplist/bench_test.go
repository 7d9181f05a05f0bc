package skiplist

import (
	"fmt"
	"testing"

	"batcher/internal/rng"
	"batcher/internal/sched"
)

// benchSpace is the microbenchmarks' key space; half of it is present.
const benchSpace = 1 << 20

// benchList holds every even key of [0, benchSpace), inserted in a
// shuffled order so that list neighbours are not slab neighbours.
func benchList() *List {
	keys := make([]int64, benchSpace/2)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	r := rng.New(1)
	for i := len(keys) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	l := NewList(0x5eed)
	for _, k := range keys {
		l.Insert(k, k)
	}
	return l
}

var benchSink int64

// benchChunk is the widest lockstep row BenchmarkSearch times.
const benchChunk = 8

// searchPredsWide is searchPredsN's loop with benchChunk cursors, so
// the chunk sizes searchChunk was picked against can be timed without
// editing the constant. BenchmarkSearch runs it next to the real kernel
// at searchChunk keys to show the copy costs the same.
func (l *List) searchPredsWide(keys []int64, preds []*node) {
	var x [benchChunk]*node
	for i := range keys {
		x[i] = l.head
	}
	for lv := l.level - 1; lv >= 0; lv-- {
		for moved := true; moved; {
			moved = false
			for i, key := range keys {
				if nx := x[i].next(lv); nx != nil && nx.key < key {
					x[i] = nx
					moved = true
				}
			}
		}
		for i := range keys {
			preds[i*maxLevel+lv] = x[i]
		}
	}
}

// BenchmarkSearch times one predecessor search, scalar and through the
// lockstep kernel at each chunk size, ns per key; the "wide" rows are
// searchPredsWide. In the independent stream every key is known up
// front, so even scalar searches overlap in the out-of-order window; in
// the dependent stream a chunk's keys derive from the previous chunk's
// results, so only the kernel can overlap misses — the position a
// batch's searches are in.
func BenchmarkSearch(b *testing.B) {
	l := benchList()
	preds := make([]*node, benchChunk*maxLevel)
	for _, stream := range []string{"independent", "dependent"} {
		dep := uint64(0)
		if stream == "dependent" {
			dep = 1
		}
		run := func(name string, n int, search func(keys []int64)) {
			b.Run(stream+"/"+name, func(b *testing.B) {
				st := uint64(42)
				var keys [benchChunk]int64
				for done := 0; done < b.N; done += n {
					for i := range keys[:n] {
						keys[i] = int64(rng.SplitMix64(&st) % benchSpace)
					}
					search(keys[:n])
					for i := 0; i < n; i++ {
						st += dep * uint64(preds[i*maxLevel].key)
					}
				}
				benchSink += int64(st)
			})
		}
		run("scalar", 1, func(keys []int64) { l.searchPreds(keys[0], preds) })
		for n := 1; n <= searchChunk; n *= 2 {
			run(fmt.Sprintf("lockstep-%d", n), n, func(keys []int64) { l.searchPredsN(keys, preds) })
		}
		for n := searchChunk; n <= benchChunk; n *= 2 {
			run(fmt.Sprintf("wide-%d", n), n, func(keys []int64) { l.searchPredsWide(keys, preds) })
		}
	}
}

// BenchmarkRunBatch times the batched operation alone, ns per op, on
// batches of P ops drawn half lookups, half inserts of absent keys.
func BenchmarkRunBatch(b *testing.B) {
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			bl := NewBatched(0x5eed)
			bl.l = benchList()
			recs := make([]sched.OpRecord, p)
			ops := make([]*sched.OpRecord, p)
			for i := range ops {
				ops[i] = &recs[i]
			}
			st := uint64(42)
			sched.New(sched.Config{Workers: 1, Seed: 1}).Run(func(c *sched.Ctx) {
				b.ResetTimer()
				for done := 0; done < b.N; done += p {
					for i := range recs {
						h := rng.SplitMix64(&st)
						recs[i] = sched.OpRecord{Kind: OpContains, Key: int64(h % benchSpace)}
						if h>>32&1 == 0 {
							recs[i].Kind, recs[i].Val = OpInsert, 1
						}
					}
					bl.RunBatch(c, ops)
				}
			})
		})
	}
}
