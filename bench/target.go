package main

import (
	"fmt"

	"batcher/internal/ds/counter"
	"batcher/internal/ds/hashmap"
	"batcher/internal/ds/skiplist"
	"batcher/internal/sched"
	"batcher/internal/server"
	"batcher/internal/shard"
)

// progSeed seeds the program under test (scheduler RNGs, skip-list
// heights, hash functions). It is a constant: the workload seed shapes
// the inputs only and never reaches the program.
const progSeed = 0x5eed

// newDS builds shard i's empty structure for sp the way server.Start
// does, so the lower rungs run the very structure the wire serves.
func newDS(sp *spec, i int) sched.Batched {
	base := uint64(progSeed) + uint64(i)*0x9e3779b97f4a7c15
	switch sp.ds {
	case server.DSCounter:
		return counter.New(0)
	case server.DSSkiplist:
		return skiplist.NewBatched(base ^ 0x9e3779b97f4a7c15)
	case server.DSHashmap:
		return hashmap.NewBatched(base ^ 0xd1342543de82ef95)
	}
	panic(fmt.Sprintf("bench: no structure for ds %d", sp.ds))
}

// preload fills b, shard i of n, with the preloaded keys it owns, before
// anything serves from it. The skip list takes sequential inserts in key
// order; the hash map has no sequential entry point, so it takes its own
// batched operation on a throwaway one-worker runtime.
func preload(b sched.Batched, sp *spec, st *stream, i, n int) {
	owns := func(key int64) bool {
		return st.preloaded(key) && shard.Of(sp.ds, key, n) == i
	}
	switch b := b.(type) {
	case *counter.Batched:
	case *skiplist.Batched:
		l := b.List()
		for key := int64(0); key < sp.keyspace; key++ {
			if owns(key) {
				l.Insert(key, valueOf(key))
			}
		}
	case *hashmap.Batched:
		const chunk = 512
		recs := make([]sched.OpRecord, chunk)
		ops := make([]*sched.OpRecord, 0, chunk)
		sched.New(sched.Config{Workers: 1, Seed: progSeed}).Run(func(c *sched.Ctx) {
			for key := int64(0); key < sp.keyspace; key++ {
				if owns(key) {
					r := &recs[len(ops)]
					*r = sched.OpRecord{DS: b, Kind: hashmap.OpPut, Key: key, Val: valueOf(key)}
					ops = append(ops, r)
				}
				if len(ops) == chunk || (key == sp.keyspace-1 && len(ops) > 0) {
					b.RunBatch(c, ops)
					ops = ops[:0]
				}
			}
		})
	default:
		panic(fmt.Sprintf("bench: cannot preload %T", b))
	}
}

// sizeOf is the structure's size at quiescence: keys held, or the
// counter's value. Every ladder rung must end with the same total.
func sizeOf(b sched.Batched) int64 {
	switch b := b.(type) {
	case *counter.Batched:
		return b.Value()
	case *skiplist.Batched:
		return int64(b.List().Len())
	case *hashmap.Batched:
		return int64(b.Len())
	}
	panic(fmt.Sprintf("bench: no size for %T", b))
}

// startServer starts an in-process batcherd for sp with its structure
// preloaded. WrapDS is the server's seam for reaching a structure as it
// is installed; the structure is returned unchanged.
func startServer(sp *spec, st *stream) (*server.Server, error) {
	return server.Start(server.Config{
		Shards:  sp.shards,
		Workers: sp.workers,
		Seed:    progSeed,
		WrapDS: func(i int, ds uint8, b sched.Batched) sched.Batched {
			if ds == sp.ds {
				preload(b, sp, st, i, sp.shards)
			}
			return b
		},
	})
}

// servedSize sums sizeOf over the server's shards. Quiescent only.
func servedSize(srv *server.Server, sp *spec) int64 {
	var n int64
	for _, sh := range srv.Router().Shards() {
		n += sizeOf(sh.DS(int(sp.ds)))
	}
	return n
}
