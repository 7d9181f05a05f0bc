package skiplist

import (
	"cmp"
	"slices"

	"batcher/internal/sched"
)

// Operation kinds for the batched skip list.
const (
	// OpInsert inserts Key with value Val; Ok reports "newly inserted".
	OpInsert sched.OpKind = iota
	// OpContains looks up Key; Ok reports presence, Res holds the value.
	OpContains
	// OpDelete removes Key; Ok reports "was present".
	OpDelete
	// OpInsertMany inserts every key in Aux.([]int64) with value Val.
	// This reproduces the paper's experimental setup, where "each
	// BATCHIFY call creates 100 insertion records" to simulate larger
	// batches; Res receives the number of keys newly inserted.
	OpInsertMany
	// OpSucc finds the smallest key >= Key: the key lands in Key, the
	// value in Res, and Ok reports existence.
	OpSucc
)

// Batched is the implicitly batched skip list.
//
// The scratch fields hold per-batch working storage and chunkBody is the
// one search loop body, bound at construction; both are reused across
// batches, so a warmed-up RunBatch allocates nothing. Reuse is legal
// because the scheduler runs at most one batch at a time (Invariant 1):
// RunBatch is never re-entered concurrently on the same structure.
type Batched struct {
	l *List

	reads   []*sched.OpRecord // lookups and successor queries
	deletes []*sched.OpRecord
	inserts []insertReq
	keys    []int64 // the keys of the search pass in progress
	preds   []*node // key i's predecessor tower at [i*maxLevel, (i+1)*maxLevel)

	chunkBody func(*sched.Ctx, int)
}

var _ sched.Batched = (*Batched)(nil)

// NewBatched returns an empty batched skip list with the given height
// seed.
func NewBatched(seed uint64) *Batched {
	b := &Batched{l: NewList(seed)}
	b.chunkBody = func(_ *sched.Ctx, ci int) {
		lo := ci * searchChunk
		hi := min(lo+searchChunk, len(b.keys))
		b.l.searchPredsN(b.keys[lo:hi], b.preds[lo*maxLevel:hi*maxLevel])
	}
	return b
}

// List exposes the underlying list for quiescent inspection (tests,
// initialization before a run).
func (b *Batched) List() *List { return b.l }

// Insert adds key/val; reports whether key was newly inserted. Core
// tasks only.
func (b *Batched) Insert(c *sched.Ctx, key, val int64) bool {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpInsert, Key: key, Val: val}
	c.Batchify(op)
	return op.Ok
}

// InsertMany adds all keys with value val, returning how many were newly
// inserted. It is the multi-record operation of the paper's Section 7
// experiment. Core tasks only.
func (b *Batched) InsertMany(c *sched.Ctx, keys []int64, val int64) int {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpInsertMany, Val: val, Aux: keys}
	c.Batchify(op)
	return int(op.Res)
}

// Contains looks up key. Core tasks only.
func (b *Batched) Contains(c *sched.Ctx, key int64) (int64, bool) {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpContains, Key: key}
	c.Batchify(op)
	return op.Res, op.Ok
}

// Succ returns the smallest key >= key with its value, or ok=false. Core
// tasks only.
func (b *Batched) Succ(c *sched.Ctx, key int64) (k, v int64, ok bool) {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpSucc, Key: key}
	c.Batchify(op)
	return op.Key, op.Res, op.Ok
}

// Delete removes key, reporting whether it was present. Core tasks only.
func (b *Batched) Delete(c *sched.Ctx, key int64) bool {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpDelete, Key: key}
	c.Batchify(op)
	return op.Ok
}

// insertReq is one key's insertion work item within a batch.
type insertReq struct {
	key, val int64
	op       *sched.OpRecord
}

// RunBatch implements sched.Batched. The batch linearizes as: all
// Contains and Succ ops (against the pre-batch state), then all inserts
// in key order, then all deletes in key order. Searching is the
// parallel step; structural modification is sequential, as in the
// paper's prototype.
func (b *Batched) RunBatch(c *sched.Ctx, ops []*sched.OpRecord) {
	reads := b.reads[:0]
	deletes := b.deletes[:0]
	inserts := b.inserts[:0]
	for _, op := range ops {
		switch op.Kind {
		case OpContains, OpSucc:
			reads = append(reads, op)
		case OpDelete:
			deletes = append(deletes, op)
		case OpInsert:
			inserts = append(inserts, insertReq{key: op.Key, val: op.Val, op: op})
		case OpInsertMany:
			// Every key carries its record so Res can accumulate the
			// number of newly inserted keys.
			for _, k := range op.Aux.([]int64) {
				inserts = append(inserts, insertReq{key: k, val: op.Val, op: op})
			}
			op.Res = 0
		default:
			panic("skiplist: unknown op kind")
		}
	}
	b.reads, b.deletes, b.inserts = reads, deletes, inserts

	// Step 1 (sequential): order the inserts by key. Stable so that when
	// a key appears twice in one batch, the earlier record in compaction
	// order performs the insert and later ones become updates.
	slices.SortStableFunc(inserts, func(x, y insertReq) int { return cmp.Compare(x.key, y.key) })

	// Step 2 (parallel): one search pass over the pre-batch list serves
	// the reads and finds every insert's predecessor tower.
	keys := b.keys[:0]
	for _, op := range reads {
		keys = append(keys, op.Key)
	}
	for i := range inserts {
		keys = append(keys, inserts[i].key)
	}
	towers := b.search(c, keys)
	for i, op := range reads {
		nxt := towers[i*maxLevel].t0
		switch {
		case op.Kind == OpSucc:
			if op.Ok = nxt != nil; op.Ok {
				op.Key, op.Res = nxt.key, nxt.val
			} else {
				op.Key, op.Res = 0, 0
			}
		case nxt != nil && nxt.key == op.Key:
			op.Res, op.Ok = nxt.val, true
		default:
			op.Res, op.Ok = 0, false
		}
	}

	// Step 3 (sequential): splice.
	b.splice(inserts, towers[len(reads)*maxLevel:])
	// InsertMany records that contributed only duplicate keys still need
	// Ok set; define Ok as "at least one key newly inserted".
	for _, op := range ops {
		if op.Kind == OpInsertMany {
			op.Ok = op.Res > 0
		}
	}

	b.runDeletes(c, deletes)
}

// search finds the predecessor tower of every key, in chunks of
// searchChunk keys that run as a parallel loop; a batch of at most
// searchChunk keys is one chunk and forks nothing. Key i's tower is
// returned at [i*maxLevel, (i+1)*maxLevel), filled below b.l.level. The
// chunks only read the list and write disjoint towers.
func (b *Batched) search(c *sched.Ctx, keys []int64) []*node {
	b.keys = keys
	if n := len(keys) * maxLevel; cap(b.preds) < n {
		b.preds = make([]*node, n)
	}
	c.For(0, (len(keys)+searchChunk-1)/searchChunk, 1, b.chunkBody)
	return b.preds
}

// splice links the key-sorted inserts in ascending order; insert i's
// tower is towers[i*maxLevel:(i+1)*maxLevel]. Earlier splices can
// invalidate a saved predecessor only by inserting nodes with smaller
// keys in front of it, so seeking forward from it restores correctness
// at amortized O(1) per level. Only the levels the new node occupies
// are re-walked, and level 0 first: a duplicate needs no others.
func (b *Batched) splice(inserts []insertReq, towers []*node) {
	l := b.l
	searched := l.level // the search filled towers below this level
	for i := range inserts {
		r := &inserts[i]
		preds := towers[i*maxLevel : (i+1)*maxLevel]
		preds[0] = preds[0].seek(0, r.key)
		if nxt := preds[0].t0; nxt != nil && nxt.key == r.key {
			nxt.val = r.val // duplicate: update in place
			if r.op.Kind == OpInsert {
				r.op.Ok = false
			}
			continue
		}
		h := l.height(r.key)
		for lv := 1; lv < h; lv++ {
			p := l.head // a level this batch's taller splices opened
			if lv < searched {
				p = preds[lv]
			}
			preds[lv] = p.seek(lv, r.key)
		}
		l.link(r.key, r.val, h, preds)
		if r.op.Kind == OpInsert {
			r.op.Ok = true
		} else {
			r.op.Res++
		}
	}
}

func (b *Batched) runDeletes(c *sched.Ctx, deletes []*sched.OpRecord) {
	if len(deletes) == 0 {
		return
	}
	// Descending key order: a saved predecessor of key k has key < k,
	// while every node already unlinked in this phase has key > k — so
	// saved predecessors are always live and their current next pointers
	// reflect prior unlinks.
	slices.SortStableFunc(deletes, func(x, y *sched.OpRecord) int { return cmp.Compare(y.Key, x.Key) })
	// The insert phase is over, so its predecessor towers are dead and
	// the search scratch can be reused.
	keys := b.keys[:0]
	for _, op := range deletes {
		keys = append(keys, op.Key)
	}
	towers := b.search(c, keys)
	for i, op := range deletes {
		preds := towers[i*maxLevel : (i+1)*maxLevel]
		target := preds[0].t0
		// Absent, or a duplicate delete already took it.
		if op.Ok = target != nil && target.key == op.Key; op.Ok {
			b.l.unlink(target, preds)
		}
	}
}
