package tree23

import (
	"cmp"
	"slices"

	"batcher/internal/sched"
)

// Operation kinds for the batched 2-3 tree.
const (
	// OpInsert inserts Key with Val; Ok reports "newly inserted".
	OpInsert sched.OpKind = iota
	// OpContains looks up Key; Ok reports presence, Res the value.
	OpContains
	// OpDelete removes Key; Ok reports "was present".
	OpDelete
	// OpInsertMany inserts every key in Aux.([]int64) with value Val;
	// Res receives the count of newly inserted keys.
	OpInsertMany
)

// bulkCutoff is the request-count below which bulk operations run
// sequentially rather than forking.
const bulkCutoff = 4

// scratchKeep is the largest insert scratch, in requests, that a
// Batched keeps between batches.
const scratchKeep = 1024

// Batched is the implicitly batched 2-3 tree.
//
// The scratch fields hold per-batch working storage, and lookupBody and
// rangeBody are the read phase's loop bodies, bound at construction;
// both are reused across batches, so a warmed-up batch of lookups and
// updates of present keys allocates nothing. Reuse is legal because
// the scheduler runs at most one batch at a time (Invariant 1): RunBatch
// is never re-entered concurrently on the same structure.
type Batched struct {
	t *Tree

	lookups []*sched.OpRecord
	ranges  []*sched.OpRecord
	deletes []*sched.OpRecord
	reqs    []ireq
	owners  []insOwner
	flags   []bool // reqs[i] sets flags[i]; reused by the delete phase

	lookupBody, rangeBody func(*sched.Ctx, int)
}

var _ sched.Batched = (*Batched)(nil)

// NewBatched returns an empty batched 2-3 tree.
func NewBatched() *Batched {
	b := &Batched{t: NewTree()}
	b.lookupBody = func(_ *sched.Ctx, i int) {
		op := b.lookups[i]
		op.Res, op.Ok = b.t.Contains(op.Key)
	}
	b.rangeBody = func(_ *sched.Ctx, i int) {
		op := b.ranges[i]
		out := op.Aux.(*RangeResult)
		rangeWalk(b.t.root, op.Key, op.Val, out)
		op.Res = int64(len(out.Keys))
		op.Ok = true
	}
	return b
}

// Tree exposes the underlying tree for quiescent inspection.
func (b *Batched) Tree() *Tree { return b.t }

// Insert adds key/val; reports whether key was newly inserted. Core
// tasks only.
func (b *Batched) Insert(c *sched.Ctx, key, val int64) bool {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpInsert, Key: key, Val: val}
	c.Batchify(op)
	return op.Ok
}

// InsertMany adds all keys with value val, returning how many were newly
// inserted. Core tasks only.
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

// Delete removes key, reporting whether it was present. Core tasks only.
func (b *Batched) Delete(c *sched.Ctx, key int64) bool {
	op := c.Op()
	*op = sched.OpRecord{DS: b, Kind: OpDelete, Key: key}
	c.Batchify(op)
	return op.Ok
}

// ireq is one key's insertion request within a batch; added points into
// the batch's flag slice so forked tasks never write shared fields.
type ireq struct {
	key, val int64
	added    *bool
}

// insOwner maps an insert record to its requests: reqs[first:first+count].
type insOwner struct {
	op           *sched.OpRecord
	first, count int
}

func cmpReqKey(a, z ireq) int           { return cmp.Compare(a.key, z.key) }
func cmpOpKey(a, z *sched.OpRecord) int { return cmp.Compare(a.Key, z.Key) }

// resetFlags returns b.flags resized to n and cleared.
func (b *Batched) resetFlags(n int) []bool {
	b.flags = slices.Grow(b.flags[:0], n)[:n]
	clear(b.flags)
	return b.flags
}

// RunBatch implements sched.Batched. Linearization within a batch: all
// lookups (pre-batch state), then all inserts in key order, then all
// deletes in key order.
func (b *Batched) RunBatch(c *sched.Ctx, ops []*sched.OpRecord) {
	lookups, ranges, deletes := b.lookups[:0], b.ranges[:0], b.deletes[:0]
	reqs, owners := b.reqs[:0], b.owners[:0]
	for _, op := range ops {
		switch op.Kind {
		case OpContains:
			lookups = append(lookups, op)
		case OpRange:
			ranges = append(ranges, op)
		case OpDelete:
			deletes = append(deletes, op)
		case OpInsert:
			owners = append(owners, insOwner{op: op, first: len(reqs), count: 1})
			reqs = append(reqs, ireq{key: op.Key, val: op.Val})
		case OpInsertMany:
			keys := op.Aux.([]int64)
			owners = append(owners, insOwner{op: op, first: len(reqs), count: len(keys)})
			for _, k := range keys {
				reqs = append(reqs, ireq{key: k, val: op.Val})
			}
		default:
			panic("tree23: unknown op kind")
		}
	}
	b.lookups, b.ranges, b.deletes, b.reqs, b.owners = lookups, ranges, deletes, reqs, owners

	// Phase 1: lookups and range queries, fully parallel and read-only.
	c.For(0, len(lookups), 1, b.lookupBody)
	c.For(0, len(ranges), 1, b.rangeBody)

	// Phase 2: inserts.
	if len(reqs) > 0 {
		flags := b.resetFlags(len(reqs))
		for i := range reqs {
			reqs[i].added = &flags[i]
		}
		// Sort stably and dedup in place: for equal keys the last value
		// wins (it is linearized last); only the first occurrence can be
		// "new".
		slices.SortStableFunc(reqs, cmpReqKey)
		n := 0
		for i := 0; i < len(reqs); {
			j := i
			for j+1 < len(reqs) && reqs[j+1].key == reqs[i].key {
				j++
			}
			r := reqs[i]        // first occurrence carries the flag
			r.val = reqs[j].val // last occurrence's value wins
			reqs[n] = r
			n++
			i = j + 1
		}
		b.t.root = bulkInsert(c, b.t.root, reqs[:n])
		for _, f := range flags {
			if f {
				b.t.size++
			}
		}
		// Aggregate per-op results.
		for _, ow := range owners {
			switch ow.op.Kind {
			case OpInsert:
				ow.op.Ok = flags[ow.first]
			case OpInsertMany:
				n := int64(0)
				for _, f := range flags[ow.first : ow.first+ow.count] {
					if f {
						n++
					}
				}
				ow.op.Res = n
				ow.op.Ok = n > 0
			}
		}
	}

	// Phase 3: deletes.
	if len(deletes) > 0 {
		slices.SortStableFunc(deletes, cmpOpKey)
		// Dedup in place: only the first delete of a key can succeed.
		uniq := deletes[:0]
		for _, op := range deletes {
			if len(uniq) > 0 && op.Key == uniq[len(uniq)-1].Key {
				op.Ok = false
				continue
			}
			uniq = append(uniq, op)
		}
		flags := b.resetFlags(len(uniq))
		b.t.root = bulkDelete(c, b.t.root, uniq, flags)
		for i, op := range uniq {
			op.Ok = flags[i]
			if flags[i] {
				b.t.size--
			}
		}
	}
	b.release()
}

// release drops the scratch's references into the landed batch: the
// records (and through Aux their range buffers) belong to their callers
// once the batch lands. Insert scratch grown past scratchKeep by a bulk
// InsertMany is dropped rather than kept for good.
func (b *Batched) release() {
	clear(b.lookups)
	clear(b.ranges)
	clear(b.deletes)
	clear(b.owners)
	if cap(b.reqs) > scratchKeep {
		b.reqs, b.flags = nil, nil
	}
}

// bulkInsert inserts the sorted, deduplicated requests into t: split at
// the median request, recurse on the halves in parallel (they operate on
// disjoint trees), and join around the median. This is the
// Paul–Vishkin–Wagener recursion the paper describes for batched search
// trees.
func bulkInsert(c *sched.Ctx, t *node, reqs []ireq) *node {
	if len(reqs) == 0 {
		return t
	}
	if len(reqs) <= bulkCutoff {
		for _, r := range reqs {
			var added bool
			t, added = insertRoot(t, kv{r.key, r.val})
			*r.added = added
		}
		return t
	}
	mid := len(reqs) / 2
	m := reqs[mid]
	l, r, found, _ := split(t, m.key)
	*m.added = !found
	var lt, rt *node
	c.Fork(
		func(cc *sched.Ctx) { lt = bulkInsert(cc, l, reqs[:mid]) },
		func(cc *sched.Ctx) { rt = bulkInsert(cc, r, reqs[mid+1:]) },
	)
	return join(lt, kv{m.key, m.val}, rt)
}

// insertRoot is the classic insert adapted to return the new root.
func insertRoot(t *node, item kv) (*node, bool) {
	if t == nil {
		return node1(nil, item, nil), true
	}
	nt, sk, r, didSplit, added := insert(t, item)
	if didSplit {
		return node1(nt, sk, r), added
	}
	return nt, added
}

// bulkDelete removes the sorted, deduplicated keys of ops from t,
// setting flags[i] to whether ops[i].Key was present. Same recursion
// shape as bulkInsert, joining without the (deleted) median.
func bulkDelete(c *sched.Ctx, t *node, ops []*sched.OpRecord, flags []bool) *node {
	if len(ops) == 0 {
		return t
	}
	if len(ops) <= bulkCutoff {
		for i, op := range ops {
			l, r, found, _ := split(t, op.Key)
			flags[i] = found
			t = join2(l, r)
		}
		return t
	}
	mid := len(ops) / 2
	l, r, found, _ := split(t, ops[mid].Key)
	flags[mid] = found
	var lt, rt *node
	c.Fork(
		func(cc *sched.Ctx) { lt = bulkDelete(cc, l, ops[:mid], flags[:mid]) },
		func(cc *sched.Ctx) { rt = bulkDelete(cc, r, ops[mid+1:], flags[mid+1:]) },
	)
	return join2(lt, rt)
}
