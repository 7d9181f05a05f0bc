// Package skiplist implements the skip list used in the paper's
// experimental evaluation (Section 7), in two forms: a sequential skip
// list (the paper's SEQ baseline, no concurrency control) and an
// implicitly batched skip list whose batched insert follows the paper's
// three-step BOP:
//
//  1. build the set of new nodes from the batch's records (sequential —
//     the batch is small),
//  2. search the main list for every key's insertion point, in parallel
//     (the dominant O(x lg n)-work step),
//  3. splice the new nodes into the main list (sequential).
//
// A size-x batch into a size-N list therefore has O(x lg N) work and
// O(lg N + x) span; with x <= P this matches the profile the paper's
// skip-list experiment exercises.
//
// The memory path is built for step 2. A node carries its tower inline
// in its slab element, so a hop is one cache miss; the batch's searches
// run in chunks of searchChunk keys whose cursors descend in lockstep,
// so the misses of independent searches overlap (and a batch of at most
// searchChunk ops forks nothing); and a warmed-up RunBatch allocates
// nothing. DESIGN.md §7, "Skip-list node layout and lockstep search".
//
// Node heights are derived deterministically from a hash of the key so
// that sequential and batched executions of the same key set build
// structurally identical lists — which keeps the SEQ-vs-BATCHER
// comparison apples-to-apples and makes tests reproducible.
package skiplist

import (
	"math/bits"
	"unsafe"

	"batcher/internal/rng"
)

// maxLevel bounds tower heights; 2^32 keys would be needed to saturate it.
const maxLevel = 32

// node carries its tower inline: t0 is the level-0 forward pointer and
// the first of h contiguous *node slots, the other h-1 lying directly
// behind it in the same slab element (one of the class structs below).
// A hop therefore touches one allocation, not a node plus a separately
// allocated tower. Only next and tower reach past t0.
type node struct {
	key, val int64
	h        int32
	t0       *node
}

// The height classes: a node of height h is carved as the smallest of
// node (1 slot), node2, node4, node8 or node32 whose tower fits h. The
// extra slots are typed *node, so the garbage collector sees them; no
// Go code names them.
type (
	node2 struct {
		node
		_ [1]*node
	}
	node4 struct {
		node
		_ [3]*node
	}
	node8 struct {
		node
		_ [7]*node
	}
	node32 struct {
		node
		_ [maxLevel - 1]*node
	}
)

// next returns n's forward pointer at level lv, which must be below
// n.h: the slot then lies inside n's own slab element.
func (n *node) next(lv int) *node {
	return *(**node)(unsafe.Add(unsafe.Pointer(&n.t0), uintptr(lv)*unsafe.Sizeof(n.t0)))
}

// tower returns n's h forward pointers as a slice over the slots that
// start at t0; h never exceeds the class n was carved from.
func (n *node) tower() []*node { return unsafe.Slice(&n.t0, int(n.h)) }

// seek returns the rightmost node at or after n on level lv whose key is
// strictly less than key (n itself if none is).
func (n *node) seek(lv int, key int64) *node {
	for nx := n.next(lv); nx != nil && nx.key < key; nx = n.next(lv) {
		n = nx
	}
	return n
}

// arenaChunk is the number of height-1 nodes carved per slab. Each
// taller class gets half the slab length of the one below it, roughly
// its share of the nodes, so the classes' slabs fill at a similar pace.
const arenaChunk = 512

// List is a sequential skip list mapping int64 keys to int64 values.
//
// Nodes are carved from per-class typed slabs, amortizing the per-insert
// heap allocation down to about one per arenaChunk inserts. The
// trade-off is GC granularity: a slab is reclaimed only when every node
// carved from it is unreachable, so workloads that delete most of what
// they insert retain somewhat more memory. For the insert-heavy
// workloads of the paper's experiments this is the right trade.
type List struct {
	head     *node
	size     int
	level    int // number of levels in use (>= 1)
	hashSeed uint64

	// Unused remainders of the current slab of each class; the rare
	// node taller than 8 is allocated on its own.
	slab1 []node
	slab2 []node2
	slab4 []node4
	slab8 []node8
}

// NewList returns an empty sequential skip list. seed fixes the (hash
// derived) tower heights.
func NewList(seed uint64) *List {
	l := &List{level: 1, hashSeed: seed}
	l.head = l.newNode(0, 0, maxLevel)
	return l
}

// height returns the deterministic tower height (in [1, maxLevel]) for a
// key: 1 + the number of leading coin-flip heads, with the coin flips
// taken from a SplitMix64 hash of the key.
func (l *List) height(key int64) int {
	st := uint64(key) ^ l.hashSeed
	h := rng.SplitMix64(&st)
	lvl := 1 + bits.TrailingZeros64(h|1<<(maxLevel-1))
	if lvl > maxLevel {
		lvl = maxLevel
	}
	return lvl
}

// searchPreds fills preds[lv], for each level in use, with the rightmost
// node whose key is strictly less than key. preds must have length
// maxLevel; levels at or above l.level are left untouched.
func (l *List) searchPreds(key int64, preds []*node) {
	x := l.head
	for lv := l.level - 1; lv >= 0; lv-- {
		x = x.seek(lv, key)
		preds[lv] = x
	}
}

// searchChunk is the number of searches searchPredsN advances together.
const searchChunk = 4

// searchPredsN is searchPreds for up to searchChunk keys at once: key
// i's predecessors land in preds[i*maxLevel:(i+1)*maxLevel]. The
// cursors descend in lockstep, each level taking one hop per cursor per
// pass, so the cache misses of independent searches overlap instead of
// queueing behind one another. A single key takes the scalar walk.
func (l *List) searchPredsN(keys []int64, preds []*node) {
	if len(keys) == 1 {
		l.searchPreds(keys[0], preds)
		return
	}
	var x [searchChunk]*node
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

// Insert adds key with val, or updates val if key is present. It returns
// true if the key was newly inserted.
func (l *List) Insert(key, val int64) bool {
	var preds [maxLevel]*node
	l.searchPreds(key, preds[:])
	if nxt := preds[0].t0; nxt != nil && nxt.key == key {
		nxt.val = val
		return false
	}
	l.link(key, val, l.height(key), preds[:])
	return true
}

// carve takes one element off *slab, refilling it with n when empty.
func carve[T any](slab *[]T, n int) *T {
	if len(*slab) == 0 {
		*slab = make([]T, n)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
	return p
}

// newNode carves a height-h node from the slab of the smallest class
// that fits it.
func (l *List) newNode(key, val int64, h int) *node {
	var n *node
	switch {
	case h == 1:
		n = carve(&l.slab1, arenaChunk)
	case h == 2:
		n = &carve(&l.slab2, arenaChunk/2).node
	case h <= 4:
		n = &carve(&l.slab4, arenaChunk/4).node
	case h <= 8:
		n = &carve(&l.slab8, arenaChunk/8).node
	default:
		n = &new(node32).node
	}
	n.key, n.val, n.h = key, val, int32(h)
	return n
}

// link splices a new height-h node for key behind preds[:h]. Levels the
// list does not use yet hang off the head, whatever preds holds there.
func (l *List) link(key, val int64, h int, preds []*node) {
	for ; l.level < h; l.level++ {
		preds[l.level] = l.head
	}
	n := l.newNode(key, val, h)
	nt := n.tower()
	for lv := range nt {
		pt := preds[lv].tower()
		nt[lv], pt[lv] = pt[lv], n
	}
	l.size++
}

// Contains reports whether key is present and returns its value.
func (l *List) Contains(key int64) (int64, bool) {
	if nxt := l.floor(key).t0; nxt != nil && nxt.key == key {
		return nxt.val, true
	}
	return 0, false
}

// Succ returns the smallest key >= key (and its value), or ok=false if
// no such key exists.
func (l *List) Succ(key int64) (k, v int64, ok bool) {
	if nxt := l.floor(key).t0; nxt != nil {
		return nxt.key, nxt.val, true
	}
	return 0, 0, false
}

// floor returns the level-0 predecessor of key: the rightmost node whose
// key is strictly less than key, or the head.
func (l *List) floor(key int64) *node {
	x := l.head
	for lv := l.level - 1; lv >= 0; lv-- {
		x = x.seek(lv, key)
	}
	return x
}

// Delete removes key if present, reporting whether it was.
func (l *List) Delete(key int64) bool {
	var preds [maxLevel]*node
	l.searchPreds(key, preds[:])
	target := preds[0].t0
	if target == nil || target.key != key {
		return false
	}
	l.unlink(target, preds[:])
	return true
}

// unlink detaches target given its predecessor tower.
func (l *List) unlink(target *node, preds []*node) {
	for lv, nxt := range target.tower() {
		if pt := preds[lv].tower(); pt[lv] == target {
			pt[lv] = nxt
		}
	}
	for l.level > 1 && l.head.next(l.level-1) == nil {
		l.level--
	}
	l.size--
}

// Len returns the number of keys.
func (l *List) Len() int { return l.size }

// Keys returns all keys in ascending order (testing/verification helper).
func (l *List) Keys() []int64 {
	out := make([]int64, 0, l.size)
	for x := l.head.t0; x != nil; x = x.t0 {
		out = append(out, x.key)
	}
	return out
}

// checkInvariants verifies that level 0 holds size strictly ascending
// keys and that every level in use links exactly the level-0 nodes tall
// enough to reach it, in the same order. Used by tests.
func (l *List) checkInvariants() error {
	var tall [maxLevel]int // tall[lv] = level-0 nodes with h > lv
	for x := l.head.t0; x != nil; x = x.t0 {
		if x.h < 1 || int(x.h) > l.level {
			return errBadTower{0, x.key}
		}
		for lv := range x.tower() {
			tall[lv]++
		}
	}
	if tall[0] != l.size {
		return errBadTower{0, int64(l.size)}
	}
	for lv := 0; lv < l.level; lv++ {
		n := 0
		for prev, x := l.head, l.head.next(lv); x != nil; prev, x = x, x.next(lv) {
			if prev != l.head && x.key <= prev.key {
				return errOutOfOrder{lv, prev.key, x.key}
			}
			if int(x.h) <= lv {
				return errBadTower{lv, x.key}
			}
			n++
		}
		if n != tall[lv] {
			return errBadTower{lv, int64(n)}
		}
	}
	return nil
}

type errOutOfOrder struct {
	level     int
	prev, cur int64
}

func (e errOutOfOrder) Error() string { return "skiplist: keys out of order" }

// errBadTower reports a level whose chain disagrees with the towers of
// the level-0 nodes (a node missing from, or wrongly on, that level).
type errBadTower struct {
	level int
	at    int64
}

func (e errBadTower) Error() string { return "skiplist: level chain disagrees with node towers" }
