package skiplist

import (
	"testing"
	"testing/quick"
	"unsafe"

	"batcher/internal/rng"
)

// TestClassSizes pins the slab element sizes: a height-1 node is 32
// bytes, and each class adds exactly its extra tower slots.
func TestClassSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"node", unsafe.Sizeof(node{}), 32},
		{"node2", unsafe.Sizeof(node2{}), 40},
		{"node4", unsafe.Sizeof(node4{}), 56},
		{"node8", unsafe.Sizeof(node8{}), 88},
		{"node32", unsafe.Sizeof(node32{}), 32 + (maxLevel-1)*8},
	} {
		if c.got != c.want {
			t.Errorf("Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestHeightClasses carves two nodes of every height back to back and
// fills both towers: tower() must expose exactly h slots, and — every
// height having landed in a class that fits it — slab neighbours must
// not share a slot. Under -race this is also the checkptr test of the
// two accessors, which is what covers the singly allocated tall nodes.
func TestHeightClasses(t *testing.T) {
	l := NewList(1)
	for h := 1; h <= maxLevel; h++ {
		a, b := l.newNode(1, 1, h), l.newNode(2, 2, h)
		for _, n := range []*node{a, b} {
			if len(n.tower()) != h || cap(n.tower()) != h {
				t.Fatalf("h=%d: tower len %d cap %d", h, len(n.tower()), cap(n.tower()))
			}
			for lv := range n.tower() {
				n.tower()[lv] = n
			}
		}
		for _, n := range []*node{a, b} {
			for lv := 0; lv < h; lv++ {
				if n.next(lv) != n {
					t.Fatalf("h=%d: slot %d of key %d overwritten by its slab neighbour", h, lv, n.key)
				}
			}
			if n.t0 != n || n.key == 0 || n.val != n.key || int(n.h) != h {
				t.Fatalf("h=%d: header of key %d damaged", h, n.key)
			}
		}
	}
}

// TestLockstepMatchesScalar checks searchPredsN against scalar
// searchPreds, Contains and Succ for every chunk size on lists of size
// 0, 1 and 10^4, with keys below the minimum, above the maximum,
// absent, present, and repeated inside one chunk.
func TestLockstepMatchesScalar(t *testing.T) {
	for _, size := range []int{0, 1, 10000} {
		l := NewList(21)
		for i := 0; i < size; i++ {
			l.Insert(int64(10+3*i), int64(i)) // present: 10, 13, 16, ...
		}
		top := int64(10 + 3*size)
		for n := 1; n <= searchChunk; n++ {
			check := func(seed uint64) bool {
				r := rng.New(seed)
				keys := make([]int64, n)
				for i := range keys {
					switch r.Intn(5) {
					case 0:
						keys[i] = 9 - int64(r.Intn(5)) // below the minimum
					case 1:
						keys[i] = top + int64(r.Intn(5)) // above the maximum
					case 2:
						keys[i] = 10 + 3*int64(r.Intn(size+1)) // present (if size > 0)
					case 3:
						keys[i] = 11 + 3*int64(r.Intn(size+1)) // absent, inside the range
					case 4:
						keys[i] = keys[r.Intn(i+1)] // repeated inside the chunk
					}
				}
				got := make([]*node, n*maxLevel)
				l.searchPredsN(keys, got)
				for i, key := range keys {
					var want [maxLevel]*node
					l.searchPreds(key, want[:])
					for lv := 0; lv < l.level; lv++ {
						if got[i*maxLevel+lv] != want[lv] {
							t.Errorf("size %d chunk %d key %d level %d: predecessor differs", size, n, key, lv)
							return false
						}
					}
					nxt := got[i*maxLevel].t0
					v, ok := l.Contains(key)
					if ok != (nxt != nil && nxt.key == key) || (ok && v != nxt.val) {
						t.Errorf("size %d chunk %d key %d: disagrees with Contains", size, n, key)
						return false
					}
					sk, sv, sok := l.Succ(key)
					if sok != (nxt != nil) || (sok && (sk != nxt.key || sv != nxt.val)) {
						t.Errorf("size %d chunk %d key %d: disagrees with Succ", size, n, key)
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
