package skiplist

import (
	"slices"
	"sort"
	"testing"

	"batcher/internal/rng"
	"batcher/internal/sched"
)

func runOn(p int, f func(c *sched.Ctx)) {
	rt := sched.New(sched.Config{Workers: p, Seed: 1})
	rt.Run(f)
}

func TestBatchedSingleInsert(t *testing.T) {
	b := NewBatched(1)
	runOn(2, func(c *sched.Ctx) {
		if !b.Insert(c, 7, 70) {
			t.Error("insert not new")
		}
		if b.Insert(c, 7, 71) {
			t.Error("duplicate insert reported new")
		}
		v, ok := b.Contains(c, 7)
		if !ok || v != 71 {
			t.Errorf("Contains = %d,%v", v, ok)
		}
	})
	if b.List().Len() != 1 {
		t.Fatalf("Len = %d", b.List().Len())
	}
}

func TestBatchedParallelInserts(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		b := NewBatched(2)
		const n = 2000
		runOn(p, func(c *sched.Ctx) {
			c.For(0, n, 1, func(cc *sched.Ctx, i int) {
				b.Insert(cc, int64(i*7%n), int64(i))
			})
		})
		keys := b.List().Keys()
		// i*7 mod n: gcd(7, 2000) = 1, so all n keys distinct.
		if len(keys) != n {
			t.Fatalf("P=%d: %d keys, want %d", p, len(keys), n)
		}
		if err := b.List().checkInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestBatchedDuplicateKeysWithinRun(t *testing.T) {
	b := NewBatched(3)
	const n = 1000
	newCount := 0
	results := make([]bool, n)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			results[i] = b.Insert(cc, int64(i%50), int64(i))
		})
	})
	for _, r := range results {
		if r {
			newCount++
		}
	}
	if newCount != 50 {
		t.Fatalf("%d inserts reported new, want 50", newCount)
	}
	if b.List().Len() != 50 {
		t.Fatalf("Len = %d, want 50", b.List().Len())
	}
}

func TestBatchedMatchesSequentialStructure(t *testing.T) {
	// Same seed + same key set => identical tower structure, so every
	// level must link the same keys as a sequential build.
	seq := NewList(5)
	bat := NewBatched(5)
	r := rng.New(55)
	keys := make([]int64, 3000)
	for i := range keys {
		keys[i] = r.Int63() % 10000
	}
	for _, k := range keys {
		seq.Insert(k, k)
	}
	runOn(4, func(c *sched.Ctx) {
		c.For(0, len(keys), 1, func(cc *sched.Ctx, i int) {
			bat.Insert(cc, keys[i], keys[i])
		})
	})
	sameChains(t, "batched", seq, bat.List())
	if err := bat.List().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// levelKeys returns the keys linked on level lv, in list order.
func levelKeys(l *List, lv int) []int64 {
	var out []int64
	for x := l.head.next(lv); x != nil; x = x.next(lv) {
		out = append(out, x.key)
	}
	return out
}

// sameChains fails t unless a and b use the same levels and link the
// same keys, in the same order, on every one of them.
func sameChains(t *testing.T, name string, a, b *List) {
	t.Helper()
	if a.level != b.level {
		t.Fatalf("%s: level %d vs %d", name, a.level, b.level)
	}
	for lv := 0; lv < a.level; lv++ {
		if ak, bk := levelKeys(a, lv), levelKeys(b, lv); !slices.Equal(ak, bk) {
			t.Fatalf("%s: level %d links %v, want %v", name, lv, bk, ak)
		}
	}
}

func TestBatchedInsertMany(t *testing.T) {
	b := NewBatched(7)
	const groups = 50
	const per = 100
	newTotals := make([]int, groups)
	runOn(4, func(c *sched.Ctx) {
		c.For(0, groups, 1, func(cc *sched.Ctx, g int) {
			keys := make([]int64, per)
			for i := range keys {
				keys[i] = int64(g*per + i)
			}
			newTotals[g] = b.InsertMany(cc, keys, 1)
		})
	})
	total := 0
	for _, n := range newTotals {
		total += n
	}
	if total != groups*per {
		t.Fatalf("new inserts = %d, want %d", total, groups*per)
	}
	if b.List().Len() != groups*per {
		t.Fatalf("Len = %d", b.List().Len())
	}
	if err := b.List().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedInsertManyOverlapping(t *testing.T) {
	b := NewBatched(8)
	runOn(4, func(c *sched.Ctx) {
		c.For(0, 40, 1, func(cc *sched.Ctx, g int) {
			keys := make([]int64, 25)
			for i := range keys {
				keys[i] = int64(i) // all groups share the same 25 keys
			}
			b.InsertMany(cc, keys, int64(g))
		})
	})
	if b.List().Len() != 25 {
		t.Fatalf("Len = %d, want 25", b.List().Len())
	}
}

func TestBatchedDeletes(t *testing.T) {
	b := NewBatched(9)
	const n = 1000
	runOn(4, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) { b.Insert(cc, int64(i), 0) })
	})
	deleted := make([]bool, n)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			if i%2 == 0 {
				deleted[i] = b.Delete(cc, int64(i))
			}
		})
	})
	for i := 0; i < n; i += 2 {
		if !deleted[i] {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if b.List().Len() != n/2 {
		t.Fatalf("Len = %d, want %d", b.List().Len(), n/2)
	}
	for _, k := range b.List().Keys() {
		if k%2 == 0 {
			t.Fatalf("even key %d survived", k)
		}
	}
	if err := b.List().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedDeleteAdjacentRuns(t *testing.T) {
	// Deleting contiguous key ranges stresses the descending-order splice
	// correctness (predecessor-of-predecessor chains).
	b := NewBatched(10)
	const n = 512
	runOn(4, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) { b.Insert(cc, int64(i), 0) })
	})
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			if i >= 100 && i < 400 {
				b.Delete(cc, int64(i))
			}
		})
	})
	keys := b.List().Keys()
	if len(keys) != n-300 {
		t.Fatalf("Len = %d, want %d", len(keys), n-300)
	}
	for _, k := range keys {
		if k >= 100 && k < 400 {
			t.Fatalf("key %d survived range delete", k)
		}
	}
	if err := b.List().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedDeleteHeavy(t *testing.T) {
	// Nine in ten keys go, many of them slab neighbours and many of them
	// asked for twice in one batch; what is left must still be a
	// well-formed list with the level count shrunk to fit.
	b := NewBatched(13)
	const n = 5000
	runOn(4, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) { b.Insert(cc, int64(i), int64(i)) })
	})
	took := make([]bool, 2*n)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, 2*n, 1, func(cc *sched.Ctx, i int) {
			if k := i / 2; k%10 != 0 {
				took[i] = b.Delete(cc, int64(k))
			}
		})
	})
	for k := 0; k < n; k++ {
		// Exactly one of a deleted key's two deletes finds it.
		if (took[2*k] != took[2*k+1]) != (k%10 != 0) {
			t.Fatalf("key %d: deletes reported %v and %v", k, took[2*k], took[2*k+1])
		}
	}
	keys := b.List().Keys()
	if len(keys) != n/10 {
		t.Fatalf("Len = %d, want %d", len(keys), n/10)
	}
	for i, k := range keys {
		if k != int64(10*i) {
			t.Fatalf("key %d = %d, want %d", i, k, 10*i)
		}
	}
	if err := b.List().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchZeroAllocs pins that a warmed-up RunBatch allocates
// nothing: on a P=4 mixed batch that leaves the list as it found it (a
// lookup, a successor query, an insert of a present key, a delete of an
// absent one), and on a reused 100-key OpInsertMany, which forks its
// search chunks.
func TestRunBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := NewBatched(14)
	for k := int64(0); k < 1000; k += 2 {
		b.List().Insert(k, k)
	}
	batch := func(recs ...sched.OpRecord) []*sched.OpRecord {
		ops := make([]*sched.OpRecord, len(recs))
		for i := range recs {
			recs[i].DS = b
			ops[i] = &recs[i]
		}
		return ops
	}
	many := make([]int64, 100)
	for i := range many {
		many[i] = int64(5 * i)
	}
	for name, ops := range map[string][]*sched.OpRecord{
		"P=4 mixed": batch(
			sched.OpRecord{Kind: OpContains, Key: 10},
			sched.OpRecord{Kind: OpSucc, Key: 501},
			sched.OpRecord{Kind: OpInsert, Key: 40, Val: 3},
			sched.OpRecord{Kind: OpDelete, Key: 41}),
		"InsertMany": batch(sched.OpRecord{Kind: OpInsertMany, Aux: many, Val: 7}),
	} {
		var got float64
		runOn(1, func(c *sched.Ctx) {
			b.RunBatch(c, ops) // warm the scratch, the task free list, the keys
			got = testing.AllocsPerRun(100, func() { b.RunBatch(c, ops) })
		})
		if got != 0 {
			t.Errorf("%s: RunBatch allocates %v objects per batch, want 0", name, got)
		}
	}
	if err := b.List().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedMixedOpsAgainstOracle(t *testing.T) {
	// Sequential dependency chain (m = n) forces singleton batches, so the
	// batched list must track a map oracle exactly, op by op.
	b := NewBatched(11)
	m := map[int64]int64{}
	r := rng.New(77)
	runOn(4, func(c *sched.Ctx) {
		for i := 0; i < 3000; i++ {
			k := r.Int63() % 300
			switch r.Intn(3) {
			case 0:
				_, existed := m[k]
				if b.Insert(c, k, int64(i)) == existed {
					t.Fatalf("op %d: insert(%d) new-flag mismatch", i, k)
				}
				m[k] = int64(i)
			case 1:
				wantV, wantOK := m[k]
				gotV, gotOK := b.Contains(c, k)
				if gotOK != wantOK || (wantOK && gotV != wantV) {
					t.Fatalf("op %d: contains(%d) = %d,%v want %d,%v", i, k, gotV, gotOK, wantV, wantOK)
				}
			case 2:
				_, existed := m[k]
				if b.Delete(c, k) != existed {
					t.Fatalf("op %d: delete(%d) mismatch", i, k)
				}
				delete(m, k)
			}
		}
	})
	if b.List().Len() != len(m) {
		t.Fatalf("Len = %d, want %d", b.List().Len(), len(m))
	}
	var mk []int64
	for k := range m {
		mk = append(mk, k)
	}
	sort.Slice(mk, func(i, j int) bool { return mk[i] < mk[j] })
	lk := b.List().Keys()
	for i := range mk {
		if lk[i] != mk[i] {
			t.Fatalf("key %d: %d vs %d", i, lk[i], mk[i])
		}
	}
}

func TestBatchedConcurrentMixedConservation(t *testing.T) {
	// Fully parallel mixed ops: we cannot predict interleaving, but the
	// final key set must equal {inserted keys} minus {successfully
	// deleted keys}, and invariants must hold.
	b := NewBatched(12)
	const n = 1200
	delOK := make([]bool, n)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			k := int64(i % 200)
			switch i % 3 {
			case 0:
				b.Insert(cc, k, int64(i))
			case 1:
				b.Contains(cc, k)
			case 2:
				delOK[i] = b.Delete(cc, k)
			}
		})
	})
	if err := b.List().checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range b.List().Keys() {
		if k < 0 || k >= 200 {
			t.Fatalf("impossible key %d", k)
		}
	}
}
