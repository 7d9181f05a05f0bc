package tree23

import (
	"sort"
	"testing"

	"batcher/internal/rng"
	"batcher/internal/sched"
)

func runOn(p int, f func(c *sched.Ctx)) {
	rt := sched.New(sched.Config{Workers: p, Seed: 7})
	rt.Run(f)
}

func TestBatchedInsertBasic(t *testing.T) {
	b := NewBatched()
	runOn(2, func(c *sched.Ctx) {
		if !b.Insert(c, 1, 10) {
			t.Error("insert not new")
		}
		if b.Insert(c, 1, 11) {
			t.Error("dup insert new")
		}
		v, ok := b.Contains(c, 1)
		if !ok || v != 11 {
			t.Errorf("Contains = %d,%v", v, ok)
		}
	})
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedParallelInserts(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		b := NewBatched()
		const n = 3000
		newFlags := make([]bool, n)
		runOn(p, func(c *sched.Ctx) {
			c.For(0, n, 1, func(cc *sched.Ctx, i int) {
				newFlags[i] = b.Insert(cc, int64(i*13%n), int64(i))
			})
		})
		// gcd(13, 3000) = 1 so all keys distinct.
		for i, f := range newFlags {
			if !f {
				t.Fatalf("P=%d: insert %d not reported new", p, i)
			}
		}
		if b.Tree().Len() != n {
			t.Fatalf("P=%d: Len = %d", p, b.Tree().Len())
		}
		if err := b.Tree().checkInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestBatchedDuplicateHeavy(t *testing.T) {
	// The paper's motivating hard case: all inserts hit the same few keys.
	b := NewBatched()
	const n = 2000
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			b.Insert(cc, int64(i%5), int64(i))
		})
	})
	if b.Tree().Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Tree().Len())
	}
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedIdenticalKeys(t *testing.T) {
	// "inserting P identical keys" — the exact scenario Section 3 calls
	// out as the main challenge for concurrent search trees.
	b := NewBatched()
	news := make([]bool, 64)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, 64, 1, func(cc *sched.Ctx, i int) {
			news[i] = b.Insert(cc, 42, int64(i))
		})
	})
	newCount := 0
	for _, f := range news {
		if f {
			newCount++
		}
	}
	if newCount != 1 {
		t.Fatalf("%d inserts of the same key reported new, want 1", newCount)
	}
	if b.Tree().Len() != 1 {
		t.Fatalf("Len = %d", b.Tree().Len())
	}
}

func TestBatchedInsertMany(t *testing.T) {
	b := NewBatched()
	const groups, per = 40, 50
	counts := make([]int, groups)
	runOn(4, func(c *sched.Ctx) {
		c.For(0, groups, 1, func(cc *sched.Ctx, g int) {
			keys := make([]int64, per)
			for i := range keys {
				keys[i] = int64(g*per + i)
			}
			counts[g] = b.InsertMany(cc, keys, 1)
		})
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != groups*per {
		t.Fatalf("new = %d, want %d", total, groups*per)
	}
	if b.Tree().Len() != groups*per {
		t.Fatalf("Len = %d", b.Tree().Len())
	}
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedDeletes(t *testing.T) {
	b := NewBatched()
	const n = 2000
	runOn(4, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) { b.Insert(cc, int64(i), 0) })
	})
	oks := make([]bool, n)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			if i%3 == 0 {
				oks[i] = b.Delete(cc, int64(i))
			}
		})
	})
	for i := 0; i < n; i += 3 {
		if !oks[i] {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	want := n - (n+2)/3
	if b.Tree().Len() != want {
		t.Fatalf("Len = %d, want %d", b.Tree().Len(), want)
	}
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range b.Tree().Keys() {
		if k%3 == 0 {
			t.Fatalf("key %d survived", k)
		}
	}
}

func TestBatchedDeleteAbsentAndDup(t *testing.T) {
	b := NewBatched()
	runOn(4, func(c *sched.Ctx) {
		b.Insert(c, 10, 0)
	})
	oks := make([]bool, 8)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, 8, 1, func(cc *sched.Ctx, i int) {
			oks[i] = b.Delete(cc, 10) // all delete the same key
		})
	})
	okCount := 0
	for _, ok := range oks {
		if ok {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("%d deletes of one key succeeded", okCount)
	}
	if b.Tree().Len() != 0 {
		t.Fatalf("Len = %d", b.Tree().Len())
	}
}

func TestBatchedSequentialChainAgainstOracle(t *testing.T) {
	b := NewBatched()
	m := map[int64]int64{}
	r := rng.New(91)
	runOn(4, func(c *sched.Ctx) {
		for i := 0; i < 4000; i++ {
			k := r.Int63() % 400
			switch r.Intn(3) {
			case 0:
				_, existed := m[k]
				if b.Insert(c, k, int64(i)) == existed {
					t.Fatalf("op %d: insert(%d) mismatch", i, k)
				}
				m[k] = int64(i)
			case 1:
				wv, wok := m[k]
				gv, gok := b.Contains(c, k)
				if gok != wok || (wok && gv != wv) {
					t.Fatalf("op %d: contains(%d) mismatch", i, k)
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
	if b.Tree().Len() != len(m) {
		t.Fatalf("Len = %d want %d", b.Tree().Len(), len(m))
	}
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedMatchesSequentialFinalSet(t *testing.T) {
	r := rng.New(123)
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = r.Int63() % 20000
	}
	seq := NewTree()
	for _, k := range keys {
		seq.Insert(k, k)
	}
	b := NewBatched()
	runOn(8, func(c *sched.Ctx) {
		c.For(0, len(keys), 1, func(cc *sched.Ctx, i int) {
			b.Insert(cc, keys[i], keys[i])
		})
	})
	sk, bk := seq.Keys(), b.Tree().Keys()
	if len(sk) != len(bk) {
		t.Fatalf("len %d vs %d", len(sk), len(bk))
	}
	for i := range sk {
		if sk[i] != bk[i] {
			t.Fatalf("key %d: %d vs %d", i, sk[i], bk[i])
		}
	}
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedMixedConservation(t *testing.T) {
	b := NewBatched()
	const n = 1500
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			k := int64(i % 250)
			switch i % 3 {
			case 0:
				b.Insert(cc, k, int64(i))
			case 1:
				b.Contains(cc, k)
			case 2:
				b.Delete(cc, k)
			}
		})
	})
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
	keys := b.Tree().Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("unsorted")
	}
	for _, k := range keys {
		if k < 0 || k >= 250 {
			t.Fatalf("impossible key %d", k)
		}
	}
}

// TestRunBatchZeroAllocs pins that a warmed-up RunBatch allocates
// nothing on lookups and on inserts over existing keys, at one
// operation per batch and at P.
func TestRunBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const p = 4
	b := NewBatched()
	for k := int64(0); k < 1000; k++ {
		b.Tree().Insert(k, k)
	}
	for name, kind := range map[string]sched.OpKind{"Contains": OpContains, "Insert": OpInsert} {
		for _, k := range []int{1, p} {
			recs := make([]sched.OpRecord, k)
			ops := make([]*sched.OpRecord, k)
			for i := range recs {
				recs[i] = sched.OpRecord{DS: b, Kind: kind, Key: int64(97 * i), Val: 1}
				ops[i] = &recs[i]
			}
			var got float64
			runOn(p, func(c *sched.Ctx) {
				b.RunBatch(c, ops) // warm the scratch and the task free list
				got = testing.AllocsPerRun(100, func() { b.RunBatch(c, ops) })
			})
			if got != 0 {
				t.Errorf("%s, k=%d: RunBatch allocates %v objects per batch, want 0", name, k, got)
			}
		}
	}
	if err := b.Tree().checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchReleasesRecords checks that a landed batch leaves no
// reference to its records in the scratch, and that insert scratch grown
// by a large InsertMany is not kept.
func TestRunBatchReleasesRecords(t *testing.T) {
	b := NewBatched()
	keys := make([]int64, 2*scratchKeep)
	for i := range keys {
		keys[i] = int64(i)
	}
	var out RangeResult
	recs := []sched.OpRecord{
		{DS: b, Kind: OpInsertMany, Val: 1, Aux: keys},
		{DS: b, Kind: OpInsert, Key: -1, Val: 1},
		{DS: b, Kind: OpContains, Key: 5},
		{DS: b, Kind: OpRange, Key: 0, Val: 9, Aux: &out},
		{DS: b, Kind: OpDelete, Key: 7},
		{DS: b, Kind: OpDelete, Key: 7},
	}
	ops := make([]*sched.OpRecord, len(recs))
	for i := range recs {
		ops[i] = &recs[i]
	}
	runOn(2, func(c *sched.Ctx) { b.RunBatch(c, ops) })
	if recs[0].Res != int64(len(keys)) || !recs[4].Ok || recs[5].Ok {
		t.Fatalf("batch results wrong: InsertMany %d, deletes %v %v", recs[0].Res, recs[4].Ok, recs[5].Ok)
	}
	for name, s := range map[string][]*sched.OpRecord{"lookups": b.lookups, "ranges": b.ranges, "deletes": b.deletes} {
		for i, op := range s[:cap(s)] {
			if op != nil {
				t.Errorf("%s[%d] still holds a record", name, i)
			}
		}
	}
	for i, ow := range b.owners[:cap(b.owners)] {
		if ow.op != nil {
			t.Errorf("owners[%d] still holds a record", i)
		}
	}
	if b.reqs != nil || b.flags != nil {
		t.Errorf("insert scratch of %d requests kept, cap %d > %d", len(keys)+1, cap(b.reqs), scratchKeep)
	}
}
