package shard

import (
	"sync"
	"testing"

	"batcher/internal/sched"
)

// Wire ds codes, duplicated from internal/server (shard must not import
// the server; the values are protocol constants and cannot drift).
const (
	dsCounter  = 0
	dsSkiplist = 1
	dsTree23   = 2
	dsHashmap  = 3
)

func TestOfDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for ds := uint8(0); ds < 4; ds++ {
			for key := int64(-3); key < 1000; key++ {
				got := Of(ds, key, n)
				if got < 0 || got >= n {
					t.Fatalf("Of(%d,%d,%d) = %d out of range", ds, key, n, got)
				}
				if again := Of(ds, key, n); again != got {
					t.Fatalf("Of(%d,%d,%d) not deterministic: %d then %d", ds, key, n, got, again)
				}
			}
		}
	}
	if Of(dsSkiplist, 42, 1) != 0 {
		t.Fatal("n=1 must always place on shard 0")
	}
}

// The chaos suite poisons shard 0's skiplist and asserts counter
// traffic survives untouched; that only isolates anything if the
// counter's home shard is not shard 0 at the N the test uses. Pin the
// placement here so a future hash change that breaks the premise fails
// loudly in this package, next to the hash.
func TestHomePlacementAtFour(t *testing.T) {
	if h := Home(dsCounter, 4); h == 0 {
		t.Fatalf("counter home shard at N=4 is 0; chaos shard-poison test needs it off shard 0 (got %d)", h)
	}
	t.Logf("home shards at N=4: counter=%d skiplist=%d tree23=%d hashmap=%d",
		Home(dsCounter, 4), Home(dsSkiplist, 4), Home(dsTree23, 4), Home(dsHashmap, 4))
}

func TestOfSpreadsKeys(t *testing.T) {
	const n = 4
	var counts [n]int
	for key := int64(0); key < 4096; key++ {
		counts[Of(dsSkiplist, key, n)]++
	}
	for i, c := range counts {
		// Expected 1024 per shard; a uniform hash stays well within
		// ±25% at this sample size. Catches degenerate mixing only.
		if c < 768 || c > 1280 {
			t.Fatalf("shard %d got %d of 4096 uniform keys; hash is not spreading (%v)", i, c, counts)
		}
	}
}

func TestOfSaltsByDS(t *testing.T) {
	// ds-salting: the per-key placements of two structures must not be
	// the identical function (a hot key on one structure should not
	// deterministically pin every structure's same shard).
	same := 0
	const keys = 1024
	for key := int64(0); key < keys; key++ {
		if Of(dsSkiplist, key, 4) == Of(dsHashmap, key, 4) {
			same++
		}
	}
	if same == keys {
		t.Fatal("skiplist and hashmap place every key identically; ds salt is dead")
	}
}

// counterDS is a minimal keyless Batched for router plumbing tests: the
// batch handler assigns each op the next running total, like the real
// prefix-sums counter, so a permutation check works.
type counterDS struct {
	mu    sync.Mutex
	total int64
}

func (c *counterDS) RunBatch(ctx *sched.Ctx, ops []*sched.OpRecord) {
	c.mu.Lock()
	for _, op := range ops {
		c.total++
		op.Res = c.total
	}
	c.mu.Unlock()
}

func TestRouterServesAndDrainsPerShardBooks(t *testing.T) {
	const (
		shards = 4
		perSh  = 256
	)
	ctrs := make([]*counterDS, shards)
	r := NewRouter(Config{
		Shards:  shards,
		Workers: 2,
		Seed:    1,
		NewDS: func(i int) []sched.Batched {
			ctrs[i] = &counterDS{}
			return []sched.Batched{ctrs[i]}
		},
	})
	if r.N() != shards {
		t.Fatalf("N() = %d, want %d", r.N(), shards)
	}

	var served sync.WaitGroup
	served.Add(1)
	go func() { defer served.Done(); r.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		sh := r.Shard(i)
		if sh.ID() != i {
			t.Errorf("Shard(%d).ID() = %d", i, sh.ID())
		}
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			ops := make([]*sched.OpRecord, 0, 8)
			for submitted := 0; submitted < perSh; submitted += len(ops) {
				ops = ops[:0]
				for j := 0; j < min(8, perSh-submitted); j++ {
					ops = append(ops, &sched.OpRecord{Kind: 0, DS: sh.DS(0)})
				}
				if n, err := sh.SubmitAll(ops); n != len(ops) || err != nil {
					t.Errorf("shard %d SubmitAll = (%d, %v), want (%d, nil)", sh.ID(), n, err, len(ops))
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	r.Close()
	r.Close() // idempotent
	served.Wait()

	for i := 0; i < shards; i++ {
		a, c, f := r.Shard(i).Books()
		if a != perSh || c != perSh || f != 0 {
			t.Fatalf("shard %d books accepted=%d completed=%d failed=%d, want %d/%d/0", i, a, c, f, perSh, perSh)
		}
		if ctrs[i].total != perSh {
			t.Fatalf("shard %d counter total %d, want %d (counters must be independent)", i, ctrs[i].total, perSh)
		}
	}
	if a, c, _ := r.Books(); a != shards*perSh || c != shards*perSh {
		t.Fatalf("aggregate books %d/%d, want %d", a, c, shards*perSh)
	}
	// A span refused after Close is taken back whole: the books do not
	// count it.
	late := []*sched.OpRecord{{DS: r.Shard(0).DS(0)}, {DS: r.Shard(0).DS(0)}}
	if n, err := r.Shard(0).SubmitAll(late); n != 0 || err != sched.ErrPumpClosed {
		t.Fatalf("SubmitAll after Close = (%d, %v), want (0, ErrPumpClosed)", n, err)
	}
	if a, _, _ := r.Shard(0).Books(); a != perSh {
		t.Fatalf("shard 0 accepted = %d after a refused span, want %d", a, perSh)
	}
	if b, o := r.LiveBatchStats(); o != shards*perSh || b < shards {
		t.Fatalf("LiveBatchStats = (%d batches, %d ops), want ops=%d and >=%d batches", b, o, shards*perSh, shards)
	}
	if d := r.Depth(); d != 0 {
		t.Fatalf("Depth after drain = %d, want 0", d)
	}
	if p := r.BatchPanics(); p != 0 {
		t.Fatalf("BatchPanics = %d, want 0", p)
	}
}

func TestRouterOnDoneCarriesShardID(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	r := NewRouter(Config{
		Shards:  3,
		Workers: 1,
		NewDS:   func(i int) []sched.Batched { return []sched.Batched{&counterDS{}} },
		OnDone: func(shard int, op *sched.OpRecord) {
			mu.Lock()
			seen[shard]++
			mu.Unlock()
		},
	})
	var served sync.WaitGroup
	served.Add(1)
	go func() { defer served.Done(); r.Serve() }()
	for i := 0; i < r.N(); i++ {
		sh := r.Shard(i)
		for j := 0; j < 5; j++ {
			if _, err := sh.SubmitAll([]*sched.OpRecord{{Kind: 0, DS: sh.DS(0)}}); err != nil {
				t.Fatalf("shard %d submit: %v", i, err)
			}
		}
	}
	r.Close()
	served.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < r.N(); i++ {
		if seen[i] != 5 {
			t.Fatalf("OnDone saw %d ops for shard %d, want 5 (map %v)", seen[i], i, seen)
		}
	}
}
