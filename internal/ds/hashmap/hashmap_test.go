package hashmap

import (
	"testing"

	"batcher/internal/rng"
	"batcher/internal/sched"
)

func runOn(p int, f func(c *sched.Ctx)) {
	rt := sched.New(sched.Config{Workers: p, Seed: 71})
	rt.Run(f)
}

func TestPutGetDel(t *testing.T) {
	b := NewBatched(1)
	runOn(2, func(c *sched.Ctx) {
		if !b.Put(c, 5, 50) {
			t.Error("first Put not new")
		}
		if b.Put(c, 5, 55) {
			t.Error("dup Put new")
		}
		v, ok := b.Get(c, 5)
		if !ok || v != 55 {
			t.Errorf("Get = %d,%v", v, ok)
		}
		if _, ok := b.Get(c, 6); ok {
			t.Error("Get absent key ok")
		}
		if !b.Del(c, 5) || b.Del(c, 5) {
			t.Error("Del semantics broken")
		}
	})
	if b.Len() != 0 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestParallelPuts(t *testing.T) {
	for _, p := range []int{1, 4, 8} {
		b := NewBatched(2)
		const n = 5000
		runOn(p, func(c *sched.Ctx) {
			c.For(0, n, 1, func(cc *sched.Ctx, i int) {
				b.Put(cc, int64(i), int64(i*2))
			})
		})
		if b.Len() != n {
			t.Fatalf("P=%d: Len = %d", p, b.Len())
		}
		if b.Rebuilds == 0 {
			t.Fatalf("P=%d: no rebuilds for %d keys", p, n)
		}
		runOn(p, func(c *sched.Ctx) {
			c.For(0, n, 1, func(cc *sched.Ctx, i int) {
				v, ok := b.Get(cc, int64(i))
				if !ok || v != int64(i*2) {
					t.Errorf("Get(%d) = %d,%v", i, v, ok)
				}
			})
		})
	}
}

func TestShrinkOnMassDelete(t *testing.T) {
	b := NewBatched(3)
	const n = 4000
	runOn(4, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) { b.Put(cc, int64(i), 0) })
	})
	grown := b.Buckets()
	runOn(4, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) { b.Del(cc, int64(i)) })
	})
	if b.Len() != 0 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Buckets() >= grown {
		t.Fatalf("buckets did not shrink: %d -> %d", grown, b.Buckets())
	}
}

func TestSequentialChainAgainstMapOracle(t *testing.T) {
	b := NewBatched(4)
	m := map[int64]int64{}
	r := rng.New(7)
	runOn(4, func(c *sched.Ctx) {
		for i := 0; i < 5000; i++ {
			k := r.Int63() % 600
			switch r.Intn(3) {
			case 0:
				_, existed := m[k]
				if b.Put(c, k, int64(i)) == existed {
					t.Fatalf("op %d: Put(%d) mismatch", i, k)
				}
				m[k] = int64(i)
			case 1:
				wv, wok := m[k]
				gv, gok := b.Get(c, k)
				if gok != wok || (wok && gv != wv) {
					t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, gv, gok, wv, wok)
				}
			case 2:
				_, existed := m[k]
				if b.Del(c, k) != existed {
					t.Fatalf("op %d: Del(%d) mismatch", i, k)
				}
				delete(m, k)
			}
		}
	})
	if b.Len() != len(m) {
		t.Fatalf("Len = %d want %d", b.Len(), len(m))
	}
}

func TestSameKeyCollisionsWithinBatch(t *testing.T) {
	// All ops hit one key: within any batch they share a bucket group and
	// must apply in a consistent serial order.
	b := NewBatched(5)
	const n = 800
	news := 0
	newsArr := make([]bool, n)
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			newsArr[i] = b.Put(cc, 42, int64(i))
		})
	})
	for _, f := range newsArr {
		if f {
			news++
		}
	}
	if news != 1 {
		t.Fatalf("%d Puts of one key reported new", news)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestMixedParallelConservation(t *testing.T) {
	b := NewBatched(6)
	const n = 3000
	runOn(8, func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			k := int64(i % 300)
			switch i % 3 {
			case 0:
				b.Put(cc, k, int64(i))
			case 1:
				b.Get(cc, k)
			case 2:
				b.Del(cc, k)
			}
		})
	})
	// Every surviving key retrievable; count matches Len.
	count := 0
	runOn(2, func(c *sched.Ctx) {
		for k := int64(0); k < 300; k++ {
			if _, ok := b.Get(c, k); ok {
				count++
			}
		}
	})
	if count != b.Len() {
		t.Fatalf("Len = %d but %d keys retrievable", b.Len(), count)
	}
}

func TestManyRunsStable(t *testing.T) {
	b := NewBatched(8)
	for round := 0; round < 10; round++ {
		runOn(4, func(c *sched.Ctx) {
			c.For(0, 500, 1, func(cc *sched.Ctx, i int) {
				if round%2 == 0 {
					b.Put(cc, int64(i), int64(round))
				} else {
					b.Del(cc, int64(i))
				}
			})
		})
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after balanced rounds", b.Len())
	}
}

// TestBatchesAgainstMapOracle drives RunBatch directly with random
// batches, served-size (1..P operations) and bulk (512), on runtimes of
// P = 1, 2 and 4 workers, and checks every result against a map applied
// one operation at a time in compaction order. A few hot keys put
// same-key Put/Get/Del runs inside one batch. A Put-heavy phase grows
// the table through several doublings and a Del-heavy phase shrinks it
// again, and on P > 1 the rebuilds run in parallel.
func TestBatchesAgainstMapOracle(t *testing.T) {
	const space, bulk = 6000, 512
	for _, p := range []int{1, 2, 4} {
		b := NewBatched(uint64(20 + p))
		m := map[int64]int64{}
		r := rng.New(uint64(30 + p))
		recs := make([]sched.OpRecord, bulk)
		ops := make([]*sched.OpRecord, bulk)
		for i := range recs {
			ops[i] = &recs[i]
		}
		peak := 0
		batch := func(c *sched.Ctx, k, putPct, delPct int) {
			for i := 0; i < k; i++ {
				key := r.Int63() % space
				if r.Intn(4) == 0 {
					key = r.Int63() % 4 // hot keys
				}
				kind := OpGet
				switch x := r.Intn(100); {
				case x < putPct:
					kind = OpPut
				case x < putPct+delPct:
					kind = OpDel
				}
				recs[i] = sched.OpRecord{DS: b, Kind: kind, Key: key, Val: r.Int63()}
			}
			b.RunBatch(c, ops[:k])
			for i, op := range ops[:k] {
				want, present := m[op.Key]
				switch op.Kind {
				case OpPut:
					if op.Ok == present {
						t.Fatalf("P=%d op %d of %d: Put(%d) Ok = %v, key present before: %v", p, i, k, op.Key, op.Ok, present)
					}
					m[op.Key] = op.Val
				case OpGet:
					if op.Ok != present || (present && op.Res != want) {
						t.Fatalf("P=%d op %d of %d: Get(%d) = %d,%v want %d,%v", p, i, k, op.Key, op.Res, op.Ok, want, present)
					}
				case OpDel:
					if op.Ok != present {
						t.Fatalf("P=%d op %d of %d: Del(%d) Ok = %v, want %v", p, i, k, op.Key, op.Ok, present)
					}
					delete(m, op.Key)
				}
			}
			if b.Len() != len(m) {
				t.Fatalf("P=%d: Len = %d want %d", p, b.Len(), len(m))
			}
			peak = max(peak, b.Buckets())
		}
		runOn(p, func(c *sched.Ctx) {
			for _, phase := range []struct{ putPct, delPct, rounds int }{{70, 10, 40}, {5, 75, 60}} {
				for round := 0; round < phase.rounds; round++ {
					batch(c, bulk, phase.putPct, phase.delPct)
					for s := 0; s < 20; s++ {
						batch(c, 1+r.Intn(p), phase.putPct, phase.delPct)
					}
				}
			}
		})
		if peak < 1024 || b.Buckets() >= peak {
			t.Fatalf("P=%d: buckets peaked at %d and ended at %d; want a grow past 1024 and a shrink", p, peak, b.Buckets())
		}
	}
}

// TestRunBatchZeroAllocs pins that a warmed-up RunBatch allocates
// nothing on Gets and on Puts over existing keys, at one operation per
// batch, at P and at 256.
func TestRunBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const p = 4
	b := NewBatched(9)
	runOn(1, func(c *sched.Ctx) {
		for k := int64(0); k < 1000; k++ {
			b.Put(c, k, k)
		}
	})
	for name, kind := range map[string]sched.OpKind{"Get": OpGet, "Put": OpPut} {
		for _, k := range []int{1, p, 256} {
			recs := make([]sched.OpRecord, k)
			ops := make([]*sched.OpRecord, k)
			for i := range recs {
				recs[i] = sched.OpRecord{DS: b, Kind: kind, Key: int64(97*i) % 1000, Val: 1}
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
}

// BenchmarkRunBatch times the batched operation in its two regimes:
// bulk-load is one fresh map filled to 1<<17 keys by 512-op Put
// batches on one worker (ns/op and allocs/op are per load, ns/key per
// key); served is a 2-op batch, 90% Get and 10% Put, over a map of
// 1<<17 keys on a 2-worker runtime.
func BenchmarkRunBatch(b *testing.B) {
	const keys, chunk = 1 << 17, 512
	b.Run("bulk-load", func(b *testing.B) {
		recs := make([]sched.OpRecord, chunk)
		ops := make([]*sched.OpRecord, chunk)
		for i := range recs {
			ops[i] = &recs[i]
		}
		b.ReportAllocs()
		sched.New(sched.Config{Workers: 1, Seed: 71}).Run(func(c *sched.Ctx) {
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				m := NewBatched(1)
				for lo := int64(0); lo < keys; lo += chunk {
					for i := range recs {
						recs[i] = sched.OpRecord{DS: m, Kind: OpPut, Key: lo + int64(i), Val: lo}
					}
					m.RunBatch(c, ops)
				}
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
	})
	b.Run("served", func(b *testing.B) {
		m := NewBatched(2)
		var recs [2]sched.OpRecord
		ops := []*sched.OpRecord{&recs[0], &recs[1]}
		r := rng.New(3)
		b.ReportAllocs()
		sched.New(sched.Config{Workers: 2, Seed: 71}).Run(func(c *sched.Ctx) {
			for lo := int64(0); lo < keys; lo += 2 {
				recs[0] = sched.OpRecord{DS: m, Kind: OpPut, Key: lo}
				recs[1] = sched.OpRecord{DS: m, Kind: OpPut, Key: lo + 1}
				m.RunBatch(c, ops)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range recs {
					recs[i] = sched.OpRecord{DS: m, Kind: OpGet, Key: r.Int63() % keys}
					if r.Intn(10) == 0 {
						recs[i].Kind = OpPut
					}
				}
				m.RunBatch(c, ops)
			}
		})
	})
}
