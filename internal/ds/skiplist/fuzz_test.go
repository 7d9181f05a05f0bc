package skiplist

import (
	"testing"

	"batcher/internal/sched"
)

// FuzzSeqAgainstMap drives the sequential skip list with a fuzzer-chosen
// operation tape and checks it against a map oracle. Each byte triple
// encodes (op, key): op = b0 % 4, key = b1 | b2<<8 (mod 512) - 256, so
// keys straddle the head's key 0. Op 3 ignores the key and inserts one
// above the last key inserted, which links behind the finger unless a
// delete in between has cleared it.
func FuzzSeqAgainstMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 5, 0, 2, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 9, 0, 3, 0, 0, 3, 0, 0, 2, 11, 0, 3, 0, 0, 0, 10, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		l := NewList(99)
		m := map[int64]int64{}
		var last int64
		for i := 0; i+2 < len(tape); i += 3 {
			op := tape[i] % 4
			k := int64(tape[i+1]) | int64(tape[i+2])<<8
			k = k%512 - 256
			if op == 3 {
				k = last + 1
			}
			switch op {
			case 0, 3:
				_, existed := m[k]
				if l.Insert(k, int64(i)) == existed {
					t.Fatalf("Insert(%d) new-flag mismatch", k)
				}
				m[k] = int64(i)
				last = k
			case 1:
				wv, wok := m[k]
				gv, gok := l.Contains(k)
				if gok != wok || (wok && gv != wv) {
					t.Fatalf("Contains(%d) = %d,%v want %d,%v", k, gv, gok, wv, wok)
				}
			case 2:
				_, existed := m[k]
				if l.Delete(k) != existed {
					t.Fatalf("Delete(%d) mismatch", k)
				}
				delete(m, k)
			}
		}
		if l.Len() != len(m) {
			t.Fatalf("Len = %d want %d", l.Len(), len(m))
		}
		if err := l.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzBatchedParallelInserts feeds fuzzer-chosen keys to the batched list
// in parallel and checks the final key set.
func FuzzBatchedParallelInserts(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	// Duplicates that meet inside one batch, and inside one search chunk.
	f.Add([]byte{5, 5, 5, 5, 9, 9, 5, 5})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{0, 255, 0, 255, 128, 128, 1, 254, 1, 254, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			t.Skip()
		}
		keys := make([]int64, len(data))
		want := map[int64]bool{}
		for i, b := range data {
			keys[i] = int64(b)
			want[int64(b)] = true
		}
		b := NewBatched(7)
		rt := sched.New(sched.Config{Workers: 4, Seed: 11})
		rt.Run(func(c *sched.Ctx) {
			c.For(0, len(keys), 1, func(cc *sched.Ctx, i int) {
				b.Insert(cc, keys[i], keys[i])
			})
		})
		if b.List().Len() != len(want) {
			t.Fatalf("Len = %d want %d", b.List().Len(), len(want))
		}
		for _, k := range b.List().Keys() {
			if !want[k] {
				t.Fatalf("unexpected key %d", k)
			}
		}
		if err := b.List().checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
