package main

import (
	"fmt"
	"math/bits"

	"batcher/internal/server"
)

// checker verifies one driver's results as they arrive. Each driver
// goroutine owns one; merge combines them when the run is over.
type checker struct {
	sp *spec
	st *stream

	// Counter: every increment returns the running total, so across all
	// drivers the returned values must be exactly 1..n, each once — a
	// linearizability witness that costs one bit per op.
	seen []uint64

	// Keyed structures: a sample of acknowledged writes, read back after
	// the run.
	acked  []int64
	writes int64
}

// maxCount bounds the counter values a checker can witness: more
// increments than any run here can complete.
const maxCount = 1 << 26

func newChecker(sp *spec, st *stream) checker {
	k := checker{sp: sp, st: st}
	if sp.ds == server.DSCounter {
		k.seen = make([]uint64, maxCount/64)
	} else {
		k.acked = make([]int64, 0, 4096)
	}
	return k
}

// result checks one completed operation: its key as echoed, whether it
// was a write, its integer result and its boolean result.
func (k *checker) result(key int64, write bool, res int64, ok bool) bool {
	if k.sp.ds == server.DSCounter {
		if res < 1 || res >= maxCount || k.seen[res/64]&(1<<(res%64)) != 0 {
			return false
		}
		k.seen[res/64] |= 1 << (res % 64)
		return true
	}
	if write {
		if k.writes%sampleEvery == 0 && len(k.acked) < cap(k.acked) {
			k.acked = append(k.acked, key)
		}
		k.writes++
		return true
	}
	if ok {
		return res == valueOf(key)
	}
	return !k.st.preloaded(key) // absent is legal only for a key that was never preloaded
}

// response checks a wire response against the request it answers.
func (k *checker) response(r *server.Response, f inflight) bool {
	if r.Err() {
		return false
	}
	if k.sp.ds != server.DSCounter && r.Key != f.key {
		return false
	}
	return k.result(f.key, f.write, r.Res, r.OK())
}

// mergeCounters checks that the drivers' witnessed counter values are
// disjoint and together form 1..n with no gap, and returns n.
func mergeCounters(ks []*checker) (int64, error) {
	all := make([]uint64, maxCount/64)
	var n int64
	for _, k := range ks {
		for i, w := range k.seen {
			if all[i]&w != 0 {
				return 0, fmt.Errorf("counter value near %d returned twice", i*64)
			}
			all[i] |= w
			n += int64(bits.OnesCount64(w))
		}
	}
	// Values 1..n set and nothing else: bit 0 clear, then n ones, then zeros.
	for v := int64(1); v <= n; v++ {
		if all[v/64]&(1<<(v%64)) == 0 {
			return 0, fmt.Errorf("counter values have a gap at %d of %d", v, n)
		}
	}
	return n, nil
}
