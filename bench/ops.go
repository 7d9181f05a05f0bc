package main

import (
	"math"
	"sort"

	"batcher/internal/rng"
	"batcher/internal/server"
)

// A workload's operations are a fixed ring of streamLen packed ops built
// from the seed; op i of the stream is ring[i&streamMask]. Every driver
// — the wire clients, the fork-join loop, every ladder rung — walks this
// one stream, so rungs and passes replay identical inputs, and the
// program under test only ever sees (kind, key, value) triples: never
// the seed, never a workload name.
const (
	streamLen  = 1 << 20
	streamMask = streamLen - 1

	opWrite = 1 << 31 // packed-op flag: insert/put (else lookup/get)
	opKey   = opWrite - 1
)

// valueOf is the value every write stores under key. Values are a pure
// function of the key, so any read anywhere can be checked without
// knowing which write it raced with: present means valueOf(key).
func valueOf(key int64) int64 { return key*2 + 1 }

// stream is one workload's generated input.
type stream struct {
	ring []uint32 // nil for the counter, which has no keys
	salt uint64   // preload membership salt, derived from the seed
}

// at unpacks op i.
func (s *stream) at(i int64) (key int64, write bool) {
	if s.ring == nil {
		return 0, true
	}
	p := s.ring[i&streamMask]
	return int64(p & opKey), p&opWrite != 0
}

// preloaded reports whether key is in the structure before the first
// op: a salted hash bit, so about half the keyspace, testable in O(1) by
// the checker ("every preloaded key must be present").
func (s *stream) preloaded(key int64) bool {
	st := uint64(key) ^ s.salt
	return rng.SplitMix64(&st)&1 == 0
}

// newStream builds the op ring for sp from seed.
func newStream(sp *spec, seed uint64) *stream {
	st := seed
	s := &stream{salt: rng.SplitMix64(&st)}
	if sp.ds == server.DSCounter {
		return s
	}
	r := rng.New(rng.SplitMix64(&st))
	var z *zipf
	if sp.zipfS > 0 {
		z = newZipf(sp.keyspace, sp.zipfS)
	}
	s.ring = make([]uint32, streamLen)
	for i := range s.ring {
		var key int64
		if z != nil {
			key = z.sample(r)
		} else {
			key = int64(r.Uint64() % uint64(sp.keyspace))
		}
		p := uint32(key)
		if r.Float64() >= sp.readFrac {
			p |= opWrite
		}
		s.ring[i] = p
	}
	return s
}

// zipf samples ranks with probability ∝ 1/rank^s from a CDF table and
// scatters rank i to key (i·stride) mod keyspace, so hot keys spread
// over the keyspace (and so over shards) instead of clustering at 0.
type zipf struct {
	cdf      []float64
	keyspace int64
	stride   int64
}

func newZipf(keyspace int64, s float64) *zipf {
	z := &zipf{cdf: make([]float64, keyspace), keyspace: keyspace}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	// An odd stride near keyspace/φ is coprime with the power-of-two
	// keyspaces used here, so rank → key is a bijection.
	z.stride = int64(float64(keyspace)*0.6180339887498949) | 1
	return z
}

func (z *zipf) sample(r *rng.Rand) int64 {
	rank := sort.SearchFloat64s(z.cdf, r.Float64())
	if rank >= len(z.cdf) {
		rank = len(z.cdf) - 1
	}
	return (int64(rank) * z.stride) % z.keyspace
}

// arrivals is a seeded Poisson arrival schedule: exponential gaps with
// the given mean, in nanoseconds.
type arrivals struct {
	r    *rng.Rand
	mean float64
}

func (a *arrivals) gap() int64 {
	u := a.r.Float64()
	return int64(-math.Log(1-u)*a.mean) + 1
}
