// Package faultinject is the failure-containment test harness: hostile
// batched structures to splice into a live runtime, and hostile wire
// clients to aim at a live batcherd.
//
// The structure wrappers implement sched.Batched around an inner
// structure and misbehave on command — panic on a poison key, panic
// every Nth batch, stall mid-batch. They exist to prove the containment
// contract from the serving side: a BOP that panics must cost exactly
// its own batch group (those operations come back with Err / FlagErr)
// while every other group, connection, and batch proceeds. Servers
// splice them in through server.Config.WrapDS; direct runtime tests
// just pass them to Batchify.
//
// The wire clients misbehave below the protocol: a torn frame (header
// promising more bytes than ever arrive) checks the idle deadline, an
// oversized length prefix checks decode-error accounting, and a
// slowloris writer (requests in, responses never read) checks the
// write-stall deadline. Each models a real failure — a crashed peer, a
// fuzzer, a stalled consumer — that a serving edge must absorb without
// leaking window slots.
package faultinject

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"batcher/internal/sched"
	"batcher/internal/server"
)

// PanicValue is the distinctive value injected panics carry, so tests
// can assert a recovered panic came from this package and not a real
// bug in the structure under test.
const PanicValue = "faultinject: injected BOP panic"

// Panicker wraps a batched structure and panics — before touching the
// inner structure, so its state stays consistent — whenever a batch
// contains an operation with the poison key. All other batches are
// delegated unchanged.
type Panicker struct {
	Inner  sched.Batched
	Poison int64
	// Panics counts injected panics (readable live).
	Panics atomic.Int64
}

// RunBatch implements sched.Batched.
func (p *Panicker) RunBatch(c *sched.Ctx, ops []*sched.OpRecord) {
	for _, op := range ops {
		if op.Key == p.Poison {
			p.Panics.Add(1)
			panic(PanicValue)
		}
	}
	p.Inner.RunBatch(c, ops)
}

// Flaky wraps a batched structure and panics on every Nth batch
// (deterministically, counting from the first call), after delegating
// the other N-1. It models an intermittently failing structure: most
// traffic succeeds, so tests can check that failures interleave with
// successes on the same structure without wedging it.
type Flaky struct {
	Inner  sched.Batched
	EveryN int64
	calls  atomic.Int64
	// Panics counts injected panics (readable live).
	Panics atomic.Int64
}

// RunBatch implements sched.Batched.
func (f *Flaky) RunBatch(c *sched.Ctx, ops []*sched.OpRecord) {
	if n := f.calls.Add(1); f.EveryN > 0 && n%f.EveryN == 0 {
		f.Panics.Add(1)
		panic(PanicValue)
	}
	f.Inner.RunBatch(c, ops)
}

// Slow wraps a batched structure and sleeps before each batch: a
// stand-in for an expensive BOP that gives a shard a known, low
// capacity (roughly Workers/Delay ops/s once batches fill). Because at
// most one batch runs at a time (Invariant 1), the sleep stalls the
// whole batching pipeline, so real load backs up into a standing
// queue. The server's brownout tests (TestBrownout*) and its overload
// benchmark (BenchmarkServerOverload) install it on every hashmap
// shard through server.Config.WrapDS.
type Slow struct {
	Inner sched.Batched
	Delay time.Duration
}

// RunBatch implements sched.Batched.
func (s *Slow) RunBatch(c *sched.Ctx, ops []*sched.OpRecord) {
	time.Sleep(s.Delay)
	s.Inner.RunBatch(c, ops)
}

// SendTornFrame dials addr and writes a frame header promising a full
// request body but delivers only half of it, then leaves the
// connection open and silent. The server's reader blocks inside
// ReadFrame holding a window slot; only its idle deadline can free it.
// The caller owns (and should eventually Close) the returned
// connection.
func SendTornFrame(addr string) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	frame := server.AppendRequest(nil, server.Request{ID: 1, DS: server.DSCounter, Val: 1})
	if _, err := nc.Write(frame[:len(frame)/2]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("faultinject: torn write: %w", err)
	}
	return nc, nil
}

// SendOversizedFrame dials addr and writes a length prefix far beyond
// the protocol's frame limit, then blocks until the server closes the
// connection (a read returning EOF/reset). The server must count it as
// a decode error, not crash or allocate the claimed length.
func SendOversizedFrame(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := nc.Write(hdr[:]); err != nil {
		return fmt.Errorf("faultinject: oversized write: %w", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = nc.Read(hdr[:])
	if err == nil {
		return fmt.Errorf("faultinject: server answered an oversized frame")
	}
	return nil // connection dropped, as required
}

// Slowloris dials addr and writes n valid requests without ever
// reading a response, so the server's unread responses pile up until
// its send path blocks; the write-stall deadline must break the
// connection and reclaim its window slots. The requests are stats
// reads: their payload-bearing responses (hundreds of bytes each, vs
// 25 for a plain result) overrun the kernel's send-buffer autotuning —
// which on Linux absorbs megabytes on loopback — with a test-sized n.
// The client's own receive buffer is clamped small for the same
// reason. The caller owns (and should eventually Close) the returned
// connection. The write itself is expected to error once the server
// tears the connection down mid-flood; that error is returned
// alongside the live connection so callers can ignore it.
func Slowloris(addr string, n int) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(1 << 12)
	}
	var buf []byte
	for i := 0; i < n; i++ {
		buf = server.AppendRequest(buf[:0], server.Request{
			ID: uint64(i + 1), DS: server.DSStats,
		})
		if _, err := nc.Write(buf); err != nil {
			return nc, fmt.Errorf("faultinject: slowloris write %d: %w", i, err)
		}
	}
	return nc, nil
}
