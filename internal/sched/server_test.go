package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serverSumDS mirrors sumDS but counts max batch size for Invariant 2.
type serverSumDS struct {
	total    int64
	maxBatch int
	active   atomic.Int32
	viol     atomic.Int32
}

func (s *serverSumDS) RunBatch(ctx *Ctx, ops []*OpRecord) {
	if s.active.Add(1) != 1 {
		s.viol.Add(1)
	}
	if len(ops) > s.maxBatch {
		s.maxBatch = len(ops)
	}
	for _, op := range ops {
		op.Res = s.total
		s.total += op.Val
		op.Ok = true
	}
	s.active.Add(-1)
}

func TestServerSingleClient(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2, Seed: 1})
	ds := &serverSumDS{}
	op := &OpRecord{DS: ds, Val: 7}
	s.Invoke(op)
	s.Close()
	if !op.Ok || ds.total != 7 {
		t.Fatalf("op.Ok=%v total=%d", op.Ok, ds.total)
	}
}

// invokeFlood runs clients goroutines of per Invoke(+1) calls each
// against s, closes it, and checks the linearizability witness: every
// call returned Ok, and the pre-totals they saw are exactly
// 0..clients*per-1 — nothing dropped, nothing executed twice.
func invokeFlood(t *testing.T, s *Server, ds *serverSumDS, clients, per int) {
	t.Helper()
	results := make([][]int64, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]int64, per)
			for i := 0; i < per; i++ {
				op := &OpRecord{DS: ds, Val: 1}
				s.Invoke(op)
				if !op.Ok || op.Err != nil {
					t.Errorf("op returned Ok=%v Err=%v", op.Ok, op.Err)
					return
				}
				results[g][i] = op.Res
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	if ds.total != int64(clients*per) {
		t.Fatalf("total = %d, want %d", ds.total, clients*per)
	}
	if ds.viol.Load() != 0 {
		t.Fatal("Invariant 1 violated")
	}
	seen := make([]bool, clients*per)
	for _, rs := range results {
		for _, r := range rs {
			if r < 0 || r >= int64(clients*per) || seen[r] {
				t.Fatalf("pre-total %d repeated or out of range: the sequence has a gap", r)
			}
			seen[r] = true
		}
	}
}

func TestServerManyGoroutines(t *testing.T) {
	invokeFlood(t, NewServer(ServerConfig{Workers: 4, Seed: 2}), &serverSumDS{}, 16, 200)
}

func TestServerDefaultCapIsP(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2, Seed: 4})
	ds := &serverSumDS{}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s.Invoke(&OpRecord{DS: ds, Val: 1})
			}
		}()
	}
	wg.Wait()
	s.Close()
	if ds.maxBatch > 2 {
		t.Fatalf("batch of %d ops exceeded P=2", ds.maxBatch)
	}
}

func TestServerMultipleStructures(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 4, Seed: 5})
	a, b := &serverSumDS{}, &serverSumDS{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ds := Batched(a)
				if (g+i)%2 == 0 {
					ds = b
				}
				s.Invoke(&OpRecord{DS: ds, Val: 1})
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	if a.total+b.total != 800 {
		t.Fatalf("totals %d + %d", a.total, b.total)
	}
	if a.viol.Load() != 0 || b.viol.Load() != 0 {
		t.Fatal("Invariant 1 violated")
	}
}

func TestServerParallelBOP(t *testing.T) {
	// A BOP that forks: all P workers should be able to help.
	s := NewServer(ServerConfig{Workers: 4, Seed: 6})
	ds := &forkyDS{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Invoke(&OpRecord{DS: ds, Val: 1})
			}
		}()
	}
	wg.Wait()
	s.Close()
	if ds.total.Load() != 400 {
		t.Fatalf("total = %d", ds.total.Load())
	}
}

func TestServerInvokeNilDSPanics(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1, Seed: 7})
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Invoke(&OpRecord{})
}

func TestServerMetricsAfterClose(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2, Seed: 8})
	ds := &serverSumDS{}
	for i := 0; i < 10; i++ {
		s.Invoke(&OpRecord{DS: ds, Val: 1})
	}
	s.Close()
	m := s.Metrics()
	if m.BatchedOps != 10 {
		t.Fatalf("BatchedOps = %d", m.BatchedOps)
	}
	if m.BatchesExecuted == 0 {
		t.Fatal("no batches recorded")
	}
}

// TestServerSaturationBlocksNeverDrops floods a P=2 server (8·P = 16
// slots) from 64 goroutines: far more concurrent Invokes than it admits
// at once, so most of them wait for a slot.
// Every call must return, the counter's pre-totals must be gapless, and
// the BOP must only ever see <= P ops, one batch at a time.
func TestServerSaturationBlocksNeverDrops(t *testing.T) {
	ds := &serverSumDS{}
	invokeFlood(t, NewServer(ServerConfig{Workers: 2, Seed: 9}), ds, 64, 1000)
	if ds.maxBatch > 2 {
		t.Fatalf("batch of %d ops exceeded P=2", ds.maxBatch)
	}
}

// TestServerCloseRacesInvoke is the late-Invoke hang witness: Close runs
// while goroutines are still invoking. Each call must either complete
// (its op executed exactly once) or panic with the documented message —
// and all of them within the deadline, none parked forever. 32 callers
// exceed the 8·P slots (16 at P=2), so some are still waiting for admission
// when Close lands: those are refused like late callers, as Close's doc
// says; every op that was submitted is drained (executed == returned).
func TestServerCloseRacesInvoke(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewServer(ServerConfig{Workers: 2, Seed: uint64(10 + round)})
		ds := &serverSumDS{}
		var completed, refused atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if r != "sched: Invoke on closed Server" {
							t.Errorf("unexpected panic %v", r)
						}
						refused.Add(1)
					}
				}()
				for {
					op := &OpRecord{DS: ds, Val: 1}
					s.Invoke(op)
					if !op.Ok {
						t.Error("Invoke returned before its op executed")
					}
					completed.Add(1)
				}
			}()
		}
		for completed.Load() < 100 {
			time.Sleep(100 * time.Microsecond)
		}
		s.Close()
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Invokes still parked 10s after Close (%d completed, %d refused of 32 goroutines)",
				round, completed.Load(), refused.Load())
		}
		if refused.Load() != 32 {
			t.Fatalf("round %d: %d goroutines saw the closed-Server panic, want 32", round, refused.Load())
		}
		// Close drained everything it accepted: executed == returned.
		if ds.total != completed.Load() {
			t.Fatalf("round %d: structure executed %d ops, Invoke returned %d", round, ds.total, completed.Load())
		}
	}
}

// TestServerContainsBatchPanic: a panicking BOP used to escape the serve
// goroutine and kill the process; through the pump it is contained. The
// poisoned Invoke returns with Err set and the server keeps serving.
func TestServerContainsBatchPanic(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 2, Seed: 11})
	ds := &keyPanicDS{poison: 7}
	bad := &OpRecord{DS: ds, Key: 7, Val: 1}
	s.Invoke(bad)
	var bp *BatchPanicError
	if !errors.As(bad.Err, &bp) || bp.Recovered != "poison key" {
		t.Fatalf("poisoned op Err = %v, want *BatchPanicError(poison key)", bad.Err)
	}
	for i := int64(1); i <= 20; i++ {
		op := &OpRecord{DS: ds, Key: 1, Val: 1}
		s.Invoke(op)
		if op.Err != nil || !op.Ok || op.Res != i {
			t.Fatalf("op %d after the panic: Err=%v Ok=%v Res=%d", i, op.Err, op.Ok, op.Res)
		}
	}
	s.Close()
	if got := s.pump.Runtime().BatchPanics(); got != 1 {
		t.Fatalf("BatchPanics = %d, want 1", got)
	}
}
