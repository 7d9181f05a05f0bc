package sched

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWakerContention hammers the park/unpark protocol from many
// producers and consumers at once: producers publish work items and call
// the broadcast wake, consumers claim items or park, consumer i on slot
// i. The park-slot protocol promises no lost wakeups — every published
// item is eventually consumed — which this test checks by requiring the
// whole workload to finish well inside a generous deadline. Run under
// -race it also pins the protocol's happens-before edges.
func TestWakerContention(t *testing.T) {
	const (
		producers   = 8
		consumers   = 8
		perProducer = 5000
	)
	var k waker
	k.init(consumers)

	var (
		queue         atomic.Int64 // published, unclaimed work items
		consumed      atomic.Int64
		doneProducing atomic.Bool
	)

	var prodWG sync.WaitGroup
	for i := 0; i < producers; i++ {
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			for j := 0; j < perProducer; j++ {
				// Publish, then wake: the same order every real
				// producer site in the scheduler uses.
				queue.Add(1)
				k.wake()
			}
		}()
	}
	go func() {
		prodWG.Wait()
		doneProducing.Store(true)
		k.wake()
	}()

	var consWG sync.WaitGroup
	for i := 0; i < consumers; i++ {
		consWG.Add(1)
		go func(slot int) {
			defer consWG.Done()
			for {
				claimed := false
				for {
					v := queue.Load()
					if v <= 0 {
						break
					}
					if queue.CompareAndSwap(v, v-1) {
						consumed.Add(1)
						claimed = true
						break
					}
				}
				if claimed {
					continue
				}
				if doneProducing.Load() && queue.Load() == 0 {
					return
				}
				k.beginPark(slot)
				if queue.Load() > 0 || doneProducing.Load() {
					k.cancelPark(slot)
					continue
				}
				k.sleep(slot)
			}
		}(i)
	}

	finished := make(chan struct{})
	go func() { consWG.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("lost wakeup: consumed %d of %d items before deadline",
			consumed.Load(), producers*perProducer)
	}
	if got := consumed.Load(); got != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", got, producers*perProducer)
	}
	checkWakerQuiet(t, &k)
}

// TestWakerParkStorm drives pure park/unpark churn with no work queue
// at all for a fixed duration: parkers cycle through beginPark/sleep on
// their own slots while wakers broadcast. Every real wake() in the
// scheduler follows publishing an event, so the wakers yield between
// calls. The test terminates only if (a) no parker ever misses a wake
// between beginPark and blocking on its token — the lost-wakeup window
// the slot protocol closes — and (b) the stop flag behaves like any
// published event: stored before a final wake, re-checked by parkers
// after beginPark.
func TestWakerParkStorm(t *testing.T) {
	const wakers, parkers = 4, 4
	var k waker
	k.init(parkers)

	var stop atomic.Bool

	var wakerWG sync.WaitGroup
	for i := 0; i < wakers; i++ {
		wakerWG.Add(1)
		go func() {
			defer wakerWG.Done()
			for !stop.Load() {
				k.wake()
				goruntime.Gosched()
			}
			k.wake()
		}()
	}

	var parkWG sync.WaitGroup
	var parksTaken atomic.Int64
	for i := 0; i < parkers; i++ {
		parkWG.Add(1)
		go func(slot int) {
			defer parkWG.Done()
			for {
				k.beginPark(slot)
				if stop.Load() {
					k.cancelPark(slot)
					return
				}
				k.sleep(slot)
				parksTaken.Add(1)
			}
		}(i)
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	k.wake() // stop published above; wake any parker already asleep

	finished := make(chan struct{})
	go func() { parkWG.Wait(); wakerWG.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("park storm wedged after %d parks (lost wakeup)", parksTaken.Load())
	}
	if parksTaken.Load() == 0 {
		t.Fatal("no parks completed; storm did not exercise the protocol")
	}
	checkWakerQuiet(t, &k)
}

// TestWakerTargetedWake races the single-slot wake against cancelPark.
// Each producer serves its own consumers in ping-pong: it publishes one
// event addressed to consumer i and wakes slot i alone, and publishes
// i's next event only once i has claimed the last one. So every wake is
// the only one that can release its consumer, and a lost wake wedges
// the test. Consumers claim their own events or park on their own slots,
// re-checking after beginPark, so parks race producers and retract; a
// token left behind by a cancelPark that lost its CAS would make the
// next producer's send block. Afterwards no slot may be parked or hold
// a token.
func TestWakerTargetedWake(t *testing.T) {
	const (
		producers   = 4
		consumers   = 8 // consumer i is served by producer i%producers
		perConsumer = 3000
	)
	var k waker
	k.init(consumers)

	var events [consumers]atomic.Int64 // published, unclaimed: 0 or 1
	var claimed [consumers]atomic.Int64

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var sent [consumers]int
			for left := consumers / producers; left > 0; {
				idle := true
				for i := p; i < consumers; i += producers {
					if sent[i] == perConsumer || events[i].Load() != 0 {
						continue
					}
					// Publish, then wake the one consumer it concerns.
					events[i].Store(1)
					k.wakeOne(i)
					idle = false
					if sent[i]++; sent[i] == perConsumer {
						left--
					}
				}
				if idle {
					goruntime.Gosched()
				}
			}
		}(p)
	}
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ev := &events[slot]
			for claimed[slot].Load() < perConsumer {
				if ev.Load() != 0 {
					claimed[slot].Add(1)
					ev.Store(0)
					continue
				}
				k.beginPark(slot)
				if ev.Load() != 0 {
					k.cancelPark(slot)
					continue
				}
				k.sleep(slot)
			}
		}(i)
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		for i := range claimed {
			t.Errorf("consumer %d claimed %d of %d", i, claimed[i].Load(), perConsumer)
		}
		t.Fatal("lost targeted wakeup")
	}
	checkWakerQuiet(t, &k)
}

// TestWakerMixedWake mixes the two kinds of wake, as the scheduler
// does: targeted wakes keep one slot cycling through park and wake while
// broadcast wakes are the only signal for another. A producer waits
// until the broadcast consumer has parked, publishes its next event and
// calls the broadcast wake once, so a broadcast that skips the parked
// consumer wedges it. Meanwhile a churner parks on its own slot over and
// over and two targeted wakers race to wake it, which moves the parked
// count under the broadcasts' feet. If beginPark marked a slot parked
// before counting it, a wakeOne could decrement first, the count would
// read 0 with the consumer parked, and the broadcast would skip the scan:
// the test hangs. It ends like a runtime's stop: a flag, then one final
// broadcast.
func TestWakerMixedWake(t *testing.T) {
	const (
		consumer = 0
		churner  = 1
		events   = 10000
	)
	var k waker
	k.init(2)

	var (
		event   atomic.Int64 // published, unclaimed: 0 or 1
		claimed atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() { // the broadcast producer
		defer wg.Done()
		for n := 0; n < events; n++ {
			for event.Load() != 0 || k.slots[consumer].state.Load() != slotParked {
				if claimed.Load() == events {
					return
				}
				goruntime.Gosched()
			}
			event.Store(1)
			k.wake()
		}
	}()
	wg.Add(1)
	go func() { // the broadcast consumer
		defer wg.Done()
		for claimed.Load() < events {
			if event.Load() != 0 {
				claimed.Add(1)
				event.Store(0)
				continue
			}
			k.beginPark(consumer)
			if event.Load() != 0 {
				k.cancelPark(consumer)
				continue
			}
			k.sleep(consumer)
		}
	}()

	var churnWG sync.WaitGroup
	for i := 0; i < 2; i++ { // the targeted wakers
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for !stop.Load() {
				k.wakeOne(churner)
				goruntime.Gosched() // as in TestWakerParkStorm
			}
		}()
	}
	churnWG.Add(1)
	go func() { // the churner
		defer churnWG.Done()
		for {
			k.beginPark(churner)
			if stop.Load() {
				k.cancelPark(churner)
				return
			}
			k.sleep(churner)
		}
	}()

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		stop.Store(true)
		k.wake() // stop published above: the one final broadcast
		churnWG.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("lost broadcast wakeup: consumer claimed %d of %d, parked count %d",
			claimed.Load(), events, k.parked.Load())
	}
	checkWakerQuiet(t, &k)
}

// checkWakerQuiet asserts that every park cycle completed: no slot is
// parked and no token is left in a slot's semaphore.
func checkWakerQuiet(t *testing.T, k *waker) {
	t.Helper()
	if n := k.parked.Load(); n != 0 {
		t.Errorf("parked count %d after all consumers finished, want 0", n)
	}
	for i := range k.slots {
		if st := k.slots[i].state.Load(); st != slotRunning {
			t.Errorf("slot %d state %d, want running", i, st)
		}
		if n := len(k.slots[i].sema); n != 0 {
			t.Errorf("slot %d holds %d tokens, want 0", i, n)
		}
	}
}

// hookDS is a batched structure whose BOP runs a test callback.
type hookDS struct{ bop func(ops []*OpRecord) }

func (d *hookDS) RunBatch(_ *Ctx, ops []*OpRecord) { d.bop(ops) }

// TestBatchLandWakesOnlyParticipants pins the targeted wakes of the
// batch-land path and of runTask. It drives LaunchBatch and runTask on
// the test goroutine, as worker 0 of an eight-worker runtime whose other
// seven slots are parked, and counts slot wakes through
// testHookSlotWake. Steps 4–5 may wake each participant plus one
// pending worker (the next launcher), and a finished join only its
// registered waiter; a fall-back to the broadcast wake would wake all
// seven parked slots. With P = 8 the acknowledgement and release loops
// (grain 8) run in place, so no task push, whose broadcast is
// legitimate, happens inside the counted window.
func TestBatchLandWakesOnlyParticipants(t *testing.T) {
	const P = 8
	rt := New(Config{Workers: P})
	var woken []int // the hook runs on this goroutine only
	testHookSlotWake = func(slot int) { woken = append(woken, slot) }
	defer func() { testHookSlotWake = nil }()
	c := &rt.workers[0].ctxs[KindBatch]

	// parkOthers parks slots 1..P-1 as idle workers would; settle
	// consumes the tokens of woken slots and retracts the rest.
	parkOthers := func() {
		for i := 1; i < P; i++ {
			rt.idle.beginPark(i)
		}
		woken = woken[:0]
	}
	settle := func() {
		for i := 1; i < P; i++ {
			rt.idle.cancelPark(i)
		}
		checkWakerQuiet(t, &rt.idle)
	}

	// latePending, when >= 0, is a worker that publishes its record
	// while the batch executes (after acknowledgement): it stays pending
	// and is the one the flag reset must wake to launch next.
	latePending := -1
	ds := &hookDS{bop: func([]*OpRecord) {
		if latePending >= 0 {
			rt.pending[latePending].rec.Store(&OpRecord{worker: int32(latePending)})
			rt.workers[latePending].status.Store(int32(StatusPending))
		}
	}}

	for _, tc := range []struct {
		name         string
		participants []int
		late         int
	}{
		{"one participant", []int{3}, -1},
		{"three participants", []int{1, 4, 6}, -1},
		{"participant and late publisher", []int{2}, 5},
		{"every parked worker participates", []int{1, 2, 3, 4, 5, 6, 7}, -1},
		{"empty launch", nil, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parkOthers()
			latePending = tc.late
			for _, i := range tc.participants {
				rt.pending[i].rec.Store(&OpRecord{DS: ds, worker: int32(i)})
				rt.workers[i].status.Store(int32(StatusPending))
			}
			rt.batchFlag.Store(1)
			rt.launchBatchBody(c)

			limit := len(tc.participants) + 1
			if len(woken) > limit {
				t.Errorf("landing woke slots %v; want at most %d (participants %v + 1 launcher)",
					woken, limit, tc.participants)
			}
			want := map[int]bool{}
			for _, i := range tc.participants {
				want[i] = true
			}
			if tc.late >= 0 {
				want[tc.late] = true
			}
			for _, i := range woken {
				if !want[i] {
					t.Errorf("landing woke slot %d, which is neither a participant nor pending", i)
				}
				delete(want, i)
			}
			for i := range want {
				t.Errorf("landing left slot %d parked; want it woken", i)
			}
			for i := 1; i < P; i++ {
				rt.workers[i].status.Store(int32(StatusFree))
				rt.pending[i].rec.Store(nil)
			}
			settle()
		})
	}

	t.Run("join finish", func(t *testing.T) {
		for _, reg := range []int32{0, 2, 6} { // 1 + waiter id; 0 = none
			parkOthers()
			w0 := rt.workers[0]
			tk := w0.getTask()
			tk.fn = func(*Ctx) {}
			tk.kind = KindCore
			tk.join = &tk.ownJoin
			tk.ownJoin.pending.Store(1)
			tk.ownJoin.waiter.Store(reg)
			w0.runTask(tk)
			w0.putTask(tk)
			switch {
			case reg == 0 && len(woken) != 0:
				t.Errorf("unregistered join finish woke slots %v; want none", woken)
			case reg != 0 && (len(woken) != 1 || woken[0] != int(reg-1)):
				t.Errorf("join finish woke slots %v; want only its waiter [%d]", woken, reg-1)
			}
			settle()
		}
	})

	t.Run("fork clears a pooled frame's waiter", func(t *testing.T) {
		w0 := rt.workers[0]
		stale := w0.getTask()
		stale.ownJoin.waiter.Store(4) // worker 3 waited at this frame's last join
		w0.putTask(stale)
		parkOthers()
		w0.ctxs[KindCore].Fork(func(*Ctx) {
			// The push's broadcast woke every parked slot; park them
			// again so that only the finish of b's join is counted.
			settle()
			parkOthers()
		}, func(*Ctx) {})
		if len(woken) != 0 {
			t.Errorf("finishing a re-armed join woke slots %v; want none", woken)
		}
		settle()
	})
}
