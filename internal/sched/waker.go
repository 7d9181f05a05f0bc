package sched

import (
	"sync/atomic"
)

// waker implements the spin-then-park idle policy with one park slot per
// worker. A worker that has repeatedly failed to find work parks on its
// own slot; a producer that publishes an event wakes either the one
// worker the event concerns (wakeOne: a status flipped to done, a join
// finished, the batch flag reset) or every parked worker (wake: a task
// push, a pump submission, shutdown, abort). Both are a single atomic
// load when nobody is parked, so producers pay nothing on the hot path.
//
// The protocol is lost-wakeup-free. A would-be sleeper stores "parked"
// in its slot (beginPark) and only then re-checks its wake conditions;
// a producer publishes its event and only then loads the slot. Go's
// sync/atomic operations are sequentially consistent, so in every
// interleaving either the producer observes "parked" or the sleeper's
// re-check observes the event. The producer that CASes the slot from
// parked to running owns the wake and sends the slot's one token; the
// sleeper blocks on that token (sleep), or, when its re-check found
// work, retracts with cancelPark, which consumes the token instead if a
// producer won the CAS first. Either way each park cycle moves exactly
// one token, so the send never blocks.
type waker struct {
	// parked counts slots in the parked state; it lets a broadcast wake
	// skip the slot scan when nobody is parked. It never falls below the
	// number of parked slots: beginPark counts a slot before marking it
	// parked, and every decrement follows a CAS out of the parked state.
	parked atomic.Int32
	slots  []parkSlot
}

// Park-slot states.
const (
	slotRunning int32 = iota
	slotParked
)

// parkSlot is one worker's park slot, padded so a wake aimed at one
// worker does not invalidate a neighbor's slot.
type parkSlot struct {
	state atomic.Int32
	// sema is the one-token semaphore a sleeper blocks on.
	sema chan struct{}
	_    [cacheLinePad - 16]byte
}

// testHookSlotWake, when non-nil, observes every successful wake of a
// parked slot. Tests use it to count whom each event wakes; it must be
// set before any Run and never during one.
var testHookSlotWake func(slot int)

func (k *waker) init(n int) {
	k.slots = make([]parkSlot, n)
	for i := range k.slots {
		k.slots[i].sema = make(chan struct{}, 1)
	}
}

// wake is called after publishing an event that might unblock any
// parked worker, and wakes them all. It costs one atomic load unless
// workers are actually parked.
func (k *waker) wake() {
	if k.parked.Load() != 0 {
		for i := range k.slots {
			k.wakeOne(i)
		}
	}
}

// wakeOne is called after publishing an event that concerns the worker
// of slot i alone, and wakes it if it is parked. It reports whether it
// did. Waking a slot that is not parked costs one atomic load.
func (k *waker) wakeOne(i int) bool {
	s := &k.slots[i]
	if s.state.Load() != slotParked || !s.state.CompareAndSwap(slotParked, slotRunning) {
		return false
	}
	k.parked.Add(-1)
	s.sema <- struct{}{}
	if testHookSlotWake != nil {
		testHookSlotWake(i)
	}
	return true
}

// beginPark marks slot i as parked. The caller must re-check its wake
// conditions after beginPark and then either cancelPark (work appeared)
// or sleep (nothing to do).
//
// The count goes up before the state is stored. In the other order a
// wakeOne could claim this slot and decrement in between, and the count
// would read one low: 0 with another slot parked, which a broadcast
// wake would then skip.
func (k *waker) beginPark(i int) {
	k.parked.Add(1)
	k.slots[i].state.Store(slotParked)
}

// cancelPark retracts a beginPark whose re-check found work. If a
// producer already won the slot, its token is consumed here.
func (k *waker) cancelPark(i int) {
	s := &k.slots[i]
	if s.state.CompareAndSwap(slotParked, slotRunning) {
		k.parked.Add(-1)
		return
	}
	<-s.sema
}

// sleep blocks slot i until a producer wakes it. Spurious wakes are
// fine: every park site loops and re-checks its conditions.
func (k *waker) sleep(i int) { <-k.slots[i].sema }
