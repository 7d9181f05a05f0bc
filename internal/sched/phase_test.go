package sched

import (
	"testing"
	"time"

	"batcher/internal/obs"
)

// TestPhaseStampsWritten checks the scheduler-owned stamp slots: with a
// monitor attached, every Batchify'd record comes back with Pending <=
// Launch <= Land all positive, and the batch bookkeeping (size, group)
// filled in.
func TestPhaseStampsWritten(t *testing.T) {
	rt := New(Config{Workers: 4, Seed: 813})
	rt.SetConformance(obs.NewConform(time.Hour))
	ds := &allocFreeDS{}
	const n = 256
	recs := make([]OpRecord, n)
	rt.Run(func(c *Ctx) {
		c.For(0, n, 1, func(cc *Ctx, i int) {
			op := &recs[i]
			op.DS = ds
			op.Val = 1
			cc.Batchify(op)
		})
	})
	for i := range recs {
		ph := recs[i].Phases
		p, l, d := ph[obs.PhasePending], ph[obs.PhaseLaunch], ph[obs.PhaseLand]
		if p <= 0 || l <= 0 || d <= 0 {
			t.Fatalf("op %d: missing stamps pending=%d launch=%d land=%d", i, p, l, d)
		}
		if p > l || l > d {
			t.Fatalf("op %d: stamps out of order pending=%d launch=%d land=%d", i, p, l, d)
		}
		if recs[i].BatchSize < 1 {
			t.Fatalf("op %d: batch size %d", i, recs[i].BatchSize)
		}
		if recs[i].BatchGroup < 0 {
			t.Fatalf("op %d: batch group %d", i, recs[i].BatchGroup)
		}
	}
}

// TestPhaseStampsOffLeavesRecordsAlone pins the detached path: with no
// monitor attached the scheduler must not touch the stamp slots (the
// default for embedded fork-join use, where records may live in caller
// memory the scheduler has no business writing).
func TestPhaseStampsOffLeavesRecordsAlone(t *testing.T) {
	rt := New(Config{Workers: 2, Seed: 817})
	ds := &allocFreeDS{}
	const n = 64
	recs := make([]OpRecord, n)
	rt.Run(func(c *Ctx) {
		c.For(0, n, 1, func(cc *Ctx, i int) {
			op := &recs[i]
			op.DS = ds
			op.Val = 1
			cc.Batchify(op)
		})
	})
	for i := range recs {
		if recs[i].Phases != ([obs.NumPhases]int64{}) {
			t.Fatalf("op %d: stamps written with stamping off: %v", i, recs[i].Phases)
		}
	}
}
