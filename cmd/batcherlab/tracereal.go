package main

// The trace subcommand's -chrome mode: instead of the simulator's ASCII
// timelines, run a real traced workload on the goroutine runtime —
// parallel skip-list inserts through Batchify — and export the
// scheduler's event rings as Chrome trace_event JSON. Load the file at
// chrome://tracing or https://ui.perfetto.dev: one track per worker,
// batches as spans sized in the args, parks as nested spans, steals and
// pump admissions as instants.

import (
	"fmt"
	"os"
	"time"

	"batcher/internal/ds/skiplist"
	"batcher/internal/obs"
	"batcher/internal/sched"
)

// traceRealChrome runs the traced workload and writes the export to
// path. calls×recordsPer inserts land in batches of up to P, so even
// the -quick run produces a few hundred spans.
func traceRealChrome(path string, workers int, seed uint64, quick bool) error {
	calls, recordsPer := 500, 64
	if quick {
		calls, recordsPer = 100, 32
	}
	rt := sched.New(sched.Config{Workers: workers, Seed: seed})
	tr := rt.NewTracer(1 << 16)
	rt.SetTracer(tr)
	conf := obs.NewConform(time.Hour)
	rt.SetConformance(conf)
	hist := conf.BatchSizes()

	sl := skiplist.NewBatched(seed)
	n := calls * recordsPer
	rt.Run(func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			op := cc.Op()
			*op = sched.OpRecord{DS: sl, Kind: skiplist.OpInsert,
				Key: int64(uint64(i)*0x9e3779b97f4a7c15%(1<<30)) + 1, Val: int64(i)}
			cc.Batchify(op)
		})
	})

	evs := tr.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, evs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	batches, ops := rt.LiveBatchStats()
	fmt.Printf("%d skip-list inserts batched as %d ops in %d batches on P=%d (mean size %.2f, p99 %d), %d steals\n",
		n, ops, batches, rt.Workers(), hist.Mean(), hist.Quantile(0.99), rt.LiveSteals())
	kinds := obs.CountKinds(evs)
	fmt.Printf("events in rings: %d launch, %d land, %d steal, %d park/wake\n",
		kinds[obs.EvBatchLaunch], kinds[obs.EvBatchLand], kinds[obs.EvSteal],
		kinds[obs.EvPark]+kinds[obs.EvWake])
	fmt.Printf("wrote %s — open at chrome://tracing or ui.perfetto.dev\n", path)
	return nil
}
