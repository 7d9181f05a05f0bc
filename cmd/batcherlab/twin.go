package main

// batcherlab twin — calibrate and validate the analytical twin
// (internal/sim.Model, DESIGN.md §15) against a real server. The twin
// is an offline capacity-planning tool; batcherd itself does not run it.
//
// Live mode starts an in-process batcherd whose hashmap batch cost is
// inflated to a known constant (as the brownout tests do), so shard
// capacity is fixed and small, then sweeps open-loop load fractions of
// that capacity with phase attribution on. Each point contributes a
// sim.CalPoint: the achieved arrival rate, the mean batch size over the
// run, the mean exec-phase (batch service) duration, and the measured
// client p999. FitModel turns the sweep into a Model; the table prints
// predicted-vs-measured p999 per point.
//
// -validate gates on the mean absolute relative error (default 25%) —
// a capacity plan read off the twin is only worth having if its p999
// curve tracks a real sweep. -record writes the sweep as JSON so CI can
// -replay the same points hermetically (fit + gate, no server, no
// timing sensitivity on shared runners).

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/server"
	"batcher/internal/sim"
)

// twinSweep is the -record/-replay file format: everything FitModel
// needs to reproduce the fit without a server.
type twinSweep struct {
	Workers     int            `json:"workers"`
	BatchCostNS int64          `json:"batch_cost_ns"`
	Points      []sim.CalPoint `json:"points"`
}

// twinSlowDS inflates a structure's batch cost by a fixed sleep,
// giving the swept server a known, low capacity (the same trick the
// brownout tests use; see internal/server/brownout_test.go).
type twinSlowDS struct {
	inner sched.Batched
	delay time.Duration
}

func (s *twinSlowDS) RunBatch(ctx *sched.Ctx, ops []*sched.OpRecord) {
	time.Sleep(s.delay)
	s.inner.RunBatch(ctx, ops)
}

func twinCmd(args []string) {
	fs := flag.NewFlagSet("twin", flag.ExitOnError)
	validate := fs.Bool("validate", false, "gate: exit nonzero unless mean |predicted-measured|/measured p999 error is within -tol")
	tol := fs.Float64("tol", 0.25, "validation tolerance on the mean absolute relative p999 error")
	record := fs.String("record", "", "write the measured sweep to this JSON file")
	replay := fs.String("replay", "", "fit and validate against a recorded sweep instead of running a server")
	quickF := fs.Bool("quick", false, "CI-sized live sweep: fewer points, shorter runs")
	workersF := fs.Int("workers", 2, "scheduler workers (P) for the live sweep server")
	fs.Parse(args)

	var sweep twinSweep
	if *replay != "" {
		raw, err := os.ReadFile(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twin:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(raw, &sweep); err != nil {
			fmt.Fprintf(os.Stderr, "twin: %s: %v\n", *replay, err)
			os.Exit(1)
		}
		if sweep.Workers <= 0 || len(sweep.Points) < 2 {
			fmt.Fprintf(os.Stderr, "twin: %s: need workers > 0 and at least 2 points\n", *replay)
			os.Exit(1)
		}
		fmt.Printf("replaying %d-point sweep from %s (P=%d, batch cost %v)\n",
			len(sweep.Points), *replay, sweep.Workers, time.Duration(sweep.BatchCostNS))
	} else {
		sweep = twinLiveSweep(*workersF, *quickF)
	}

	if *record != "" {
		raw, err := json.MarshalIndent(sweep, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(*record, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "twin:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded sweep to %s\n", *record)
	}

	model, err := sim.FitModel(sweep.Workers, sweep.Points)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twin: fit:", err)
		os.Exit(1)
	}
	fmt.Printf("fitted: %s\n", model)
	fmt.Printf("modeled capacity: %.0f ops/s; max admissible rate at 50ms SLO: %.0f ops/s\n",
		model.CapacityOpsPerSec(), model.MaxAdmissibleRate(50e6, 0))

	fmt.Printf("\n%12s %10s %14s %14s %8s\n",
		"rate(ops/s)", "batch", "measured_p999", "predicted_p999", "err")
	var sumErr float64
	for _, p := range sweep.Points {
		pred := model.PredictP999NS(p.RatePerSec, 0)
		relErr := math.Abs(pred-p.MeasuredP999NS) / p.MeasuredP999NS
		sumErr += relErr
		fmt.Printf("%12.0f %10.2f %14s %14s %7.1f%%\n",
			p.RatePerSec, p.MeanBatch,
			time.Duration(p.MeasuredP999NS), time.Duration(pred), 100*relErr)
	}
	meanErr := sumErr / float64(len(sweep.Points))
	fmt.Printf("\nmean absolute p999 error: %.1f%%\n", 100*meanErr)

	if *validate {
		if meanErr > *tol {
			fmt.Printf("FAIL: mean error %.1f%% exceeds tolerance %.0f%%\n", 100*meanErr, 100**tol)
			os.Exit(1)
		}
		fmt.Printf("PASS: within %.0f%% tolerance\n", 100**tol)
	}
}

// twinLiveSweep starts the slow-hashmap server and measures one
// CalPoint per load fraction of its known capacity.
func twinLiveSweep(workers int, quick bool) twinSweep {
	// Batch cost picks the capacity, and capacity picks the sample
	// count: a p999 read off a few hundred ops is just that run's max —
	// one scheduler hiccup — so points must carry thousands of ops to
	// put the 99.9th percentile below the straggler floor.
	const batchCost = 500 * time.Microsecond
	fractions := []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9}
	pointDur := 2500 * time.Millisecond
	if quick {
		fractions = []float64{0.3, 0.6, 0.85}
		pointDur = 1 * time.Second
	}

	s, err := server.Start(server.Config{
		Workers:  workers,
		Shards:   1,
		Seed:     20140623,
		QueueCap: 256,
		Window:   256,
		WrapDS: func(_ int, ds uint8, inner sched.Batched) sched.Batched {
			if ds == server.DSHashmap {
				return &twinSlowDS{inner: inner, delay: batchCost}
			}
			return inner
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "twin: server:", err)
		os.Exit(1)
	}
	defer s.Shutdown()

	// Probe real capacity closed-loop: clients that wait for responses
	// self-pace to the service rate, so the achieved throughput IS the
	// ceiling. Sweeping fractions of the nominal workers/batchCost
	// figure instead would land the top points past the real knee
	// (batches under P ops serve slower than the nominal math), where
	// queues grow for the whole run and the measured p999 reflects run
	// length, not steady state — unusable calibration points.
	probe, err := loadgen.Run(loadgen.Workload{
		Addr:  s.Addr().String(),
		Conns: 8, Ops: 400, Window: 8,
		DS: server.DSHashmap, ReadFrac: 0.5, KeySpace: 1 << 14, Seed: 7,
	})
	if err != nil || probe.Errors != 0 {
		fmt.Fprintf(os.Stderr, "twin: capacity probe: %v (%d errors)\n", err, probe.Errors)
		os.Exit(1)
	}
	capacity := probe.OpsPerSec
	fmt.Printf("live sweep: P=%d, batch cost %v, measured capacity %.0f ops/s, %d points\n",
		workers, batchCost, capacity, len(fractions))

	sweep := twinSweep{Workers: workers, BatchCostNS: batchCost.Nanoseconds()}
	st0 := s.Snapshot()
	lastBatches, lastOps := st0.Batches, st0.BatchedOps
	for _, f := range fractions {
		rate := f * capacity
		total := int(rate * pointDur.Seconds())
		conns := 8
		if total < conns {
			total = conns
		}
		res, err := loadgen.Run(loadgen.Workload{
			Addr:  s.Addr().String(),
			Conns: conns, Ops: total / conns, RatePerSec: rate,
			DS: server.DSHashmap, ReadFrac: 0.5, KeySpace: 1 << 14,
			Seed: uint64(1 + total), Phases: true,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "twin: sweep at %.0f ops/s: %v\n", rate, err)
			os.Exit(1)
		}
		if res.Errors != 0 {
			fmt.Fprintf(os.Stderr, "twin: sweep at %.0f ops/s: %d errors under capacity\n", rate, res.Errors)
			os.Exit(1)
		}
		st := s.Snapshot()
		db, dops := st.Batches-lastBatches, st.BatchedOps-lastOps
		lastBatches, lastOps = st.Batches, st.BatchedOps
		if db == 0 {
			continue
		}
		exec := res.Phase[obs.PhaseLaunch]
		sweep.Points = append(sweep.Points, sim.CalPoint{
			RatePerSec:     float64(res.Sent) / res.Elapsed.Seconds(),
			MeanBatch:      float64(dops) / float64(db),
			MeanServiceNS:  exec.Mean(),
			MeasuredP999NS: float64(res.P999.Nanoseconds()),
		})
	}
	if len(sweep.Points) < 2 {
		fmt.Fprintln(os.Stderr, "twin: sweep produced too few points")
		os.Exit(1)
	}
	return sweep
}
