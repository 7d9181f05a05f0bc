// Command batcherlab regenerates the paper's evaluation: every figure,
// worked example, bound validation, and ablation in DESIGN.md's
// experiment index. Each subcommand prints the measured series as a
// table followed by the qualitative shape checks (the claims the paper
// makes about that experiment) with PASS/FAIL verdicts.
//
// Usage:
//
//	batcherlab fig5     # Figure 5: skip-list throughput, BATCHER vs SEQ
//	batcherlab fc       # Section 7 prose: flat combining comparison
//	batcherlab counter  # Section 3 example: batched counter bound
//	batcherlab tree     # Section 3 example: batched 2-3 tree bound
//	batcherlab stack    # Section 3 example: amortized stack bound
//	batcherlab bound    # Theorem 1 validation regression
//	batcherlab lemma2   # Lemma 2: trapped for at most two batches
//	batcherlab ablate   # steal-policy / batch-cap / launch ablations
//	batcherlab real     # wall-clock runs on the goroutine runtime
//	batcherlab audit    # empirical Theorem 5.4 batch-delay audit (real runtime)
//	batcherlab all      # everything above
//	batcherlab slow [-addr http://127.0.0.1:9100]
//	                    # fetch a running batcherd's tail flight recorder
//	                    # (/slow) and print the K slowest recent ops
//	batcherlab watch [-addr 127.0.0.1:7411] [-interval 1s] [-once]
//	                    # live dashboard for a running batcherd: per-shard
//	                    # ops/s, batching, queue depth, admission limit,
//	                    # measured p999, Theorem 5.4 headroom, shed rate
//
// Flags:
//
//	-quick    smaller parameters (CI-sized run)
//	-seed N   simulator seed (default: the paper's defaults)
//	-workers N  worker count for the real-runtime experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"batcher/internal/experiments"
	"batcher/internal/sim"
	"batcher/internal/simds"
)

var (
	quick   = flag.Bool("quick", false, "run with smaller, CI-sized parameters")
	seed    = flag.Uint64("seed", 20140623, "simulator seed")
	workers = flag.Int("workers", runtime.GOMAXPROCS(0), "workers for real-runtime experiments")
	chrome  = flag.String("chrome", "",
		"trace subcommand: run a real traced workload and write Chrome trace_event JSON to this file")
)

func main() {
	flag.Parse()
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	if cmd == "slow" {
		// Operational: fetch a running batcherd's tail flight recorder
		// (slow.go). Takes its own -addr flag, excluded from "all".
		slowCmd(flag.Args()[1:])
		return
	}
	if cmd == "watch" {
		// Operational: polling dashboard over a running batcherd's stats
		// document (watch.go). Own flags, excluded from "all".
		watchCmd(flag.Args()[1:])
		return
	}
	ran := false
	run := func(name string, f func()) {
		if cmd == name || cmd == "all" {
			fmt.Printf("== %s ==\n", name)
			f()
			fmt.Println()
			ran = true
		}
	}
	run("fig5", func() { fig5(false) })
	run("fc", func() { fig5(true) })
	run("intro", introCmd)
	run("counter", counterCmd)
	run("tree", treeCmd)
	run("stack", stackCmd)
	run("bound", boundCmd)
	run("tau", tauCmd)
	run("lemma2", lemma2Cmd)
	run("ablate", ablateCmd)
	run("trace", traceCmd)
	run("real", realCmd)
	run("audit", auditCmd)
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; see batcherlab -h\n", cmd)
		os.Exit(2)
	}
}

func printChecks(checks []experiments.Check) {
	for _, c := range checks {
		fmt.Println(c)
	}
}

func fig5(fc bool) {
	cfg := experiments.DefaultFig5()
	cfg.Seed = *seed
	cfg.FlatCombining = fc
	if *quick {
		cfg.Calls = 300
		cfg.Sizes = []int64{20_000, 1_000_000, 100_000_000}
		cfg.Workers = []int{1, 2, 4, 8}
	}
	res := experiments.Fig5(cfg)
	fmt.Printf("%d insertions (%d calls x %d records), throughput = inserts per 1000 timesteps\n",
		cfg.Calls*cfg.RecordsPer, cfg.Calls, cfg.RecordsPer)
	fmt.Print(res.Table())
	printChecks(res.ShapeChecks())
}

func sweepWorkers() []int {
	if *quick {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

func introCmd() {
	calls := 2000
	if *quick {
		calls = 1000
	}
	res := experiments.Intro(calls, 32, sweepWorkers(), *seed)
	fmt.Printf("the introduction's comparison: %d ops through contended concurrent\n", calls*32)
	fmt.Printf("structures (inline, cost grows with simultaneous ops) vs implicit batching\n")
	fmt.Print(res.Table())
	printChecks(res.ShapeChecks())
}

func counterCmd() {
	calls, rec := 2000, 32
	if *quick {
		calls = 1000
	}
	res := experiments.Counter(calls, rec, sweepWorkers(), *seed)
	fmt.Printf("n = %d increments (%d calls x %d records)\n", calls*rec, calls, rec)
	fmt.Print(res.Table())
	printChecks(res.ShapeChecks())
}

func treeCmd() {
	ns := []int{2000, 8000}
	if !*quick {
		ns = []int{2000, 8000, 32000}
	}
	res := experiments.Tree(ns, sweepWorkers(), 1<<20, *seed)
	fmt.Printf("inserts into a 2-3 tree of initial size 2^20\n")
	fmt.Print(res.Table())
	printChecks(res.ShapeChecks())
}

func stackCmd() {
	calls, rec := 2000, 32
	if *quick {
		calls = 1000
	}
	res := experiments.Stack(calls, rec, sweepWorkers(), *seed)
	fmt.Printf("n = %d pushes through table doubling\n", calls*rec)
	fmt.Print(res.Table())
	printChecks(res.ShapeChecks())
}

func boundCmd() {
	res := experiments.BoundFit(*seed)
	fmt.Print(res.Rows)
	fmt.Printf("fit: makespan ~ %.3f·(T1+W+ns)/P %+.3f·m·s %+.3f·T∞   R²=%.4f\n",
		res.Fit.Coef[0], res.Fit.Coef[1], res.Fit.Coef[2], res.Fit.R2)
	printChecks(res.ShapeChecks())
}

func tauCmd() {
	calls := 4000
	if *quick {
		calls = 1500
	}
	res := experiments.Tau(calls, 32, 8, *seed)
	fmt.Printf("Theorem 3 τ-tradeoff on the amortized stack (heavy-tailed batch spans):\n")
	fmt.Printf("%d pushes, P=8, %d batches, makespan %d, max batch span %d\n",
		calls*32, res.Batches, res.Makespan, res.MaxSpan)
	fmt.Print(res.Table())
	printChecks(res.ShapeChecks())
}

func lemma2Cmd() {
	printChecks(experiments.Lemma2(*seed))
}

func ablateCmd() {
	n := 2000
	if *quick {
		n = 600
	}
	for _, res := range []experiments.AblateResult{
		experiments.AblateSteal(n, 8, *seed),
		experiments.AblateCap(n, 8, *seed),
		experiments.AblateLaunch(n, 8, *seed),
	} {
		fmt.Printf("-- %s --\n", res.Knob)
		fmt.Print(res.Rows)
		printChecks(res.ShapeChecks())
	}
}

func traceCmd() {
	if *chrome != "" {
		// Real-runtime mode: trace an actual scheduler run and export it
		// for chrome://tracing (tracereal.go).
		if err := traceRealChrome(*chrome, *workers, *seed, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		return
	}
	// A small Fig5-style run with per-worker activity timelines, showing
	// the scheduler's phases: core execution (C), operation publication
	// (D), batch setup (s), BOP work (B), launches (L), resumes (r),
	// steals (/), idling (.).
	g := sim.NewGraph(1 << 10)
	ops := make([]*sim.Op, 64)
	for i := range ops {
		ops[i] = &sim.Op{Records: 16}
	}
	g.ForkJoinDS(ops, 8, 8)
	res := sim.NewSim(sim.Config{Workers: 8, Seed: *seed, TraceCols: 100},
		&simds.SkipList{Size: 1 << 20}).Run(g)
	fmt.Printf("64 calls x 16 records into a 2^20 skip list, P=8, makespan %d steps\n", res.Makespan)
	fmt.Println("legend: C core  D publish-op  s setup  B batch(BOP)  L launch  r resume  / steal  . idle")
	for i, row := range res.Trace {
		fmt.Printf("w%d %s\n", i, row)
	}
}

func realCmd() {
	cfg := experiments.RealSkipListConfig{
		Calls: 1000, RecordsPer: 100, Initial: 100_000,
		Workers: *workers, Seed: *seed,
	}
	if *quick {
		cfg.Calls, cfg.Initial = 200, 20_000
	}
	fmt.Printf("wall-clock skip-list insert, %d inserts, initial size %d, P=%d (host has %d CPU(s))\n",
		cfg.Calls*cfg.RecordsPer, cfg.Initial, cfg.Workers, runtime.NumCPU())
	fmt.Print(experiments.RealSkipList(cfg))
	db := experiments.RealCounterBatcher(cfg.Workers, 50_000, cfg.Seed)
	da := experiments.RealCounterAtomic(cfg.Workers, 50_000)
	fmt.Printf("counter (50k increments): BATCHER %v, atomic fetch-add %v\n", db, da)
	fmt.Println("note: this host may have fewer CPUs than workers; wall-clock")
	fmt.Println("numbers measure overhead/correctness, the simulator measures scaling.")
}
