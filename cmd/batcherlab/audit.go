package main

// batcherlab audit — an empirical Theorem 5.4 batch-delay audit on the
// real goroutine runtime. The completion-time analysis charges every
// operation a *batch delay*, the wait between arriving in the pending
// array and its batch landing; Lemma 2 (at most two landings inside any
// wait) bounds it by 2·(max batch span + max setup gap). obs.Conform
// defines and measures both facts — it is the monitor batcherd keeps on
// every shard — so the audit only drives load: n Batchify round trips
// per structure with a monitor attached over a window longer than the
// run, then the monitor's snapshot, printed. The delay distribution is
// batcherd_batch_delay_ns and `go run ./bench`'s sched.batch_delay_p99_us.

import (
	"fmt"
	"io"
	"os"
	"time"

	"batcher/internal/ds/counter"
	"batcher/internal/ds/hashmap"
	"batcher/internal/ds/skiplist"
	"batcher/internal/ds/tree23"
	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/sched/policy"
)

// auditRow is one structure's audit result: the attached monitor's
// snapshot after n ops.
type auditRow struct {
	name string
	n    int
	conf obs.ConformSnapshot
}

func (r auditRow) bound() int64 { return 2 * (r.conf.SpanMaxNS + r.conf.GapMaxNS) }

// verdictLemma2 is the audit's gate: it is counted in batch sequence
// numbers read after the publish, so a descheduled worker cannot fail it.
func (r auditRow) verdictLemma2() bool { return r.conf.MaxLandings <= 2 && r.conf.Violations == 0 }

// verdictDelay is reported, not gated: the pending stamp is read before
// the publish (Batchify), so on an oversubscribed host a descheduled
// worker presents a stamp older than its wait and the ratio overshoots
// with Lemma 2 intact. The monitor reports it as measured.
func (r auditRow) verdictDelay() bool { return r.conf.Headroom <= 1 }

// auditOne runs n operations against one structure with a conformance
// monitor attached and returns the monitor's snapshot.
func auditOne(name string, ds sched.Batched, kind sched.OpKind, n, workers int, seed uint64, pol sched.BatchPolicy) auditRow {
	rt := sched.New(sched.Config{Workers: workers, Seed: seed, Policy: pol})
	// The monitor's maxima are windowed; an hour outlasts any audit run,
	// so the snapshot covers every batch.
	conf := obs.NewConform(time.Hour)
	rt.SetConformance(conf)
	rt.Run(func(c *sched.Ctx) {
		c.For(0, n, 1, func(cc *sched.Ctx, i int) {
			op := cc.Op()
			op.DS = ds
			op.Kind = kind
			op.Key = int64(i) * 2654435761 % (1 << 20)
			op.Val = 1
			cc.Batchify(op)
		})
	})
	return auditRow{name: name, n: n, conf: conf.Snapshot()}
}

// printAuditTable renders the measured-vs-bound table (the
// EXPERIMENTS.md batch-delay table) followed by the two verdicts per
// structure, and reports whether every Lemma 2 verdict passed (a delay
// past the envelope prints WARN and does not fail the audit).
func printAuditTable(w io.Writer, rows []auditRow) (ok bool) {
	fmt.Fprintf(w, "%-9s %6s %7s %6s  %10s %10s %10s %10s %8s %5s %4s\n",
		"ds", "ops", "batches", "mean", "delay_max",
		"span_max", "gap_max", "bound", "headroom", "lands", "viol")
	for _, r := range rows {
		mean := 0.0
		if r.conf.Batches > 0 {
			mean = float64(r.n) / float64(r.conf.Batches)
		}
		fmt.Fprintf(w, "%-9s %6d %7d %6.2f  %10s %10s %10s %10s %8.3f %5d %4d\n",
			r.name, r.n, r.conf.Batches, mean, fmtNS(r.conf.DelayMaxNS),
			fmtNS(r.conf.SpanMaxNS), fmtNS(r.conf.GapMaxNS), fmtNS(r.bound()),
			r.conf.Headroom, r.conf.MaxLandings, r.conf.Violations)
	}
	fmt.Fprintln(w)
	ok = true
	for _, r := range rows {
		lemma2 := r.verdictLemma2()
		ok = ok && lemma2
		check(w, lemma2, "FAIL", fmt.Sprintf("%s: Lemma 2 — no op waited through more than 2 batch landings (max %d, %d violations)",
			r.name, r.conf.MaxLandings, r.conf.Violations))
		check(w, r.verdictDelay(), "WARN", fmt.Sprintf("%s: Theorem 5.4 shape — max delay %s within 2·(span+gap) bound %s",
			r.name, fmtNS(r.conf.DelayMaxNS), fmtNS(r.bound())))
	}
	return ok
}

// auditCmd runs the audit across every served structure and exits
// nonzero on a FAIL, so CI's audit steps gate on Lemma 2.
func auditCmd() {
	n := 4000
	if *quick {
		n = 1000
	}
	w := *workers
	// Every batch-formation policy owes this audit: a policy only moves
	// launch timing, so Lemma 2 and the 2·(span+gap) envelope must
	// survive it (lingering widens gaps, and the bound widens with
	// them — a policy that broke the *shape* would need extra landings,
	// which the mechanism forbids).
	pol, err := policy.ByName(*polName, 0, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "audit: %v\n", err)
		os.Exit(2)
	}
	rows := []auditRow{
		auditOne("counter", counter.New(0), counter.OpIncrement, n, w, *seed, pol),
		auditOne("skiplist", skiplist.NewBatched(*seed^0x9e3779b97f4a7c15), skiplist.OpInsert, n, w, *seed, pol),
		auditOne("tree23", tree23.NewBatched(), tree23.OpInsert, n, w, *seed, pol),
		auditOne("hashmap", hashmap.NewBatched(*seed^0xd1342543de82ef95), hashmap.OpPut, n, w, *seed, pol),
	}

	fmt.Printf("%d Batchify round trips per structure, P=%d, policy=%s, obs.Conform attached\n", n, w, pol.Name())
	fmt.Printf("delay = pending→land per op; bound = 2·(span_max + gap_max), from Lemma 2; headroom = delay_max/bound\n\n")
	if !printAuditTable(os.Stdout, rows) {
		os.Exit(1)
	}
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func check(w io.Writer, ok bool, otherwise, msg string) {
	verdict := "PASS"
	if !ok {
		verdict = otherwise
	}
	fmt.Fprintf(w, "%s  %s\n", verdict, msg)
}
