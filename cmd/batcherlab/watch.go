package main

// batcherlab watch — a polling terminal dashboard for a running
// batcherd. Each frame renders one source, the server's live stats
// document (a DSStats request over the serving port): ops/s, batching,
// queue depths, each shard's admission limit and measured p999, and the
// conformance gauges. The Theorem 5.4 envelope is a live claim, and
// watch shows whether reality is honoring it right now.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/server"
)

func watchCmd(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "batcherd serving address (stats via the wire protocol)")
	interval := fs.Duration("interval", time.Second, "poll interval")
	once := fs.Bool("once", false, "render a single frame and exit (no screen clearing)")
	fs.Parse(args)

	var prev *server.Stats
	prevAt := time.Now()
	for {
		st, err := fetchStats(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "watch:", err)
			os.Exit(1)
		}
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		if !*once {
			// Home the cursor and clear: repaint in place, no scrollback spam.
			fmt.Print("\x1b[H\x1b[2J")
		}
		renderWatch(os.Stdout, st, prev, dt)
		if *once {
			return
		}
		prev = &st
		prevAt = now
		time.Sleep(*interval)
	}
}

// fetchStats dials the serving port and issues one DSStats request.
// A fresh connection per frame keeps the loop robust across server
// restarts (a watch outlives the batcherd it watches).
func fetchStats(addr string) (server.Stats, error) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return server.Stats{}, err
	}
	defer c.Close()
	return c.Stats()
}

// renderWatch paints one dashboard frame. prev is the previous frame's
// stats (nil on the first frame): with it, ops/s and shed/s are exact
// interval rates; without it they fall back to lifetime averages.
func renderWatch(w io.Writer, st server.Stats, prev *server.Stats, dt float64) {
	slo := "off"
	if st.AdmitSLONS > 0 {
		slo = time.Duration(st.AdmitSLONS).String()
	}
	opsRate := st.OpsPerSec
	shedRate := 0.0
	if st.UptimeSec > 0 {
		shedRate = float64(st.Shed) / st.UptimeSec
	}
	if prev != nil && dt > 0 {
		opsRate = float64(sumCompleted(st)-sumCompleted(*prev)) / dt
		shedRate = float64(st.Shed-prev.Shed) / dt
	}
	fmt.Fprintf(w, "batcherd %s  up %s  conns %d  policy %s  slo %s\n",
		time.Now().Format("15:04:05"),
		(time.Duration(st.UptimeSec * float64(time.Second))).Round(time.Second),
		st.Conns, st.Policy, slo)
	fmt.Fprintf(w, "ops/s %.0f  mean_batch %.2f  queue %d  shed/s %.1f  headroom %.3f  max_landings %d\n",
		opsRate, st.MeanBatch, st.QueueDepth, shedRate,
		st.ConformHeadroom, st.ConformMaxLandings)
	// limit is the admission backlog bound in ops (0 = unlimited).
	fmt.Fprintf(w, "%6s %10s %8s %7s %7s %12s %9s %6s %9s\n",
		"shard", "ops/s", "mean", "queue", "limit", "meas_p999", "headroom", "lands", "shed/s")
	for i, ss := range st.PerShard {
		shardOps := ss.OpsPerSec
		shardShed := 0.0
		if st.UptimeSec > 0 {
			shardShed = float64(ss.Shed) / st.UptimeSec
		}
		if prev != nil && dt > 0 && i < len(prev.PerShard) {
			shardOps = float64(ss.Completed-prev.PerShard[i].Completed) / dt
			shardShed = float64(ss.Shed-prev.PerShard[i].Shed) / dt
		}
		fmt.Fprintf(w, "%6d %10.0f %8.2f %7d %7d %12s %9.3f %6d %9.1f\n",
			ss.Shard, shardOps, ss.MeanBatch, ss.QueueDepth,
			ss.AdmitLimit, fmtNS(ss.MeasuredP999NS),
			ss.Conformance.Headroom, ss.Conformance.MaxLandings, shardShed)
	}
}

func sumCompleted(st server.Stats) int64 {
	var n int64
	for _, ss := range st.PerShard {
		n += ss.Completed
	}
	return n
}
