package main

// batcherlab watch — a polling terminal dashboard for a running
// batcherd. Each frame renders one source, the server's live stats
// document (a DSStats request over the serving port), with the same
// server.Stats.Render that `batcherd stats` prints: ops/s, batching,
// queue depths, each shard's admission limit and measured p999, and the
// conformance gauges. The Theorem 5.4 envelope is a live claim, and
// watch shows whether reality is honoring it right now.

import (
	"flag"
	"fmt"
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
		st.Render(os.Stdout, prev, dt)
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
