// Command batcherd serves the repository's batched data structures over
// TCP, extending implicit batching to the network edge: operations
// decoded from client connections are fed through the scheduler's pump
// and coalesce into batches via the pending array, exactly as
// fork-join strands do. See internal/server for the wire protocol and
// DESIGN.md §8 for why the paper's invariants survive the trip.
//
// Usage:
//
//	batcherd serve [-addr :7411] [-shards N] [-workers N] [-window 32] [-queue N]
//	               [-idle-timeout D] [-write-stall D] [-slo D]
//	               [-metrics host:9100] [-trace-ring N] [-slow-k K] [-slow-window D]
//	    Run the server until SIGINT/SIGTERM, then drain gracefully.
//	    -shards runs N independent scheduler runtimes behind the one
//	    listener, routing each op by hash(ds, key) (internal/shard);
//	    the stats document and /metrics then report per shard.
//	    -slo enables admission control (DESIGN.md §15): each shard
//	    measures its own completion rate and, once more work stands in
//	    front of it than that rate serves in half the SLO, sheds the
//	    excess at the edge with a fast error instead of letting it queue.
//	    The bound never exceeds -queue (default 8×P), so size -queue to
//	    at least rate × SLO/2 or the queue sets the bound. Without -slo
//	    nothing sheds: every op queues, bounded only by each
//	    connection's -window.
//	    -metrics serves an HTTP listener with /metrics (Prometheus text
//	    format, including the per-phase and batch-delay histograms and
//	    the live conformance gauges), /slow (the tail flight recorder:
//	    the K slowest ops per window with full phase vectors, as JSON),
//	    /debug/pprof/* (Go's profilers), /debug/rtrace/{start,stop}
//	    (on-demand Go runtime execution trace), and — with
//	    -trace-ring — /trace, a live Chrome
//	    trace_event JSON snapshot of the scheduler's event rings (N
//	    slots per worker), streamed.
//
//	batcherd load [-addr host:7411] [-conns 64] [-ops 1000] [-ds skiplist]
//	              [-read 0.5] [-pipeline 16] [-rate 0] [-keyspace 65536]
//	              [-dist uniform|zipf] [-zipf-s 1.1] [-phases]
//	    Drive a workload at a running server and report throughput and
//	    latency percentiles, then print the server's stats document.
//	    -phases asks the server to echo each op's phase-stamp vector and
//	    prints the client-side phase breakdown and batch-delay tail.
//	    -conns takes either one connection count or a comma-separated
//	    sweep ("4,64,256,1024"); a sweep pre-dials each fan-in level and
//	    prints a ns/op-vs-conns table instead of the single-run report,
//	    making the reactor's flat per-op cost visible from the shell.
//
//	batcherd stats [-addr host:7411]
//	    Fetch and print the server's stats document (server.Stats.Render,
//	    the renderer batcherlab watch repaints): aggregated totals
//	    (including the admission ledger — offered/shed/SLO — and the
//	    live Theorem 5.4 conformance gauges), and a per-shard table
//	    (accepted, offered, ops/s, shed, batches, mean batch, queue
//	    depth, admission limit and measured rate, measured p999,
//	    headroom, max landings, faults).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serveCmd(os.Args[2:])
	case "load":
		loadCmd(os.Args[2:])
	case "stats":
		statsCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: batcherd {serve|load|stats} [flags]; see batcherd <cmd> -h")
	os.Exit(2)
}

func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "listen address")
	shards := fs.Int("shards", 1, "independent runtime shards behind the listener (key-hashed routing)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "scheduler workers per shard (P)")
	window := fs.Int("window", 32, "per-connection in-flight window")
	queue := fs.Int("queue", 0, "with -slo, the ceiling of each shard's admission bound in ops (0 = 8×P)")
	seed := fs.Uint64("seed", 20140623, "seed for the hashed structures")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain budget")
	idle := fs.Duration("idle-timeout", 0, "reap connections idle this long (0 = 2m default, <0 disables)")
	stall := fs.Duration("write-stall", 0, "break connections whose reads stall a response write this long (0 = 30s default, <0 disables)")
	slo := fs.Duration("slo", 0, "p999 latency SLO enabling admission control (0 disables; excess load sheds fast at the edge)")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /slow, and /debug/pprof on this address; empty disables")
	traceRing := fs.Int("trace-ring", 0, "scheduler event-ring slots per worker (0 disables tracing; enables /trace with -metrics)")
	slowK := fs.Int("slow-k", 0, "tail flight recorder: keep the K slowest ops per window (0 = 16 default, <0 disables)")
	slowWindow := fs.Duration("slow-window", 0, "tail flight recorder rotation window (0 = 10s default)")
	fs.Parse(args)

	s, err := server.Start(server.Config{
		Addr:              *addr,
		Shards:            *shards,
		Workers:           *workers,
		Seed:              *seed,
		QueueCap:          *queue,
		Window:            *window,
		DrainTimeout:      *drain,
		IdleTimeout:       *idle,
		WriteStallTimeout: *stall,
		SLO:               *slo,
		TraceRing:         *traceRing,
		SlowK:             *slowK,
		SlowWindow:        *slowWindow,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "batcherd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", s)

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", s.MetricsHandler())
		mux.Handle("/trace", s.TraceHandler())
		mux.Handle("/slow", s.SlowHandler())
		// Go's own profilers ride the same listener: CPU/heap/goroutine
		// profiles under /debug/pprof/, and an on-demand runtime
		// execution trace under /debug/rtrace/{start,stop} (the
		// go tool trace format, as opposed to /trace's scheduler-level
		// Chrome export).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		registerRuntimeTrace(mux)
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batcherd: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		go http.Serve(ml, mux)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("batcherd: draining...")
	s.Shutdown()
	st := s.Snapshot()
	fmt.Printf("batcherd: served %d ops in %d batches (mean %.2f), %d rejected, %d shed\n",
		st.BatchedOps, st.Batches, st.MeanBatch, st.Rejected, st.Shed)
}

// registerRuntimeTrace installs /debug/rtrace/start and /stop: start
// begins collecting a Go runtime execution trace into a server-side
// file, stop ends it and streams the file back. Unlike
// /debug/pprof/trace (which traces for a fixed duration into the
// response), start/stop brackets let an operator capture exactly the
// window an incident spans.
func registerRuntimeTrace(mux *http.ServeMux) {
	var (
		mu   sync.Mutex
		f    *os.File
		path string
	)
	mux.HandleFunc("/debug/rtrace/start", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if f != nil {
			http.Error(w, "runtime trace already running", http.StatusConflict)
			return
		}
		tf, err := os.CreateTemp("", "batcherd-rtrace-*.out")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := rtrace.Start(tf); err != nil {
			tf.Close()
			os.Remove(tf.Name())
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		f, path = tf, tf.Name()
		fmt.Fprintln(w, "runtime trace started; GET /debug/rtrace/stop to collect")
	})
	mux.HandleFunc("/debug/rtrace/stop", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if f == nil {
			http.Error(w, "no runtime trace running", http.StatusConflict)
			return
		}
		rtrace.Stop()
		f.Close()
		tf, err := os.Open(path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		} else {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="rtrace.out"`)
			io.Copy(w, tf)
			tf.Close()
		}
		os.Remove(path)
		f, path = nil, ""
	})
}

func loadCmd(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "server address")
	conns := fs.String("conns", "64", "concurrent connections; a comma-separated list (\"4,64,256\") sweeps fan-in and prints a ns/op table")
	ops := fs.Int("ops", 1000, "operations per connection")
	dsName := fs.String("ds", "skiplist", "target structure: counter|skiplist|tree23|hashmap")
	read := fs.Float64("read", 0.5, "fraction of lookups (rest are inserts)")
	pipeline := fs.Int("pipeline", 16, "closed-loop pipelining depth per connection")
	rate := fs.Float64("rate", 0, "open-loop aggregate ops/s (0 = closed-loop; incompatible with a -conns sweep)")
	keyspace := fs.Int64("keyspace", 1<<16, "key range")
	dist := fs.String("dist", "uniform", "key distribution: uniform|zipf (zipf skews load across shards)")
	zipfS := fs.Float64("zipf-s", 1.1, "zipf exponent (only with -dist zipf; higher = more skew)")
	seed := fs.Uint64("seed", 1, "workload seed")
	phases := fs.Bool("phases", false, "request per-op phase attribution and print the phase breakdown")
	fs.Parse(args)

	ds, ok := map[string]uint8{
		"counter":  server.DSCounter,
		"skiplist": server.DSSkiplist,
		"tree23":   server.DSTree23,
		"hashmap":  server.DSHashmap,
	}[*dsName]
	if !ok {
		fmt.Fprintf(os.Stderr, "batcherd: unknown structure %q\n", *dsName)
		os.Exit(2)
	}
	sweep, err := parseConns(*conns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batcherd: -conns %q: %v\n", *conns, err)
		os.Exit(2)
	}
	if *dist != "uniform" && *dist != "zipf" {
		fmt.Fprintf(os.Stderr, "batcherd: unknown key distribution %q\n", *dist)
		os.Exit(2)
	}
	w := loadgen.Workload{
		Addr: *addr, Ops: *ops, Window: *pipeline,
		RatePerSec: *rate, DS: ds, ReadFrac: *read,
		KeySpace: *keyspace, KeyDist: *dist, ZipfS: *zipfS,
		Seed: *seed, Phases: *phases,
	}

	if len(sweep) > 1 {
		if *rate > 0 {
			fmt.Fprintln(os.Stderr, "batcherd: -conns sweep is closed-loop only; drop -rate")
			os.Exit(2)
		}
		sweepCmd(w, sweep)
		printStats(*addr)
		return
	}

	w.Conns = sweep[0]
	res, err := loadgen.Run(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batcherd: load: %v (partial: %v)\n", err, res)
		os.Exit(1)
	}
	fmt.Println(res)
	if *phases {
		fmt.Print(res.PhaseBreakdown())
	}
	printStats(*addr)
}

// parseConns parses the -conns value: one count or a comma-separated
// sweep list.
func parseConns(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("connection counts must be positive integers")
		}
		out = append(out, n)
	}
	return out, nil
}

// sweepCmd runs the workload once per fan-in level, pre-dialing each
// level's connections so the table reflects steady-state per-op cost,
// and prints ns/op against conns. A flat ns/op column from the first
// row to the last is the reactor edge doing its job: per-op cost that
// does not grow with connection count.
func sweepCmd(w loadgen.Workload, sweep []int) {
	fmt.Printf("%8s %9s %10s %10s %12s %10s %10s\n",
		"conns", "pipeline", "total_ops", "ns/op", "ops/s", "p50", "p99")
	var base float64
	for _, n := range sweep {
		w.Conns = n
		d, err := loadgen.NewDriver(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batcherd: sweep conns=%d: %v\n", n, err)
			os.Exit(1)
		}
		total := w.Ops * n
		res, err := d.Run(total)
		d.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "batcherd: sweep conns=%d: %v (partial: %v)\n", n, err, res)
			os.Exit(1)
		}
		nsPerOp := float64(res.Elapsed.Nanoseconds()) / float64(res.Responses)
		rel := ""
		if base == 0 {
			base = nsPerOp
		} else if base > 0 {
			rel = fmt.Sprintf("  (%.2fx)", nsPerOp/base)
		}
		fmt.Printf("%8d %9d %10d %10.0f %12.0f %10s %10s%s\n",
			n, w.Window, total, nsPerOp, res.OpsPerSec, res.P50, res.P99, rel)
	}
}

func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "server address")
	fs.Parse(args)
	printStats(*addr)
}

func printStats(addr string) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batcherd: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "batcherd: stats: %v\n", err)
		os.Exit(1)
	}
	st.Render(os.Stdout, nil, 0)
}
