// Command bench is the repository's benchmark: four named workloads,
// the end-to-end metrics a user of batcherd or the library would see,
// and the layer ladder (ds -> sched -> shard -> server) as its traced
// run. README.md records why each workload and metric exists.
//
//	go run ./bench -workload wire_counter_closed -seed 1 -seconds 20 -trace 0
//	go run ./bench                  # every workload, both passes, as a table
//	go run ./bench aa               # the full set twice, compared against the bounds
//	go run ./bench spec             # BENCHMARK.json, generated from the tables in spec.go
//
// With -workload, the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. The exit code is
// non-zero when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var stderr io.Writer = os.Stderr

// fingerprint identifies the build and host a record was measured on.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	GOGC       string `json:"gogc"`
}

var env = readEnv()

func readEnv() fingerprint {
	f := fingerprint{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
		GOGC:       os.Getenv("GOGC"),
	}
	if f.GOGC == "" {
		f.GOGC = "100"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	if f.Commit == "unknown" { // go run does not stamp the build
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			f.Commit = strings.TrimSpace(string(b))
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	return f
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	jsonOut  bool
	traceOut string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, both passes)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed region")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced pass, end-to-end metrics; 1: traced ladder, per-layer metrics (default: both)")
	flag.IntVar(&o.repeat, "repeat", 1, "run each pass this many times")
	flag.BoolVar(&o.jsonOut, "json", false, "print one JSON record per pass, with the environment fingerprint")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSON")
	// The command may come first (bench aa -seed 2) or last (bench -seed 2 aa).
	args := os.Args[1:]
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	flag.CommandLine.Parse(args) // ExitOnError: a bad flag ends the process
	if cmd == "" {
		cmd = flag.Arg(0)
	}

	// A hang is a failure, not a long run: nothing here should take more
	// than a few times its timed region.
	budget := (time.Duration(o.seconds*10)*time.Second + 2*time.Minute) * time.Duration(max(o.repeat, 1))
	time.AfterFunc(budget, func() {
		fmt.Fprintln(stderr, "bench: watchdog: run exceeded", budget)
		os.Exit(3)
	})

	switch cmd {
	case "":
		os.Exit(runPasses(o))
	case "aa":
		os.Exit(runAA(o))
	case "spec":
		os.Stdout.Write(benchmarkJSON())
	default:
		fmt.Fprintf(stderr, "bench: unknown command %q\n", cmd)
		os.Exit(2)
	}
}

// selected resolves -workload and -trace into the passes to run.
func selected(o options) (sps []*spec, traces []bool, err error) {
	sps = workloads
	if o.workload != "" && o.workload != "all" {
		sp := findWorkload(o.workload)
		if sp == nil {
			return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		sps = []*spec{sp}
	}
	switch o.trace {
	case 0:
		traces = []bool{false}
	case 1:
		traces = []bool{true}
	default:
		traces = []bool{false, true}
	}
	return sps, traces, nil
}

func runPass(sp *spec, o options, traced bool) *result {
	// Each pass starts from a collected heap so one pass's garbage is not
	// the next one's RSS.
	debug.FreeOSMemory()
	if traced {
		return tracedPass(sp, o.seed, o.seconds, o.traceOut)
	}
	return endToEndPass(sp, o.seed, o.seconds)
}

// runPasses runs the selected passes and prints them. It returns the
// process exit code: 1 if any output check failed.
func runPasses(o options) int {
	sps, traces, err := selected(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	var last *result
	for _, sp := range sps {
		for _, traced := range traces {
			for i := 0; i < max(o.repeat, 1); i++ {
				res := runPass(sp, o, traced)
				last = res
				if len(res.Problems) > 0 {
					code = 1
				}
				if o.jsonOut {
					b, _ := json.Marshal(res) // a struct of numbers and strings cannot fail to marshal
					fmt.Println(string(b))
				} else {
					printTable(os.Stdout, res)
				}
			}
		}
	}
	if o.workload != "" && o.workload != "all" && len(traces) == 1 {
		fmt.Println(contractLine(last))
	}
	return code
}

// contractLine is the one-line summary a driver reads from the last line
// of standard output.
func contractLine(res *result) string {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := res.totals()
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Problems) == 0, max(attempted, 1), failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, _ := json.Marshal(out) // numbers and strings only
	return string(b)
}

func printTable(w io.Writer, res *result) {
	pass, defs := "end-to-end (untraced)", endToEnd
	if res.Traced {
		pass, defs = "per-layer (traced ladder)", perLayer
	}
	attempted, failed := res.totals()
	fmt.Fprintf(w, "\n%s  %s  seed=%d seconds=%g  attempted=%d failed=%d\n", res.Workload, pass, res.Seed, res.Seconds, attempted, failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	names := make([]string, 0, len(res.Phases))
	for name := range res.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := res.Phases[name]
		fmt.Fprintf(w, "  phase %-16s sent=%d succeeded=%d failed=%d\n", name, c.Sent, c.Succeeded, c.Failed)
	}
	if !res.Valid {
		fmt.Fprintln(w, "  INVALID: the open-loop generator ran late; latencies are void")
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  FAILED CHECK:", p)
	}
}

// runAA runs every selected end-to-end pass twice on the same code and
// prints, per metric and workload, both values, their relative
// difference and the bound. A difference beyond the bound is
// "unresolved": the benchmark cannot tell that pair of runs apart from a
// regression, and the exit code says so.
func runAA(o options) int {
	o.trace = 0
	sps, _, err := selected(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-28s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, sp := range sps {
		a := runPass(sp, o, false)
		b := runPass(sp, o, false)
		for _, res := range []*result{a, b} {
			for _, p := range res.Problems {
				fmt.Println("FAILED CHECK:", sp.name, p)
				code = 1
			}
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name], b.Metrics[d.name]
			diff := (y - x) / x
			if d.better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > d.bound || -diff > d.bound {
				verdict = "  UNRESOLVED"
				code = 1
			}
			fmt.Printf("%-28s %-14s %14.4f %14.4f %+7.1f%% %5.1f%%%s\n", sp.name, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}

// benchmarkJSON renders BENCHMARK.json from the tables in spec.go.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, sp := range workloads {
		doc.Workloads = append(doc.Workloads, wl{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ") // numbers and strings only
	return append(b, '\n')
}
