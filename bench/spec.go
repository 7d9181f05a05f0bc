package main

import (
	"runtime"

	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/server"
)

// spec is one named workload. README.md records why each exists.
type spec struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	lib      bool  // fork-join program, no wire
	ds       uint8 // wire structure code
	shards   int
	workers  int     // P per shard
	pipeline int     // closed loop: requests in flight per connection
	rate     float64 // open loop: offered ops/s across all connections (0 = closed)
	keyspace int64
	zipfS    float64 // 0 = uniform keys
	readFrac float64

	// setups is how many times an end-to-end pass sets up: setup_s is the
	// median and the last set-up is the one measured on. warmOps is the
	// closed-loop warm-up inside each set-up, enough to fill the request
	// pools, the connections' output buffers and the pump queue. The
	// smoke test shrinks both.
	setups  int
	warmOps int64
}

var workloads = []*spec{
	{
		name: "wire_counter_closed",
		why:  "loopback batcherd, 1 shard, counter increments, closed loop: the structure is free, so the wire edge is all the cost",
		ds:   server.DSCounter, shards: 1, workers: 4, pipeline: 16,
		setups: 5, warmOps: 20_000,
	},
	{
		name: "wire_skiplist_open",
		why:  "same server, preloaded skip list, 50/50 lookup/insert, open loop at a fixed 20k ops/s: queue wait and batch delay set the tail",
		ds:   server.DSSkiplist, shards: 1, workers: 4, rate: 20000,
		keyspace: 1 << 20, readFrac: 0.5,
		setups: 5, warmOps: 20_000,
	},
	{
		name: "wire_hashmap_sharded_zipf",
		why:  "4 shards x 2 workers, hash map, zipf 1.1 keys, 90/10 get/put, closed loop: frames fan out into per-shard spans and hot keys load shards unevenly",
		ds:   server.DSHashmap, shards: 4, workers: 2, pipeline: 32,
		keyspace: 1 << 20, zipfS: 1.1, readFrac: 0.9,
		setups: 5, warmOps: 20_000,
	},
	{
		name: "lib_skiplist_forkjoin",
		why:  "no wire: rt.Run + c.For issuing the wire_skiplist_open op stream through Batchify, so only sched and ds work and edge changes must predict no change",
		lib:  true, ds: server.DSSkiplist, shards: 1, workers: 4,
		keyspace: 1 << 20, readFrac: 0.5,
		setups: 5, warmOps: 20_000,
	},
}

func findWorkload(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// conns is the number of client connections (wire) or submitter
// goroutines (pump and shard rungs): the generator shares the host with
// the program, so it never uses more goroutines than cores, and at most 4.
func conns() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runSeconds is the timed region a driver asks for (BENCHMARK.json's
// run_seconds).
const runSeconds = 20

// sloNS is the latency limit behind slo_ok_frac.
const sloNS = 2_000_000

// metricDef declares one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change is rejected; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports every metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"slo_ok_frac", "ratio", "higher", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.10},
}

// perLayer is the traced run's output: the ladder rungs, the counters
// the program already exposes, and the generator's own health.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{name: "ds.ns_per_op", unit: "ns", better: "lower"},
		{name: "sched.batchify_ns_per_op", unit: "ns", better: "lower"},
		{name: "sched.batchify_self_ns", unit: "ns", better: "lower"},
		{name: "sched.pump_ns_per_op", unit: "ns", better: "lower"},
		{name: "sched.pump_self_ns", unit: "ns", better: "lower"},
		{name: "sched.mean_batch", unit: "count", better: "higher"},
		{name: "sched.batches_per_kop", unit: "count", better: "lower"},
		{name: "sched.steals_per_op", unit: "count", better: "lower"},
		{name: "sched.failed_steals_per_op", unit: "count", better: "lower"},
		{name: "sched.parks_per_kop", unit: "count", better: "lower"},
		{name: "sched.submit_busy_ns_per_op", unit: "ns", better: "lower"},
		{name: "sched.done_wait_p50_us", unit: "us", better: "lower"},
		{name: "sched.done_wait_p99_us", unit: "us", better: "lower"},
		{name: "sched.batch_delay_p99_us", unit: "us", better: "lower"},
		{name: "shard.ns_per_op", unit: "ns", better: "lower"},
		{name: "shard.self_ns", unit: "ns", better: "lower"},
		{name: "shard.imbalance", unit: "ratio", better: "lower"},
		{name: "shard.queue_depth_max", unit: "count", better: "lower"},
		{name: "shard.spans_per_frame", unit: "count", better: "lower"},
		{name: "server.ns_per_op", unit: "ns", better: "lower"},
		{name: "server.self_ns", unit: "ns", better: "lower"},
		{name: "server.rsys_per_op", unit: "count", better: "lower"},
		{name: "server.wsys_per_op", unit: "count", better: "lower"},
		{name: "server.allocs_per_op", unit: "count", better: "lower"},
		{name: "server.lat_p99_us", unit: "us", better: "lower"},
		{name: "server.lat_p999_us", unit: "us", better: "lower"},
		{name: "obs.conform_headroom", unit: "ratio", better: "lower"},
		{name: "obs.max_landings", unit: "count", better: "lower"},
		{name: "obs.violations", unit: "count", better: "lower"},
		{name: "loadgen.send_lag_p99_us", unit: "us", better: "lower"},
		{name: "loadgen.busy_frac", unit: "ratio", better: "lower"},
		{name: "loadgen.encode_flush_ns_per_op", unit: "ns", better: "lower"},
		{name: "loadgen.recv_decode_ns_per_op", unit: "ns", better: "lower"},
		{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
		{name: "e2e.fail_frac", unit: "ratio", better: "lower"},
		{name: "e2e.slo_miss_frac", unit: "ratio", better: "lower"},
	}
	for _, ph := range obs.PhaseNames {
		m = append(m, metricDef{name: "server.phase_mean_ns." + ph, unit: "ns", better: "lower"})
	}
	for r, name := range sched.LaunchReasonNames {
		if sched.LaunchReason(r) == sched.LaunchHold {
			continue // holds defer a launch; they never count one
		}
		m = append(m, metricDef{name: "sched.launch_share." + name, unit: "ratio", better: "higher"})
	}
	return m
}
