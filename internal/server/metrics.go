package server

// Prometheus-style observability for batcherd. Every server owns an
// obs.Registry; its counters and gauges are scrape-time reads of the
// atomics the serving path already maintains, so registration costs the
// hot path nothing. Histograms that describe scheduler behavior are per
// shard, carrying a `shard` label: each shard is an independent
// batching domain (its own runtime, pump, and pending array), so batch
// size, queue depth, per-phase latency, and batch delay only mean
// something per shard — per-shard batch-delay histograms are exactly
// what keeps the Theorem 5.4 envelope auditable via `batcherlab audit`
// when Shards > 1. Per-structure service latency stays process-wide
// (a structure class spans shards; its clients see one latency).

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"batcher/internal/obs"
)

// dsNames maps the wire ds codes 0..3 to metric label values.
var dsNames = [4]string{"counter", "skiplist", "tree23", "hashmap"}

// buildMetrics assembles the registry. Called from Start before the
// pumps begin serving (each runtime must be quiescent when its batch
// histogram and tracer are attached).
func (s *Server) buildMetrics() {
	reg := obs.NewRegistry()
	s.reg = reg

	reg.CounterFunc("batcherd_ops_accepted_total",
		"operations admitted into a shard pump", nil, func() int64 {
			a, _, _ := s.router.Books()
			return a
		})
	reg.CounterFunc("batcherd_ops_rejected_total",
		"operations refused (bad op, closed pump)", nil, s.rejected.Load)
	reg.CounterFunc("batcherd_ops_completed_total",
		"responses handed to connection writers", nil, s.completed.Load)
	reg.CounterFunc("batcherd_ops_immediate_total",
		"responses that bypassed the pumps (stats, rejections)", nil, s.immediate.Load)
	reg.CounterFunc("batcherd_ops_failed_total",
		"accepted operations completed with Err (contained batch panic)", nil, func() int64 {
			_, _, f := s.router.Books()
			return f
		})
	reg.CounterFunc("batcherd_decode_errors_total",
		"connections dropped for malformed frames", nil, s.decodeErr.Load)
	reg.CounterFunc("batcherd_evictions_total",
		"connections torn down for deadline or protocol violations", nil, s.evictions.Load)
	reg.CounterFunc("batcherd_read_syscalls_total",
		"socket read syscalls issued by the reader loops", nil, s.readSys.Load)
	reg.CounterFunc("batcherd_write_syscalls_total",
		"socket write syscalls issued by the writer loops", nil, s.writeSys.Load)
	reg.CounterFunc("batcherd_batch_panics_total",
		"batch groups whose BOP panicked and was contained (all shards)", nil, s.router.BatchPanics)
	reg.CounterFunc("batcherd_batches_total",
		"batches executed by the shard schedulers", nil, func() int64 {
			b, _ := s.router.LiveBatchStats()
			return b
		})
	reg.CounterFunc("batcherd_batched_ops_total",
		"operations carried by executed batches (all shards)", nil, func() int64 {
			_, ops := s.router.LiveBatchStats()
			return ops
		})
	reg.CounterFunc("batcherd_steals_total",
		"successful scheduler steals (all shards)", nil, s.router.LiveSteals)

	reg.GaugeFunc("batcherd_workers",
		"scheduler worker count per shard (P)", nil, func() float64 {
			return float64(s.Runtime().Workers())
		})
	reg.GaugeFunc("batcherd_shards",
		"independent runtime shards behind the listener", nil, func() float64 {
			return float64(s.router.N())
		})
	reg.GaugeFunc("batcherd_conns",
		"currently open connections", nil, func() float64 {
			return float64(s.curConns.Load())
		})
	reg.GaugeFunc("batcherd_reactor_loops",
		"reader/writer loop pairs in the reactor pool", nil, func() float64 {
			return float64(len(s.rloops))
		})
	reg.GaugeFunc("batcherd_uptime_seconds",
		"seconds since the server started", nil, func() float64 {
			return time.Since(s.start).Seconds()
		})

	for i, name := range dsNames {
		s.latHist[i] = reg.Histogram("batcherd_service_latency_ns",
			"pump-admission-to-completion latency per operation",
			[]obs.Label{{Name: "ds", Value: name}})
	}

	// Per-shard families. Every shard runtime carries a live
	// conformance monitor (DESIGN.md §16): the runtime feeds it one
	// RecordBatch per landed batch, and its gauges below check the
	// paper's guarantees continuously — headroom > 1 means the Theorem
	// 5.4 envelope was exceeded, max_landings > 2 breaks Lemma 2. Always
	// on: the per-batch cost is two clock reads and an O(P) scan, and a
	// guarantee nobody watches is not a guarantee. The attached monitor
	// also turns on phase stamping, whose cost is one clock read and an
	// array store per boundary. The batch-delay histogram is
	// PhaseLand−PhasePending, the per-op wait Theorem 5.4 charges (at
	// most two batches' worth by Lemma 2) — observed into the owning
	// shard's histogram, because the bound is in terms of that shard's
	// P and its pending array alone.
	s.shardM = make([]shardMetrics, s.router.N())
	for i := range s.shardM {
		sh := s.router.Shard(i)
		label := strconv.Itoa(i)
		sm := &s.shardM[i]
		sm.conform = obs.NewConform(0)
		sh.Runtime().SetConformance(sm.conform)
		reg.RegisterHistogram("batcherd_batch_size",
			"operations per executed batch",
			[]obs.Label{{Name: "shard", Value: label}}, sm.conform.BatchSizes())
		for j, name := range obs.PhaseNames {
			sm.phaseHist[j] = reg.Histogram("batcherd_op_phase_ns",
				"per-operation lifecycle phase duration",
				[]obs.Label{{Name: "phase", Value: name}, {Name: "shard", Value: label}})
		}
		sm.delayHist = reg.Histogram("batcherd_batch_delay_ns",
			"per-operation batch delay: pending-array arrival to batch landing (Theorem 5.4's per-op wait)",
			[]obs.Label{{Name: "shard", Value: label}})
		sm.totalHist = reg.Histogram("batcherd_op_total_ns",
			"end-to-end operation latency: conn read done to response handoff",
			[]obs.Label{{Name: "shard", Value: label}})

		conform := sm.conform
		reg.GaugeFunc("batcherd_conformance_headroom",
			"windowed max batch delay over the Theorem 5.4 envelope 2*(span+gap); >1 breaks the bound",
			[]obs.Label{{Name: "shard", Value: label}}, conform.Headroom)
		reg.GaugeFunc("batcherd_conformance_span_max_ns",
			"windowed max batch span (launch to land)",
			[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
				return float64(conform.SpanMaxNS())
			})
		reg.GaugeFunc("batcherd_conformance_gap_max_ns",
			"windowed max inter-batch gap (previous land to next launch)",
			[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
				return float64(conform.GapMaxNS())
			})
		reg.GaugeFunc("batcherd_conformance_delay_max_ns",
			"windowed max per-op batch delay (pending publish to land)",
			[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
				return float64(conform.DelayMaxNS())
			})
		reg.GaugeFunc("batcherd_conformance_max_landings",
			"windowed max batch landings inside any op's pending wait; >2 breaks Lemma 2",
			[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
				return float64(conform.MaxLandings())
			})
		reg.CounterFunc("batcherd_conformance_violations_total",
			"batches whose landings count exceeded Lemma 2's bound of two (lifetime)",
			[]obs.Label{{Name: "shard", Value: label}}, conform.Violations)

		reg.GaugeFunc("batcherd_queue_depth",
			"pump ingress queue depth",
			[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
				return float64(sh.Pump().Depth())
			})
		if s.cfg.SLO > 0 {
			// Admission-control families (DESIGN.md §15), per shard: the
			// shed ledger and the bound's two operands.
			e := &s.edge[i]
			reg.CounterFunc("batcherd_admission_shed_total",
				"operations shed at the edge by the admission backlog bound",
				[]obs.Label{{Name: "shard", Value: label}}, e.shed.Load)
			reg.GaugeFunc("batcherd_admission_limit_ops",
				"standing-backlog bound in operations (0 until a completion has been measured)",
				[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
					return float64(e.limit.Load())
				})
			reg.GaugeFunc("batcherd_admission_service_rate",
				"measured completion rate while work stands, operations per second",
				[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
					return math.Float64frombits(e.rate.Load())
				})
			reg.GaugeFunc("batcherd_admission_slo_ns",
				"configured admission latency SLO",
				[]obs.Label{{Name: "shard", Value: label}}, func() float64 {
					return float64(s.cfg.SLO.Nanoseconds())
				})
		}
	}
	if s.cfg.SlowK >= 0 {
		s.flight = obs.NewFlightRecorder(s.cfg.SlowK, s.cfg.SlowWindow)
	}

	if s.cfg.TraceRing > 0 {
		// One ring set, attached to shard 0's runtime: event traces
		// interleave a single scheduler's workers; merging shards into
		// one timeline would be misleading rather than informative.
		rt := s.Runtime()
		s.tracer = rt.NewTracer(s.cfg.TraceRing)
		rt.SetTracer(s.tracer)
	}
}

// Metrics returns the server's registry (scrape it with
// MetricsHandler, or pull individual families in tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// MetricsHandler returns the /metrics handler (Prometheus text format).
func (s *Server) MetricsHandler() http.Handler { return s.reg.Handler() }

// Tracer returns the scheduler event tracer (shard 0's runtime), or
// nil unless Config.TraceRing enabled tracing.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SlowOps returns the tail flight recorder's current contents (the K
// slowest ops of the current and previous windows, slowest first), or
// nil when the recorder is disabled.
func (s *Server) SlowOps() []obs.SlowOp { return s.flight.Snapshot() }

// SlowHandler returns the /slow handler: a JSON array of the flight
// recorder's SlowOps. 404 when the recorder is disabled (SlowK < 0).
func (s *Server) SlowHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if s.flight == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		ops := s.flight.Snapshot()
		if ops == nil {
			ops = []obs.SlowOp{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ops)
	})
}

// TraceHandler returns the /trace handler: a live Chrome trace_event
// JSON snapshot of the scheduler's event rings, streamed rather than
// buffered. 404 when tracing is disabled (Config.TraceRing == 0).
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if s.tracer == nil {
			http.Error(w, "tracing disabled (start with TraceRing > 0)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, s.tracer.Snapshot())
	})
}
