package server

import (
	"encoding/json"
	"math"
	"time"

	"batcher/internal/obs"
)

// Stats is the server's live metrics document, served as the payload of
// a DSStats request. Batching figures come from the runtimes' live
// counters (sched.Runtime.LiveBatchStats), which — unlike
// Runtime.Metrics — are readable while the pumps are serving. The
// top-level figures aggregate across shards; PerShard is the per-shard
// breakdown (a DSStats read never enters any pump: the serving layer
// fans out across every shard's live counters and merges here).
type Stats struct {
	// Workers is P, the scheduler worker count per shard; Shards is the
	// number of independent runtime shards (total workers = Shards×P).
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// UptimeSec is seconds since Start.
	UptimeSec float64 `json:"uptime_sec"`
	// Conns is the current connection count.
	Conns int64 `json:"conns"`
	// Accepted, Rejected, and Completed count operations admitted into
	// a shard pump, refused (bad op, saturation cap, shutdown), and
	// responded to. Immediate counts the subset of Completed that never
	// entered a pump (stats reads and rejections), so the books
	// balance as completed == accepted + immediate once the server is
	// quiescent. Failed counts accepted operations whose batch group
	// panicked — they completed, with FlagErr.
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Immediate int64 `json:"immediate"`
	Failed    int64 `json:"failed"`
	// Offered counts valid operations routed to a shard at decode time
	// (before admission control), summed across shards; Shed counts
	// those refused by the admission backlog bound (fast FlagErr at the
	// edge, a subset of Immediate). With admission control off, Shed is
	// 0 and Offered == Accepted + Rejected + abandoned ops. Per shard,
	// offered == completed + shed + rejected + abandoned after a drain.
	Offered int64 `json:"offered"`
	Shed    int64 `json:"shed"`
	// AdmitSLONS is the configured admission SLO (Config.SLO) in
	// nanoseconds, 0 when admission control is off.
	AdmitSLONS int64 `json:"admit_slo_ns"`
	// ConformHeadroom is the worst per-shard Theorem 5.4 headroom
	// gauge (measured windowed batch-delay max over the envelope
	// 2·(span+gap); >1 means some shard exceeded the bound), and
	// ConformMaxLandings the worst per-shard Lemma 2 landings count
	// (>2 breaks the lemma). Both from the live conformance monitors.
	ConformHeadroom    float64 `json:"conform_headroom"`
	ConformMaxLandings int64   `json:"conform_max_landings"`
	// DecodeErrors counts connections dropped for malformed frames
	// (oversized length prefixes, short request bodies).
	DecodeErrors int64 `json:"decode_errors"`
	// Evictions counts connections torn down for deadline or protocol
	// violations (idle, write stall, decode error, write error) — not
	// normal closes or shutdown drains.
	Evictions int64 `json:"evictions"`
	// ReadSyscalls and WriteSyscalls count socket read/write syscalls
	// issued by the reactor loops. Their ratio to BatchedOps is the
	// edge's syscall amortization: well under 1 syscall/op when clients
	// pipeline, because one read carves many frames and one write
	// carries many coalesced responses.
	ReadSyscalls  int64 `json:"read_syscalls"`
	WriteSyscalls int64 `json:"write_syscalls"`
	// ReactorLoops is the reactor pool size (reader/writer loop pairs).
	ReactorLoops int `json:"reactor_loops"`
	// BatchPanics counts batch groups whose BOP panicked and was
	// contained, summed across shards (each may have failed several
	// operations).
	BatchPanics int64 `json:"batch_panics"`
	// OpsPerSec is batched throughput: operations completed through the
	// shard pumps (the shard ledgers' completed counts — excluding
	// Immediate responses like stats polling and rejections), averaged
	// over the uptime. It is computed as the sum of the per-shard
	// figures, so sum(PerShard[i].OpsPerSec) == OpsPerSec identically.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Batches and BatchedOps count executed batches and the operations
	// they carried, summed across shards; MeanBatch is their ratio —
	// the achieved batch size, the figure of merit for edge batching.
	Batches    int64   `json:"batches"`
	BatchedOps int64   `json:"batched_ops"`
	MeanBatch  float64 `json:"mean_batch"`
	// QueueDepth is the summed shard-pump ingress depth.
	QueueDepth int `json:"queue_depth"`
	// PerShard is the per-shard breakdown. With skewed keys the shards
	// visibly diverge here — unequal accepted counts, batch sizes, and
	// queue depths — which is the router doing its job, not a bug.
	PerShard []ShardStats `json:"per_shard"`
}

// ShardStats is one shard's slice of the stats document. Its books
// balance independently: accepted == completed after a drain, with
// failed the contained-panic subset — one auditable ledger per shard.
type ShardStats struct {
	Shard int `json:"shard"`
	// Accepted/Completed/Failed are the shard's admission ledger
	// (shard.Shard.Books).
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Offered/Shed/Rejected/Abandoned extend the ledger to the edge:
	// offered ops routed here at decode, shed by the admission bound,
	// rejected without a pump (saturation cap, shutdown), and abandoned
	// (conn died before the pump). After a drain,
	// offered == completed + shed + rejected + abandoned.
	Offered   int64 `json:"offered"`
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"`
	Abandoned int64 `json:"abandoned"`
	// AdmitLimit and AdmitRatePerSec are the admission bound's operands
	// (DESIGN.md §15): the standing-backlog limit in ops (0 = unlimited:
	// admission off, or no completion measured yet) and μ, the measured
	// completion rate it is derived from.
	AdmitLimit      int64   `json:"admit_limit"`
	AdmitRatePerSec float64 `json:"admit_rate_per_sec"`
	// MeasuredP999NS is the lifetime p999 of batcherd_op_total_ns, the
	// end-to-end (read-to-done) latency; scrape /metrics for an interval
	// view.
	MeasuredP999NS int64 `json:"measured_p999_ns"`
	// Conformance is the live Theorem 5.4 / Lemma 2 monitor's windowed
	// gauges for this shard (DESIGN.md §16).
	Conformance obs.ConformSnapshot `json:"conformance"`
	// Batches/BatchedOps/MeanBatch describe the shard runtime's
	// executed batches; OpsPerSec is its pump-completed throughput over
	// the server's uptime — the same basis as the global figure, which
	// is exactly the sum of these.
	Batches    int64   `json:"batches"`
	BatchedOps int64   `json:"batched_ops"`
	MeanBatch  float64 `json:"mean_batch"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// QueueDepth is the shard pump's current ingress depth;
	// BatchPanics its contained-panic count.
	QueueDepth  int   `json:"queue_depth"`
	BatchPanics int64 `json:"batch_panics"`
}

// Snapshot assembles the current Stats. Safe at any time, including
// while serving.
func (s *Server) Snapshot() Stats {
	up := time.Since(s.start).Seconds()
	batches, ops := s.router.LiveBatchStats()
	st := Stats{
		Workers:       s.Runtime().Workers(),
		Shards:        s.router.N(),
		UptimeSec:     up,
		Conns:         s.curConns.Load(),
		Accepted:      s.accepted.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		Immediate:     s.immediate.Load(),
		Failed:        s.failed.Load(),
		DecodeErrors:  s.decodeErr.Load(),
		Evictions:     s.evictions.Load(),
		ReadSyscalls:  s.readSys.Load(),
		WriteSyscalls: s.writeSys.Load(),
		ReactorLoops:  len(s.rloops),
		BatchPanics:   s.router.BatchPanics(),
		Batches:       batches,
		BatchedOps:    ops,
		QueueDepth:    s.router.Depth(),
		PerShard:      make([]ShardStats, s.router.N()),
	}
	if batches > 0 {
		st.MeanBatch = float64(ops) / float64(batches)
	}
	for i := range st.PerShard {
		sh, e := s.router.Shard(i), &s.edge[i]
		acc, comp, failed := sh.Books()
		b, o := sh.Runtime().LiveBatchStats()
		ss := ShardStats{
			Shard:           i,
			Accepted:        acc,
			Completed:       comp,
			Failed:          failed,
			Offered:         e.offered.Load(),
			Shed:            e.shed.Load(),
			Rejected:        e.rejected.Load(),
			Abandoned:       e.abandoned.Load(),
			AdmitLimit:      e.limit.Load(),
			AdmitRatePerSec: math.Float64frombits(e.rate.Load()),
			MeasuredP999NS:  s.shardM[i].totalHist.Quantile(0.999),
			Conformance:     s.shardM[i].conform.Snapshot(),
			Batches:         b,
			BatchedOps:      o,
			QueueDepth:      sh.Pump().Depth(),
			BatchPanics:     sh.Runtime().BatchPanics(),
		}
		st.Offered += ss.Offered
		st.Shed += ss.Shed
		if ss.Conformance.Headroom > st.ConformHeadroom {
			st.ConformHeadroom = ss.Conformance.Headroom
		}
		if ss.Conformance.MaxLandings > st.ConformMaxLandings {
			st.ConformMaxLandings = ss.Conformance.MaxLandings
		}
		if b > 0 {
			ss.MeanBatch = float64(o) / float64(b)
		}
		if up > 0 {
			ss.OpsPerSec = float64(comp) / up
		}
		// The global rate is the sum of the shard rates — one basis
		// (pump-completed ops over uptime), no immediate-op skew.
		st.OpsPerSec += ss.OpsPerSec
		st.PerShard[i] = ss
	}
	st.AdmitSLONS = s.cfg.SLO.Nanoseconds()
	return st
}

// statsJSON renders Snapshot for the wire.
func (s *Server) statsJSON() []byte {
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		// A fixed struct of numbers cannot fail to marshal.
		panic(err)
	}
	return b
}
