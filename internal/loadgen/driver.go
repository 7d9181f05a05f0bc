package loadgen

import (
	"fmt"
	"sync"
	"time"

	"batcher/internal/obs"
	"batcher/internal/rng"
	"batcher/internal/server"
)

// Workload describes one load-generation run.
type Workload struct {
	// Addr is the server address.
	Addr string
	// Conns is the number of concurrent connections. Defaults to 8.
	Conns int
	// Ops is the number of operations per connection. Defaults to 1000.
	Ops int
	// Window is the closed-loop pipelining depth per connection: at most
	// Window requests are outstanding, each response permits the next
	// send. Defaults to 16. Ignored in open-loop mode.
	Window int
	// RatePerSec, when positive, switches to open-loop mode: requests
	// are paced at this aggregate rate across all connections regardless
	// of response progress, so queueing delay shows up as latency
	// instead of reduced throughput.
	RatePerSec float64
	// DS is the target structure (server.DSCounter, DSSkiplist, ...).
	DS uint8
	// ReadFrac is the fraction of operations that are lookups; the rest
	// are inserts. The counter ignores it (increment-only).
	ReadFrac float64
	// KeySpace bounds generated keys, [0, KeySpace). Defaults to 1<<16.
	KeySpace int64
	// KeyDist selects the key distribution: "uniform" (default) or
	// "zipf". Zipfian keys are the shard-aware skew knob: against a
	// sharded batcherd, hot keys concentrate on the shards that own
	// them, so per-shard batch sizes and queue depths visibly diverge in
	// the stats document — the router's placement made observable.
	KeyDist string
	// ZipfS is the zipf exponent (rank weight 1/rank^s). Defaults to
	// 1.1; higher is more skewed. Ignored unless KeyDist is "zipf".
	ZipfS float64
	// Seed seeds the per-connection RNGs.
	Seed uint64

	// zipf is the shared rank CDF, built once by normalize (per-conn
	// RNGs sample it independently; the table itself is read-only).
	zipf *zipfGen
	// Phases requests server-side phase attribution: every request
	// carries server.OpFlagPhases, and each response's echoed stamp
	// vector feeds the Result's batch-delay and per-phase histograms —
	// client-visible latency decomposed into the scheduler's phases.
	Phases bool
}

// normalize applies defaults.
func (w *Workload) normalize() {
	if w.Conns <= 0 {
		w.Conns = 8
	}
	if w.Ops <= 0 {
		w.Ops = 1000
	}
	if w.Window <= 0 {
		w.Window = 16
	}
	if w.KeySpace <= 0 {
		w.KeySpace = 1 << 16
	}
	if w.KeyDist == "zipf" && w.zipf == nil {
		s := w.ZipfS
		if s <= 0 {
			s = 1.1
		}
		w.zipf = newZipfGen(w.KeySpace, s)
	}
}

// Result aggregates a run's outcome.
type Result struct {
	// Sent and Responses count requests written and responses received;
	// Errors counts responses carrying FlagErr — rejections and
	// contained batch-panic failures alike (the server's stats document
	// splits them: rejected vs failed).
	Sent, Responses, Errors int64
	// Elapsed is wall-clock time for the whole run.
	Elapsed time.Duration
	// OpsPerSec is Responses / Elapsed.
	OpsPerSec float64
	// Latency percentiles over per-request round-trip times of OK
	// responses, estimated from a log-bucketed histogram (relative
	// error at most 1/32, i.e. ~3.1%, always rounding up). Max is
	// exact. Error responses keep their own histogram (ErrLatency):
	// under admission control an error is a fast shed, and mixing
	// those short round trips into the percentiles would flatter the
	// served tail. The histogram keeps per-sample cost constant and
	// allocation-free regardless of run length — a million-op
	// open-loop run no longer buffers and sorts a million durations.
	P50, P95, P99, P999, Max time.Duration
	// Latency is the merged OK histogram itself, for callers that want
	// more than the canned percentiles (nil until at least one run
	// merged); ErrLatency is its FlagErr counterpart (nil when the run
	// saw no error response) — the brownout witness asserts sheds
	// answer fast on exactly this split.
	Latency    *obs.Histogram
	ErrLatency *obs.Histogram
	// BatchDelay and Phase aggregate the server-echoed stamp vectors
	// when Workload.Phases was set (nil otherwise): BatchDelay is the
	// paper's per-op batch-delay term (pending-array arrival to batch
	// landing) and Phase[i] the i-th lifecycle phase duration, in
	// obs.PhaseNames order.
	BatchDelay *obs.Histogram
	Phase      [obs.NumPhases - 1]*obs.Histogram
}

func (r Result) String() string {
	s := fmt.Sprintf(
		"sent=%d resp=%d err=%d elapsed=%.3fs throughput=%.0f ops/s p50=%s p95=%s p99=%s p999=%s max=%s",
		r.Sent, r.Responses, r.Errors, r.Elapsed.Seconds(), r.OpsPerSec,
		r.P50, r.P95, r.P99, r.P999, r.Max)
	if r.BatchDelay != nil && r.BatchDelay.Count() > 0 {
		s += fmt.Sprintf(" batch_delay_p50=%s batch_delay_p99=%s batch_delay_max=%s",
			time.Duration(r.BatchDelay.Quantile(0.50)),
			time.Duration(r.BatchDelay.Quantile(0.99)),
			time.Duration(r.BatchDelay.Max()))
	}
	return s
}

// PhaseBreakdown renders the mean and p99 of every phase duration, one
// line per phase, or "" when the run did not request phases.
func (r Result) PhaseBreakdown() string {
	if r.BatchDelay == nil {
		return ""
	}
	var s string
	for i, h := range r.Phase {
		if h == nil {
			continue
		}
		s += fmt.Sprintf("phase %-9s mean=%-12s p99=%-12s max=%s\n",
			obs.PhaseNames[i],
			time.Duration(int64(h.Mean())),
			time.Duration(h.Quantile(0.99)),
			time.Duration(h.Max()))
	}
	return s
}

// agg merges per-connection results into one Result. Its report method
// is safe for concurrent use by connection goroutines.
type agg struct {
	mu      sync.Mutex
	res     Result
	hist    *obs.Histogram
	errHist *obs.Histogram
	first   error
	phases  bool
}

func newAgg(phases bool) *agg {
	a := &agg{hist: obs.NewHistogram(), errHist: obs.NewHistogram(), phases: phases}
	if phases {
		a.res.BatchDelay = obs.NewHistogram()
		for i := range a.res.Phase {
			a.res.Phase[i] = obs.NewHistogram()
		}
	}
	return a
}

func (a *agg) report(cs *connStats, err error) {
	a.mu.Lock()
	a.res.Sent += cs.sent
	a.res.Responses += cs.responses
	a.res.Errors += cs.errors
	a.hist.Merge(cs.lats)
	a.errHist.Merge(cs.errLats)
	if a.phases {
		a.res.BatchDelay.Merge(cs.delay)
		for i := range a.res.Phase {
			a.res.Phase[i].Merge(cs.phase[i])
		}
	}
	if err != nil && a.first == nil {
		a.first = err
	}
	a.mu.Unlock()
}

func (a *agg) finish(elapsed time.Duration) (Result, error) {
	res := a.res
	res.Elapsed = elapsed
	if a.first != nil {
		return res, a.first
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Responses) / elapsed.Seconds()
	}
	if a.hist.Count() > 0 {
		res.Latency = a.hist
		pct := func(p float64) time.Duration { return time.Duration(a.hist.Quantile(p)) }
		res.P50, res.P95, res.P99, res.P999 = pct(0.50), pct(0.95), pct(0.99), pct(0.999)
		res.Max = time.Duration(a.hist.Max())
	}
	if a.errHist.Count() > 0 {
		res.ErrLatency = a.errHist
	}
	return res, nil
}

// Run executes the workload and reports aggregate results. Each
// connection runs its own client goroutine(s); latencies are collected
// per connection and merged at the end.
func Run(w Workload) (Result, error) {
	w.normalize()
	a := newAgg(w.Phases)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < w.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runConn(w, i, a.report)
		}(i)
	}
	wg.Wait()
	return a.finish(time.Since(start))
}

// connStats is one connection's contribution to the aggregate Result.
type connStats struct {
	sent, responses, errors int64
	lats                    *obs.Histogram // OK round trips
	errLats                 *obs.Histogram // FlagErr round trips (sheds, rejections, failures)
	delay                   *obs.Histogram
	phase                   [obs.NumPhases - 1]*obs.Histogram
}

func newConnStats(phases bool) *connStats {
	cs := &connStats{lats: obs.NewHistogram(), errLats: obs.NewHistogram()}
	if phases {
		cs.delay = obs.NewHistogram()
		for i := range cs.phase {
			cs.phase[i] = obs.NewHistogram()
		}
	}
	return cs
}

// observe records one response against its send time. A zero t0 means
// the send time is unknown (open-loop map miss); the response still
// counts, it just contributes no latency sample.
func (cs *connStats) observe(resp server.Response, t0 time.Time) {
	if !t0.IsZero() {
		if resp.Err() {
			cs.errLats.Observe(int64(time.Since(t0)))
		} else {
			cs.lats.Observe(int64(time.Since(t0)))
		}
	}
	if resp.Flags&server.FlagPhases != 0 && cs.delay != nil {
		cs.delay.Observe(obs.BatchDelay(resp.Phases))
		durs := obs.PhaseDurations(resp.Phases)
		for i, h := range cs.phase {
			h.Observe(durs[i])
		}
	}
	cs.responses++
	if resp.Err() {
		cs.errors++
	}
}

// connState is one connection's reusable driving state: the client, its
// RNG, and a ring of send timestamps indexed by request id. Client ids
// are sequential, so with a ring at least Window slots wide the ids in
// flight always map to distinct slots — no map, no per-op allocation,
// and the state survives across Driver.Run calls.
type connState struct {
	c     *Client
	r     *rng.Rand
	times []time.Time
	mask  uint64
}

func newConnState(c *Client, w *Workload, idx int) *connState {
	size := 1
	for size < w.Window {
		size <<= 1
	}
	return &connState{
		c:     c,
		r:     rng.New(w.Seed + uint64(idx)*0x9e3779b97f4a7c15 + 1),
		times: make([]time.Time, size),
		mask:  uint64(size - 1),
	}
}

// nextReq generates the next request from the connection's RNG.
func (st *connState) nextReq(w *Workload) server.Request {
	var key int64
	if w.zipf != nil {
		key = w.zipf.sample(st.r)
	} else {
		key = int64(st.r.Uint64() % uint64(w.KeySpace))
	}
	q := server.Request{DS: w.DS, Key: key}
	if w.DS != server.DSCounter && st.r.Float64() < w.ReadFrac {
		q.Op = server.OpLookup
	} else {
		q.Op = server.OpInsert
		q.Val = q.Key * 2
	}
	if w.DS == server.DSCounter {
		q.Op = server.OpInsert
		q.Val = 1
	}
	if w.Phases {
		q.Op |= server.OpFlagPhases
	}
	return q
}

// recvOne receives one response and matches its send time in the ring.
func (st *connState) recvOne(cs *connStats) error {
	resp, err := st.c.Recv()
	if err != nil {
		return err
	}
	cs.observe(resp, st.times[resp.ID&st.mask])
	return nil
}

// closedLoop drives ops requests with up to w.Window in flight, in
// bursts: top the window up, flush once, then drain half a window of
// responses to make room for the next burst. One flush thus covers up
// to Window/2 requests — the client amortizes its syscalls the same way
// the server's reactor coalesces responses, instead of flushing every
// op at steady state. Latency is measured from Send, so it includes the
// sub-burst buffering delay; that is the honest cost of the pipelining
// the run asked for.
func closedLoop(w *Workload, st *connState, ops int, cs *connStats) error {
	burst := w.Window / 2
	if burst < 1 {
		burst = 1
	}
	inFlight, sent := 0, 0
	for sent < ops || inFlight > 0 {
		for inFlight < w.Window && sent < ops {
			id, err := st.c.Send(st.nextReq(w))
			if err != nil {
				return err
			}
			st.times[id&st.mask] = time.Now()
			cs.sent++
			sent++
			inFlight++
		}
		if err := st.c.Flush(); err != nil {
			return err
		}
		drainTo := w.Window - burst
		if sent == ops {
			drainTo = 0 // nothing left to send: drain the tail
		}
		for inFlight > drainTo {
			if err := st.recvOne(cs); err != nil {
				return err
			}
			inFlight--
		}
	}
	return nil
}

// runConn drives one connection. In closed-loop mode a single goroutine
// interleaves burst sends and receives, keeping up to Window requests
// in flight. In open-loop mode a sender paces requests on schedule
// while a separate receiver drains responses. Responses arrive in
// completion order, so send timestamps are matched to responses by
// request id.
func runConn(w Workload, idx int, report func(*connStats, error)) {
	cs := newConnStats(w.Phases)
	fail := func(err error) { report(cs, err) }

	c, err := Dial(w.Addr)
	if err != nil {
		fail(err)
		return
	}
	defer c.Close()
	st := newConnState(c, &w, idx)

	if w.RatePerSec > 0 {
		// Open-loop: pace sends; drain responses concurrently. In-flight
		// count is unbounded here, so send times live in a map keyed by
		// id rather than the fixed ring.
		sendTimes := make(map[uint64]time.Time, w.Window)
		var stMu sync.Mutex
		interval := time.Duration(float64(w.Conns) * float64(time.Second) / w.RatePerSec)
		recvDone := make(chan error, 1)
		remaining := w.Ops
		go func() {
			for i := 0; i < remaining; i++ {
				resp, err := c.Recv()
				if err != nil {
					recvDone <- err
					return
				}
				stMu.Lock()
				t0 := sendTimes[resp.ID]
				delete(sendTimes, resp.ID)
				stMu.Unlock()
				cs.observe(resp, t0)
			}
			recvDone <- nil
		}()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for i := 0; i < w.Ops; i++ {
			<-tick.C
			q := st.nextReq(&w)
			stMu.Lock()
			id, err := c.Send(q)
			if err == nil {
				sendTimes[id] = time.Now()
				err = c.Flush()
			}
			stMu.Unlock()
			if err != nil {
				fail(err)
				return
			}
			cs.sent++
		}
		if err := <-recvDone; err != nil {
			fail(err)
			return
		}
		report(cs, nil)
		return
	}

	if err := closedLoop(&w, st, w.Ops, cs); err != nil {
		fail(err)
		return
	}
	report(cs, nil)
}

// Driver is a pre-dialed closed-loop workload: NewDriver dials every
// connection up front, then each Run drives a chosen number of
// operations over the established connections. Benchmarks use it so
// that high-fan-in runs (hundreds or thousands of connections) measure
// steady-state per-op cost, not dialing and teardown — dial once,
// ResetTimer, then Run b.N ops. Runs reuse all per-connection state
// (buffers, RNGs, timestamp rings); request ids keep advancing across
// Runs. Not safe for concurrent Runs.
type Driver struct {
	w     Workload
	conns []*connState
}

// NewDriver normalizes the workload (open-loop is not supported:
// RatePerSec is ignored) and dials w.Conns connections.
func NewDriver(w Workload) (*Driver, error) {
	w.normalize()
	w.RatePerSec = 0
	d := &Driver{w: w}
	for i := 0; i < w.Conns; i++ {
		c, err := Dial(w.Addr)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("loadgen: dial conn %d/%d: %w", i, w.Conns, err)
		}
		d.conns = append(d.conns, newConnState(c, &w, i))
	}
	return d, nil
}

// Conns reports how many connections the driver holds.
func (d *Driver) Conns() int { return len(d.conns) }

// Run drives totalOps operations split evenly across the pre-dialed
// connections (the first totalOps mod Conns connections carry one
// extra) and reports the aggregate, like the package-level Run but
// without dial cost. Workload.Ops is ignored; totalOps governs.
func (d *Driver) Run(totalOps int) (Result, error) {
	a := newAgg(d.w.Phases)
	per, extra := totalOps/len(d.conns), totalOps%len(d.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i, st := range d.conns {
		n := per
		if i < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(st *connState, n int) {
			defer wg.Done()
			cs := newConnStats(d.w.Phases)
			a.report(cs, closedLoop(&d.w, st, n, cs))
		}(st, n)
	}
	wg.Wait()
	return a.finish(time.Since(start))
}

// Close closes every connection.
func (d *Driver) Close() {
	for _, st := range d.conns {
		st.c.Close()
	}
}
