package server

// The reactor pool: batcherd's wire edge, restructured from
// two-goroutines-per-connection into a small set of shared loops so the
// per-operation cost of the edge stays flat from 1 to 1024 connections.
//
// N reader loops (Config.ReactorLoops, NumCPU-capped) own the sockets,
// sharded by accept order. On Linux each reader loop is an epoll event
// loop doing raw non-blocking reads into a per-loop frame buffer; one
// read syscall carves out every complete frame the peer has pipelined,
// and the decoded operations are submitted to the pump in bulk
// (sched.Pump.SubmitAll — one mutex acquisition, one wake). N writer
// loops coalesce completed responses across connections: completions
// land in a loop's intake, one sweep encodes every response into its
// connection's output buffer, and each touched connection then gets one
// write syscall carrying all of its frames — the wire-level analogue of
// the pending-array sweep (flat combining's single-combiner pass,
// applied to sockets).
//
// A connection no longer owns goroutines or channels. It keeps its
// in-flight window — the slot accounting that maps to TCP backpressure
// — as a counter: slots are taken when a frame is decoded and released
// when its response bytes fully drain to the kernel. A connection that
// cannot make progress is *parked*, never waited on:
//
//   - window full     -> reader interest off; resumed when a flush
//     releases slots (the writer kicks the reader loop),
//   - pump saturated  -> decoded ops sit in conn.pending, reader
//     interest off; retried when a completion frees queue space or on
//     the sweep tick, rejected with FlagErr past SaturationTimeout,
//   - peer not reading -> the write is attempted non-blocking; leftover
//     bytes stay in conn.outbuf and the connection joins the writer
//     loop's blocked list, evicted past WriteStallTimeout — without
//     ever stalling the loop's other connections,
//   - peer silent     -> the reader loop's sweep evicts it past
//     IdleTimeout.
//
// Locking: conn.mu guards all per-connection state and is ordered
// before every other lock (loop intake/registration mutexes, the
// saturation list, the server's conn set). Loop-local structures
// (dirty/blocked lists, scratch buffers) are touched only by their
// loop's goroutine. Raw fd operations happen under conn.mu and check
// the connection state first, so a concurrently evicted fd is never
// read, written, or re-armed after close.

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"batcher/internal/obs"
	"batcher/internal/sched"
)

// Connection states. Transitions happen under conn.mu; the atomic lets
// loops peek without taking the lock.
const (
	connOpen int32 = iota
	// connClosed: the socket is closed and no new work is created, but
	// operations already in the pump still reference the conn; it is
	// finalized (connWG released) when the last reference retires.
	connClosed
)

// Eviction reasons, for the evictions counter and tests.
type evictReason uint8

const (
	evictReadError   evictReason = iota // I/O error or EOF from the peer
	evictDecodeError                    // malformed frame (counted in decodeErr too)
	evictIdle                           // no complete frame within IdleTimeout
	evictWriteStall                     // responses unread past WriteStallTimeout
	evictWriteError                     // I/O error writing a response
	evictShutdown                       // drain finished or DrainTimeout force
)

// abnormal reports whether the reason counts toward the evictions stat
// (peer misbehavior), as opposed to a normal close or shutdown.
func (r evictReason) abnormal() bool {
	switch r {
	case evictDecodeError, evictIdle, evictWriteStall, evictWriteError:
		return true
	}
	return false
}

const (
	// readBufSize is each reader loop's frame buffer: one raw read can
	// carry up to this many bytes of pipelined frames.
	readBufSize = 64 << 10
	// sweepInterval bounds how long idle/saturation deadlines wait for
	// the next check; it is the epoll wait timeout.
	sweepInterval = 50 * time.Millisecond
	// blockedRetry is the writer loop's cadence for retrying
	// connections whose last write could not complete.
	blockedRetry = 5 * time.Millisecond
)

// conn is one accepted connection under the reactor. Compare the
// pre-reactor conn: the out and window channels are gone — per-loop
// state replaces per-conn goroutine state — but the window itself
// survives as refs+outN, preserving the backpressure mapping.
type conn struct {
	s  *Server
	nc net.Conn
	fd int // raw socket fd (epoll path); -1 on the fallback path
	rl *rloop
	wl *wloop

	state atomic.Int32 // connOpen/connClosed; written under mu
	inSat atomic.Bool  // on the server's saturation retry list

	mu sync.Mutex
	// refs counts live *request records referencing this conn (decoded
	// but not yet retired: in pending, in the pump, in a writer intake).
	// outN counts responses encoded into outbuf whose window slots are
	// still held. refs+outN is the in-flight window usage; the reader
	// admits a new frame only while refs+outN < Config.Window.
	refs int
	outN int
	// paused: reader interest is off (window full, saturation, quit).
	paused bool
	// carry holds bytes of an incomplete frame (or frames decoded past
	// the window limit) between reads.
	carry []byte
	// pending holds decoded operations awaiting pump admission, each
	// still owning a window slot; satDeadline (per-op, in rq.start) is
	// enforced by the sweep.
	pending []*request
	// lastFrame is the obs.Now stamp of the last complete frame (or
	// resume), the idle-deadline clock.
	lastFrame int64
	// outbuf accumulates encoded responses awaiting one write syscall;
	// wstart stamps when a write first failed to drain it (the
	// write-stall clock). wdirty/wblocked track membership in the
	// writer loop's local lists.
	outbuf   []byte
	wstart   int64
	wdirty   bool
	wblocked bool

	finalized bool

	// resume wakes the fallback per-conn reader (nil on the epoll path).
	resume chan struct{}
}

// rloop is one reader loop: a shard of connections whose sockets it
// drains. On Linux run() is an epoll event loop (poll_linux.go); on
// other platforms the loop only provides kick/registration plumbing and
// each conn reads on its own goroutine (poll_other.go).
type rloop struct {
	s  *Server
	id int

	mu     sync.Mutex
	conns  map[*conn]struct{}
	fds    map[int]*conn
	kicked []*conn

	poll *poller // epoll instance; nil on the fallback path

	sc   edgeScratch
	snap []*conn // sweep snapshot scratch
}

// edgeScratch is the per-loop (per-conn on the fallback path) decode
// scratch: reused across ingests so the steady state allocates nothing.
type edgeScratch struct {
	readBuf []byte
	subs    []*request // pump-bound ops of the current ingest
	imms    []*request // immediate responses of the current ingest
	recs    []*sched.OpRecord
	// Per-shard submission scratch (submitSpans): groups buckets the
	// current batch by target shard, touched lists the buckets in use,
	// sat collects the saturated leftovers across shards.
	groups  [][]*request
	touched []int
	sat     []*request
}

// initShards pre-sizes the per-shard buckets (grown defensively by
// submitSpans too, for scratches built off the Start path).
func (sc *edgeScratch) initShards(n int) {
	if len(sc.groups) < n {
		sc.groups = make([][]*request, n)
	}
}

// wloop is one writer loop. complete() and the reader loops enqueue
// finished requests into intake; the loop's sweep encodes every intake
// entry into its conn's outbuf and then flushes each touched conn with
// one write syscall.
type wloop struct {
	s  *Server
	id int

	mu     sync.Mutex
	intake []*request
	spare  []*request
	notify chan struct{}

	// Loop-local (no locks): conns to flush this sweep, conns with
	// unwritten bytes awaiting retry, and their swap scratch.
	dirty        []*conn
	blocked      []*conn
	blockedSpare []*conn
	timer        *time.Timer
}

// enqueue hands one finished request to the loop. Bounded work: an
// append under a short mutex plus a non-blocking notify — safe from
// scheduler workers (complete must never block).
func (w *wloop) enqueue(rq *request) {
	w.mu.Lock()
	w.intake = append(w.intake, rq)
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// kick asks the reader loop to re-examine c (resume reading, retry
// pending submissions) on its own goroutine.
func (l *rloop) kick(c *conn) {
	if c.resume != nil { // fallback path: the conn's goroutine resumes itself
		select {
		case c.resume <- struct{}{}:
		default:
		}
		return
	}
	l.mu.Lock()
	l.kicked = append(l.kicked, c)
	l.mu.Unlock()
	l.poll.wake()
}

// drainKicks runs deferred resume work on the loop goroutine.
func (l *rloop) drainKicks() {
	l.mu.Lock()
	kicked := l.kicked
	l.kicked = nil
	l.mu.Unlock()
	for _, c := range kicked {
		l.resumeConn(c, &l.sc)
	}
}

// ingest carves frames out of data (preceded by any carry from earlier
// reads), dispatches each decoded request, and submits the pump-bound
// batch. It returns false when the caller should stop reading this
// conn: the conn was evicted, or parked (window full / pump saturated /
// shutdown). data may be empty to process carry alone (resume).
func (s *Server) ingest(c *conn, data []byte, sc *edgeScratch) bool {
	now := obs.Now()
	sc.subs = sc.subs[:0]
	sc.imms = sc.imms[:0]
	var evict evictReason
	evicting := false

	c.mu.Lock()
	if c.state.Load() != connOpen {
		c.mu.Unlock()
		return false
	}
	buf := data
	if len(c.carry) > 0 {
		c.carry = append(c.carry, data...)
		buf = c.carry
	}
	for {
		if c.refs+c.outN >= s.cfg.Window || len(c.pending) > 0 || s.quitting() {
			c.paused = true
			break
		}
		body, rest, ok, err := SplitFrame(buf)
		if err != nil {
			s.decodeErr.Add(1)
			evicting, evict = true, evictDecodeError
			break
		}
		if !ok {
			break
		}
		q, err := DecodeRequest(body)
		if err != nil {
			s.decodeErr.Add(1)
			evicting, evict = true, evictDecodeError
			break
		}
		buf = rest
		c.lastFrame = now
		c.refs++
		s.classify(c, q, sc)
	}
	// Stash the unconsumed tail (an incomplete frame, or complete
	// frames past the window limit — bounded by one read buffer) for
	// the next ingest. The copy keeps carry's capacity across frames.
	if len(buf) > 0 {
		if len(c.carry) > 0 {
			n := copy(c.carry, buf)
			c.carry = c.carry[:n]
		} else {
			c.carry = append(c.carry[:0], buf...)
		}
	} else {
		c.carry = c.carry[:0]
	}
	paused := c.paused
	if paused && !evicting {
		c.setReadInterestLocked(false)
	}
	c.mu.Unlock()

	// Immediate responses (stats, rejections) go straight to the writer
	// loop; the stats payload is rendered outside conn.mu.
	for _, rq := range sc.imms {
		if rq.flags&FlagPayload != 0 && rq.payload == nil {
			rq.payload = s.statsJSON()
		}
		c.wl.enqueue(rq)
	}
	if len(sc.subs) > 0 {
		s.submitBatch(c, sc)
	}
	if evicting {
		s.evict(c, evict)
		return false
	}
	return !paused
}

// classify routes one decoded request under c.mu: immediate responses
// are collected in sc.imms, pump-bound operations in sc.subs. Mirrors
// the pre-reactor dispatch, minus all blocking.
func (s *Server) classify(c *conn, q Request, sc *edgeScratch) {
	rq := s.reqPool.Get().(*request)
	rq.c = c
	rq.id = q.ID
	rq.flags = 0
	rq.echo = q.Op&OpFlagPhases != 0
	rq.phased = false
	rq.payload = nil
	rq.dsIdx = 0
	rq.shard = 0
	rq.op.Kind = 0
	rq.op.Key = q.Key
	rq.op.Val = q.Val
	rq.op.Res = 0
	rq.op.Ok = false
	rq.op.Err = nil // pooled records may carry a prior contained-panic Err
	q.Op &^= OpFlagPhases
	// PhaseRead: the request is decoded and its window slot held.
	// Stamped before target validation so even rejected ops carry a
	// coherent vector (the phase-sum invariant relies on it).
	rq.op.Phases[obs.PhaseRead] = obs.Now()

	if q.DS == DSStats {
		rq.flags = FlagOK | FlagPayload
		s.immediate.Add(1)
		sc.imms = append(sc.imms, rq)
		return
	}
	kind, ok := opKind(q.DS, q.Op)
	if !ok {
		s.rejected.Add(1)
		s.immediate.Add(1)
		rq.flags = FlagErr
		sc.imms = append(sc.imms, rq)
		return
	}
	// Route: the shard decides which runtime batches the op and which
	// structure instance serves it (shard.Of for keyed structures, the
	// home shard for the keyless counter).
	sh := s.shardFor(q.DS, q.Key)
	rq.shard = int32(sh)
	// Offered first, so the backlog the bound is checked against counts
	// this operation too.
	e := &s.edge[sh]
	e.offered.Add(1)
	if limit := e.limit.Load(); limit != 0 && s.backlog(sh) > limit {
		// The shard already holds more standing work than it serves in
		// half the SLO: shed at the edge with an immediate FlagErr — a
		// fast no from a healthy server — instead of parking into the
		// saturation list where the op would burn its whole timeout to
		// learn the same answer.
		e.shed.Add(1)
		s.immediate.Add(1)
		rq.flags = FlagErr
		sc.imms = append(sc.imms, rq)
		return
	}
	rq.op.DS = s.router.Shard(sh).DS(int(q.DS))
	rq.op.Kind = kind
	rq.dsIdx = int8(q.DS)
	rq.start = time.Now()
	sc.subs = append(sc.subs, rq)
}

// submitSpans groups reqs by target shard and bulk-submits each shard's
// span with one SubmitAll — PR-7's one-lock-per-span bulk admission,
// now per shard. Requests refused by a closed pump are rejected with
// FlagErr inline; requests a saturated shard refused are returned for
// the caller to park (decode order within each shard is preserved; the
// returned slice is scratch-backed and must be copied out before the
// next ingest on this scratch).
func (s *Server) submitSpans(c *conn, reqs []*request, sc *edgeScratch) []*request {
	if s.router.N() == 1 {
		// Fast path: no grouping pass between the wire and the pump.
		return s.submitSpan(c, 0, reqs, sc)
	}
	sc.initShards(s.router.N())
	touched := sc.touched[:0]
	for _, rq := range reqs {
		g := int(rq.shard)
		if len(sc.groups[g]) == 0 {
			touched = append(touched, g)
		}
		sc.groups[g] = append(sc.groups[g], rq)
	}
	sc.sat = sc.sat[:0]
	for _, g := range touched {
		span := sc.groups[g]
		sc.sat = append(sc.sat, s.submitSpan(c, g, span, sc)...)
		for i := range span {
			span[i] = nil
		}
		sc.groups[g] = span[:0]
	}
	sc.touched = touched[:0]
	return sc.sat
}

// submitSpan submits one shard's span in bulk and returns the
// saturated suffix (nil when fully admitted or rejected-on-closed).
func (s *Server) submitSpan(c *conn, shardID int, span []*request, sc *edgeScratch) []*request {
	sc.recs = sc.recs[:0]
	for _, rq := range span {
		sc.recs = append(sc.recs, &rq.op)
	}
	n, err := s.router.Shard(shardID).SubmitAll(sc.recs)
	if n > 0 {
		s.accepted.Add(int64(n))
	}
	rest := span[n:]
	if len(rest) == 0 {
		return nil
	}
	if err == sched.ErrPumpClosed {
		s.rejectAll(c, rest)
		return nil
	}
	return rest
}

// submitBatch pushes this ingest's pump-bound operations into their
// target shards in bulk. A saturated shard parks its unadmitted suffix
// in c.pending (the conn is already read-paused by ingest or is paused
// here) to be retried by completions and the sweep; a closed pump
// rejects it.
func (s *Server) submitBatch(c *conn, sc *edgeScratch) {
	sat := s.submitSpans(c, sc.subs, sc)
	if len(sat) == 0 {
		return
	}
	c.mu.Lock()
	if c.state.Load() != connOpen {
		// Evicted while we were submitting: the admitted prefix drains
		// through the pumps; the rest retires without responses.
		c.mu.Unlock()
		s.retireAbandoned(c, sat)
		return
	}
	c.pending = append(c.pending, sat...)
	c.paused = true
	c.setReadInterestLocked(false)
	c.mu.Unlock()
	s.satAdd(c)
}

// rejectAll answers rest with FlagErr (saturation cap, shutdown),
// matching the pre-reactor park-timeout semantics.
func (s *Server) rejectAll(c *conn, rest []*request) {
	for _, rq := range rest {
		s.rejected.Add(1)
		s.immediate.Add(1)
		s.edge[rq.shard].rejected.Add(1)
		rq.flags = FlagErr
		c.wl.enqueue(rq)
	}
}

// retireAbandoned drops requests whose conn died before they entered
// the pump: no response is possible, the records just return to the
// pool and the refs fall away.
func (s *Server) retireAbandoned(c *conn, rqs []*request) {
	if len(rqs) == 0 {
		return
	}
	for _, rq := range rqs {
		s.edge[rq.shard].abandoned.Add(1)
		rq.payload = nil
		rq.c = nil
		s.reqPool.Put(rq)
	}
	c.mu.Lock()
	c.refs -= len(rqs)
	c.mu.Unlock()
	s.maybeFinalize(c)
}

// resumeConn re-examines a parked conn on its reader goroutine: retry
// the pending pump submissions, then — if the window has room and
// nothing is pending — unpark the reader and process any stashed
// frames. sc is the caller's scratch (the loop's on the epoll path, the
// conn goroutine's on the fallback path).
func (l *rloop) resumeConn(c *conn, sc *edgeScratch) {
	s := l.s
	c.mu.Lock()
	for {
		if c.state.Load() != connOpen || !c.paused {
			c.mu.Unlock()
			return
		}
		if len(c.pending) == 0 {
			break // fall through to unpark, mu held
		}
		// Check the pending batch out of the conn before unlocking for
		// the submission: evict may run concurrently, and slice
		// ownership must be unambiguous — whoever holds it retires it.
		batch := c.pending
		c.pending = nil
		c.mu.Unlock()

		// Per-shard retry: the batch may mix shards (closed-pump
		// leftovers are rejected inside; only still-saturated ops come
		// back).
		rest := s.submitSpans(c, batch, sc)
		c.mu.Lock()
		if c.state.Load() != connOpen {
			c.mu.Unlock()
			s.retireAbandoned(c, rest)
			return
		}
		if len(rest) == 0 {
			c.pending = batch[:0]
			continue
		}
		// Still saturated: keep the remainder (copy back into the
		// checked-out array — rest may be scratch-backed) and stay
		// parked.
		c.pending = append(batch[:0], rest...)
		c.mu.Unlock()
		s.satAdd(c)
		return
	}
	// mu held, state open, pending empty: unpark if the window allows.
	if c.refs+c.outN >= s.cfg.Window || s.quitting() {
		c.mu.Unlock()
		return
	}
	c.paused = false
	c.lastFrame = obs.Now()
	c.setReadInterestLocked(true)
	c.mu.Unlock()
	// Frames stashed past the old window limit decode now; then drain
	// whatever arrived while parked.
	if s.ingest(c, nil, sc) {
		l.readable(c, sc)
	}
}

// sweepOne enforces c's clock-driven deadlines: saturation-expired
// pending ops are rejected with FlagErr (each op's clock started at
// decode), and idle reports whether the conn outlived IdleTimeout
// without a complete frame (paused conns are exempt — they are parked
// on us, not on the peer). retry reports a resume attempt is due.
func (l *rloop) sweepOne(c *conn, now int64) (idle, retry bool) {
	s := l.s
	var rejects []*request
	c.mu.Lock()
	if c.state.Load() != connOpen {
		c.mu.Unlock()
		return false, false
	}
	idle = !c.paused && s.cfg.IdleTimeout > 0 &&
		now-c.lastFrame > int64(s.cfg.IdleTimeout)
	if n := len(c.pending); n > 0 && s.cfg.SaturationTimeout > 0 {
		cut := 0
		for cut < n && time.Since(c.pending[cut].start) > s.cfg.SaturationTimeout {
			cut++
		}
		if cut > 0 {
			rejects = append(rejects, c.pending[:cut]...)
			c.pending = append(c.pending[:0], c.pending[cut:]...)
		}
	}
	retry = len(c.pending) > 0 || len(rejects) > 0
	c.mu.Unlock()
	if len(rejects) > 0 {
		s.rejectAll(c, rejects)
	}
	return idle, retry
}

// sweep enforces the clock-driven edges of the conn state machine:
// idle eviction, saturation timeouts, and (once quitting) the
// quiescent-conn close that lets the drain finish.
func (l *rloop) sweep(now int64) {
	s := l.s
	l.mu.Lock()
	l.snap = l.snap[:0]
	for c := range l.conns {
		l.snap = append(l.snap, c)
	}
	l.mu.Unlock()

	quitting := s.quitting()
	for i, c := range l.snap {
		l.snap[i] = nil
		if c.state.Load() != connOpen {
			continue
		}
		if quitting {
			l.sweepQuit(c)
			continue
		}
		idle, retry := l.sweepOne(c, now)
		if idle {
			s.evict(c, evictIdle)
			continue
		}
		if retry {
			l.resumeConn(c, &l.sc)
		}
	}
}

// sweepQuit parks a conn for shutdown: reading stops, parked
// submissions are rejected (exactly what the pre-reactor saturation
// park did at quit), and a conn with nothing in flight closes now.
// Conns with in-flight work close from the writer loop's flush when
// their last response drains.
func (l *rloop) sweepQuit(c *conn) {
	s := l.s
	c.mu.Lock()
	if c.state.Load() != connOpen {
		c.mu.Unlock()
		return
	}
	c.paused = true
	c.setReadInterestLocked(false)
	var rejects []*request
	if len(c.pending) > 0 {
		rejects = append(rejects, c.pending...)
		c.pending = c.pending[:0]
	}
	quiescent := c.refs == 0 && c.outN == 0 && len(c.outbuf) == 0
	c.mu.Unlock()
	if len(rejects) > 0 {
		s.rejectAll(c, rejects)
		return
	}
	if quiescent {
		s.evict(c, evictShutdown)
	}
}

// satAdd registers a saturation-parked conn for completion-driven
// retries (kickSaturated); the sweep is the timeout backstop.
func (s *Server) satAdd(c *conn) {
	if c.inSat.CompareAndSwap(false, true) {
		s.satMu.Lock()
		s.satConns = append(s.satConns, c)
		s.satMu.Unlock()
		s.satCount.Add(1)
	}
}

// kickSaturated is called from complete() when queue space just freed:
// every parked conn gets a resume attempt on its reader loop. The
// atomic count keeps the common (unsaturated) case to one load.
func (s *Server) kickSaturated() {
	s.satMu.Lock()
	conns := s.satConns
	s.satConns = nil
	s.satMu.Unlock()
	for _, c := range conns {
		c.inSat.Store(false)
		s.satCount.Add(-1)
		c.rl.kick(c)
	}
}

// run is the writer loop: wait for completions (or the retry tick when
// connections are write-blocked), encode everything in the intake, and
// flush each touched connection with one write syscall.
func (w *wloop) run() {
	defer w.s.srvWG.Done()
	w.timer = time.NewTimer(time.Hour)
	w.timer.Stop()
	for {
		if len(w.blocked) > 0 {
			w.timer.Reset(blockedRetry)
			select {
			case <-w.notify:
				w.timer.Stop()
			case <-w.timer.C:
			case <-w.s.edgeStop:
			}
		} else {
			select {
			case <-w.notify:
			case <-w.s.edgeStop:
			}
		}

		// Drain the intake to empty before flushing, yielding between
		// passes: a landed batch retires its strands one resumption at a
		// time, so the completions trickle in a few scheduler slices
		// apart. The yield lets the workers finish resuming the batch
		// and those responses join this sweep's writes instead of each
		// forcing its own syscall. The loop is bounded — encoding does
		// not release window slots, so at most conns x Window responses
		// can accumulate before a flush is the only way forward.
		for empty := 0; empty < 2; {
			w.mu.Lock()
			batch := w.intake
			w.intake = w.spare[:0]
			w.spare = batch
			w.mu.Unlock()
			if len(batch) == 0 {
				empty++
			} else {
				empty = 0
				for i, rq := range batch {
					w.encode(rq)
					batch[i] = nil
				}
			}
			runtime.Gosched()
		}

		now := obs.Now()
		for i, c := range w.dirty {
			w.flush(c, now)
			w.dirty[i] = nil
		}
		w.dirty = w.dirty[:0]
		w.retryBlocked(now)

		if w.s.edgeStopped() && len(w.blocked) == 0 && !w.pendingIntake() {
			return
		}
	}
}

func (w *wloop) pendingIntake() bool {
	w.mu.Lock()
	n := len(w.intake)
	w.mu.Unlock()
	return n > 0
}

// encode serializes one finished request into its conn's output buffer
// (or discards it if the conn died) and retires the record. The window
// slot moves from refs to outN; it is released when the bytes drain.
func (w *wloop) encode(rq *request) {
	c := rq.c
	c.mu.Lock()
	if c.state.Load() == connOpen {
		flags := rq.flags
		if flags == 0 && rq.op.Ok {
			flags = FlagOK
		}
		resp := Response{
			ID:      rq.id,
			Flags:   flags,
			Key:     rq.op.Key,
			Res:     rq.op.Res,
			Payload: rq.payload,
		}
		if rq.echo && rq.phased {
			resp.Flags |= FlagPhases
			resp.Phases = rq.op.Phases
		}
		c.outbuf = AppendResponse(c.outbuf, resp)
		c.outN++
		c.refs--
		if !c.wdirty && !c.wblocked {
			c.wdirty = true
			w.dirty = append(w.dirty, c)
		}
		c.mu.Unlock()
	} else {
		c.refs--
		c.mu.Unlock()
		w.s.maybeFinalize(c)
	}
	w.s.completed.Add(1)
	rq.payload = nil
	rq.c = nil
	w.s.reqPool.Put(rq)
}

// flush writes c's buffered responses with as few syscalls as the
// kernel allows — one, when the socket buffer has room. A write that
// cannot complete parks the conn on the blocked list (stall clock
// running) instead of blocking the loop. A full drain releases the
// window slots, kicks the reader if it was parked on the window, and —
// during shutdown — closes a conn whose last response just left.
func (w *wloop) flush(c *conn, now int64) {
	s := w.s
	needKick := false
	drainClose := false
	c.mu.Lock()
	c.wdirty = false
	if c.state.Load() != connOpen {
		c.wblocked = false
		c.mu.Unlock()
		return
	}
	for len(c.outbuf) > 0 {
		n, again, err := c.tryWrite(c.outbuf)
		s.writeSys.Add(1)
		if n > 0 {
			if n == len(c.outbuf) {
				c.outbuf = c.outbuf[:0]
			} else {
				rem := copy(c.outbuf, c.outbuf[n:])
				c.outbuf = c.outbuf[:rem]
			}
		}
		if err != nil {
			c.mu.Unlock()
			s.evict(c, evictWriteError)
			return
		}
		if again && len(c.outbuf) > 0 {
			if c.wstart == 0 {
				c.wstart = now
			}
			if !c.wblocked {
				c.wblocked = true
				w.blocked = append(w.blocked, c)
			}
			c.mu.Unlock()
			return
		}
	}
	c.wstart = 0
	c.wblocked = false
	if c.outN > 0 {
		c.outN = 0
		if c.paused && len(c.pending) == 0 {
			needKick = true
		}
	}
	if s.quitting() && c.refs == 0 && len(c.pending) == 0 {
		drainClose = true
	}
	c.mu.Unlock()
	if needKick && !drainClose {
		c.rl.kick(c)
	}
	if drainClose {
		s.evict(c, evictShutdown)
	}
}

// retryBlocked re-attempts every write-blocked conn and evicts the ones
// whose stall outlived WriteStallTimeout — reclaiming their window
// slots without their loop-mates ever waiting on them.
func (w *wloop) retryBlocked(now int64) {
	if len(w.blocked) == 0 {
		return
	}
	blocked := w.blocked
	w.blocked = w.blockedSpare[:0]
	w.blockedSpare = blocked
	stall := w.s.cfg.WriteStallTimeout
	for i, c := range blocked {
		blocked[i] = nil
		c.mu.Lock()
		if c.state.Load() != connOpen || !c.wblocked {
			c.wblocked = false
			c.mu.Unlock()
			continue
		}
		if stall > 0 && c.wstart != 0 && now-c.wstart > int64(stall) {
			c.mu.Unlock()
			w.s.evict(c, evictWriteStall)
			continue
		}
		c.wblocked = false
		c.mu.Unlock()
		w.flush(c, now)
	}
}

// evict tears a connection down from any goroutine: the state flips
// under conn.mu (making every later fd operation a no-op), the socket
// closes, parked submissions retire without responses, and buffered
// output is abandoned. Operations already in the pump still complete —
// their records are discarded by the writer loop — and the conn
// finalizes when the last of them retires.
func (s *Server) evict(c *conn, reason evictReason) {
	c.mu.Lock()
	if c.state.Load() != connOpen {
		c.mu.Unlock()
		return
	}
	c.detachLocked() // platform: epoll DEL + fd map removal
	c.state.Store(connClosed)
	pend := c.pending
	c.pending = nil
	c.outbuf = nil
	c.carry = nil
	c.outN = 0
	c.refs -= len(pend)
	c.paused = true
	c.mu.Unlock()
	c.nc.Close()
	if c.resume != nil { // unblock a parked fallback reader
		select {
		case c.resume <- struct{}{}:
		default:
		}
	}
	if reason.abnormal() {
		s.evictions.Add(1)
	}
	for _, rq := range pend {
		s.edge[rq.shard].abandoned.Add(1)
		rq.payload = nil
		rq.c = nil
		s.reqPool.Put(rq)
	}
	s.maybeFinalize(c)
}

// maybeFinalize releases the conn's shutdown accounting once nothing
// references it anymore. Idempotent; called wherever refs can reach 0.
func (s *Server) maybeFinalize(c *conn) {
	c.mu.Lock()
	fin := c.state.Load() == connClosed && c.refs == 0 && !c.finalized
	if fin {
		c.finalized = true
	}
	c.mu.Unlock()
	if !fin {
		return
	}
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.curConns.Add(-1)
	s.connWG.Done()
}

// quitting reports whether Shutdown has begun.
func (s *Server) quitting() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// edgeStopped reports whether the loops may exit (every conn finalized).
func (s *Server) edgeStopped() bool {
	select {
	case <-s.edgeStop:
		return true
	default:
		return false
	}
}
