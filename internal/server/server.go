package server

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"batcher/internal/ds/counter"
	"batcher/internal/ds/hashmap"
	"batcher/internal/ds/skiplist"
	"batcher/internal/ds/tree23"
	"batcher/internal/obs"
	"batcher/internal/sched"
	"batcher/internal/shard"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address. Defaults to "127.0.0.1:0" (an
	// ephemeral loopback port; read it back from Server.Addr).
	Addr string
	// Shards is the number of independent runtime shards behind the
	// listener (internal/shard): each shard is its own scheduler,
	// pump, and structure set, and requests route to shards by
	// hash(ds, key). Defaults to 1, the single-runtime layout.
	Shards int
	// Workers is P, the scheduler worker count *per shard*. Zero means
	// GOMAXPROCS per shard.
	Workers int
	// Seed seeds the schedulers' RNGs and the hashed structures (each
	// shard derives its own sub-seeds, so shards are not clones).
	Seed uint64
	// QueueCap bounds each shard's pump ingress queue (see
	// sched.PumpConfig). Per shard: saturation is a per-shard condition.
	QueueCap int
	// Policy is the batch-formation policy installed on every shard's
	// runtime (sched.BatchPolicy; see internal/sched/policy for the
	// shipped competitors). Nil means the scheduler default — launch
	// at once and top the batch up from the backlog. The chosen policy's
	// name and per-reason launch counters appear in Snapshot and
	// /metrics.
	Policy sched.BatchPolicy
	// Window bounds each connection's in-flight requests. The reader
	// stops reading the socket while the window is full, so backpressure
	// propagates to the client as TCP flow control. Defaults to 32.
	Window int
	// ReactorLoops sets the reactor pool size: the number of shared
	// reader loops and writer loops serving all connections (sharded by
	// accept order). Defaults to min(NumCPU, 8); values below 1 are
	// raised to 1. More loops than cores only adds contention.
	ReactorLoops int
	// DrainTimeout bounds how long Shutdown waits for in-flight
	// responses to reach slow clients before forcing connections closed.
	// Defaults to 5s.
	DrainTimeout time.Duration
	// IdleTimeout bounds how long a live connection may go without
	// delivering a complete frame: the reader loops' sweep evicts a
	// half-open peer (or one that sent a torn frame and stalled) and
	// reclaims its window slots instead of holding them until Shutdown.
	// A connection parked on its full window is exempt — it is waiting
	// on the server, not the reverse. Defaults to 2m; negative disables.
	IdleTimeout time.Duration
	// WriteStallTimeout bounds how long a connection's responses may sit
	// unwritable (the peer stopped reading). Past it the connection is
	// torn down — abandoning its responses but releasing its window
	// slots — so dead readers cannot pin in-flight operations. The stall
	// is per connection: a stalled conn parks on its writer loop's
	// blocked list and never delays its loop-mates. Defaults to 30s;
	// negative disables.
	WriteStallTimeout time.Duration
	// SaturationTimeout caps the total time a decoded request may park
	// waiting for space in a saturated pump queue before it is rejected
	// with FlagErr. The park is per shard — only the target shard's
	// queue being full parks the op. Defaults to 30s; negative disables
	// the cap (park until shutdown, the pre-containment behavior).
	SaturationTimeout time.Duration
	// WrapDS, if non-nil, wraps each served structure as it is
	// installed; shard is the owning shard's index and ds the
	// structure's wire identifier (DSCounter, ...). Returning b
	// unchanged keeps the plain structure. This is the fault-injection
	// seam: chaos tests splice internal/faultinject wrappers into a live
	// server through it — including onto a single shard's structure, to
	// prove a poisoned shard's blast radius stops at that shard.
	WrapDS func(shard int, ds uint8, b sched.Batched) sched.Batched
	// TraceRing, when positive, attaches a scheduler event tracer with
	// this many slots per worker ring (see obs.NewTracer; rounded up to
	// a power of two). The tracer attaches to shard 0's runtime only
	// (one ring set; cross-shard tracing would interleave unrelated
	// schedulers). Zero disables tracing; the /metrics registry is
	// always available.
	TraceRing int
	// SlowK sets the tail flight recorder's reservoir size: the K
	// slowest operations per window are kept with their full phase
	// vectors, dumpable via SlowHandler (/slow). The recorder is
	// process-wide; each SlowOp records its shard. Defaults to 16;
	// negative disables the recorder.
	SlowK int
	// SlowWindow sets the flight recorder's rotation period (the
	// "slowest per window" horizon). Defaults to 10s.
	SlowWindow time.Duration
	// SLO, when positive, turns on admission control (DESIGN.md §15):
	// each shard's standing backlog is bounded at what its measured
	// completion rate serves in half the SLO, and an operation that
	// would stand deeper is shed at the edge with a fast FlagErr
	// instead of parking into the saturation list. Zero disables
	// admission control (SaturationTimeout alone bounds a park).
	SLO time.Duration
}

// Server owns a listener, a shard router (N scheduler runtimes, each
// with its own pump and structure set), and the reactor pool
// (reactor.go) that joins the shards to the sockets. Start it with
// Start, stop it with Shutdown.
type Server struct {
	cfg    Config
	ln     net.Listener
	router *shard.Router

	start time.Time
	quit  chan struct{} // closed when Shutdown begins: stop reading
	// edgeStop is closed when every conn has finalized: loops may exit.
	edgeStop chan struct{}
	done     chan struct{}
	stop     sync.Once

	// The reactor pool. A conn accepted as number i belongs to reader
	// loop i%N and writer loop i%N.
	rloops   []*rloop
	wloops   []*wloop
	nextConn uint64 // accept-order counter; accept goroutine only

	connMu sync.Mutex
	conns  map[*conn]struct{}
	connWG sync.WaitGroup // one per live conn; released at finalize
	srvWG  sync.WaitGroup // accept + router.Serve + reactor loops

	// Saturation retry list: conns parked on a full shard queue, kicked
	// by the next completion (reactor.go satAdd/kickSaturated). The
	// list is process-wide but admission is per shard: a kicked conn
	// re-submits per shard and re-parks if its shard is still full.
	satMu    sync.Mutex
	satConns []*conn
	satCount atomic.Int64

	// The per-shard edge ledger that makes the shard books balance —
	// offered == completed + shed + rejected + abandoned — and carries
	// the admission bound (admission.go).
	edge []edgeCounters

	curConns  atomic.Int64
	accepted  atomic.Int64 // operations admitted into a shard pump (all shards)
	rejected  atomic.Int64 // operations refused (bad op, saturation cap, shutdown)
	completed atomic.Int64 // responses retired by the writer loops
	immediate atomic.Int64 // responses that bypassed the pumps (stats, rejections)
	failed    atomic.Int64 // accepted operations completed with Err (contained batch panic)
	decodeErr atomic.Int64 // connections dropped for malformed frames
	readSys   atomic.Int64 // socket read syscalls (reader loops)
	writeSys  atomic.Int64 // socket write syscalls (writer loops)
	evictions atomic.Int64 // conns torn down for deadline/protocol violations

	// Observability (metrics.go): the registry backing /metrics,
	// per-structure service-latency histograms indexed by wire ds code,
	// per-shard histogram sets (batch size, phases, batch delay), and
	// the optional event tracer (shard 0 only).
	reg     *obs.Registry
	latHist [4]*obs.Histogram
	shardM  []shardMetrics
	tracer  *obs.Tracer

	// flight is the tail flight recorder behind /slow (nil when
	// Config.SlowK < 0); process-wide, SlowOps carry their shard.
	flight *obs.FlightRecorder

	reqPool sync.Pool
}

// shardMetrics is one shard's histogram set (metrics.go): the batch
// size distribution its runtime observes, one histogram per lifecycle
// phase duration, the derived batch-delay histogram — Theorem 5.4's
// per-op wait, auditable per shard because Invariants 1 and 2 hold per
// shard — the end-to-end (read-to-done) latency histogram behind
// measured_p999_ns, and the live conformance monitor fed by the shard
// runtime's batch-land path.
type shardMetrics struct {
	batchHist *obs.Histogram
	phaseHist [obs.NumPhases - 1]*obs.Histogram
	delayHist *obs.Histogram
	totalHist *obs.Histogram
	conform   *obs.Conform
}

// request is one in-flight operation: the OpRecord the scheduler
// batches, plus the connection bookkeeping needed to route the response
// back. The record's Aux points back at the request so the router's
// OnDone callback can recover it.
type request struct {
	op      sched.OpRecord
	c       *conn
	id      uint64
	flags   uint8 // pre-set for rejections and stats; 0 means "derive from op"
	dsIdx   int8  // wire ds code of an accepted op; selects its latency histogram
	shard   int32 // target shard of an accepted op (shard.Of placement)
	echo    bool  // client set OpFlagPhases: echo the stamp vector
	phased  bool  // op completed through a pump, so its stamps are valid
	start   time.Time
	payload []byte
}

// Start builds the shard router and structures, binds the listener, and
// begins serving. It returns once the server is accepting connections.
func Start(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.ReactorLoops <= 0 {
		cfg.ReactorLoops = runtime.NumCPU()
		if cfg.ReactorLoops > 8 {
			cfg.ReactorLoops = 8
		}
	}
	if cfg.ReactorLoops < 1 {
		cfg.ReactorLoops = 1
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = 2 * time.Minute
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	switch {
	case cfg.WriteStallTimeout == 0:
		cfg.WriteStallTimeout = 30 * time.Second
	case cfg.WriteStallTimeout < 0:
		cfg.WriteStallTimeout = 0
	}
	switch {
	case cfg.SaturationTimeout == 0:
		cfg.SaturationTimeout = 30 * time.Second
	case cfg.SaturationTimeout < 0:
		cfg.SaturationTimeout = 0
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	wrap := cfg.WrapDS
	if wrap == nil {
		wrap = func(_ int, _ uint8, b sched.Batched) sched.Batched { return b }
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		start:    time.Now(),
		quit:     make(chan struct{}),
		edgeStop: make(chan struct{}),
		done:     make(chan struct{}),
		conns:    make(map[*conn]struct{}),
		edge:     make([]edgeCounters, cfg.Shards),
	}
	s.reqPool.New = func() any {
		rq := &request{}
		rq.op.Aux = rq
		return rq
	}
	s.router = shard.NewRouter(shard.Config{
		Shards:   cfg.Shards,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
		QueueCap: cfg.QueueCap,
		Policy:   cfg.Policy,
		NewDS: func(i int) []sched.Batched {
			// Each shard gets its own structure instances, seeded
			// distinctly (a shard is an independent batching domain, not
			// a replica). Wire code order: counter, skiplist, tree23,
			// hashmap.
			base := cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
			return []sched.Batched{
				wrap(i, DSCounter, counter.New(0)),
				wrap(i, DSSkiplist, skiplist.NewBatched(base^0x9e3779b97f4a7c15)),
				wrap(i, DSTree23, tree23.NewBatched()),
				wrap(i, DSHashmap, hashmap.NewBatched(base^0xd1342543de82ef95)),
			}
		},
		OnDone: s.complete,
	})
	// Metrics/tracing attach to the runtimes and must happen before the
	// pumps occupy them.
	s.buildMetrics()

	// Build the reactor pool before accepting: conns shard onto the
	// loops at accept time.
	s.rloops = make([]*rloop, cfg.ReactorLoops)
	for i := range s.rloops {
		l := &rloop{
			s:     s,
			id:    i,
			conns: make(map[*conn]struct{}),
			fds:   make(map[int]*conn),
		}
		l.sc.readBuf = make([]byte, readBufSize)
		l.sc.initShards(cfg.Shards)
		if err := l.initPoll(); err != nil {
			for _, prev := range s.rloops[:i] {
				prev.poll.close()
			}
			ln.Close()
			return nil, err
		}
		s.rloops[i] = l
	}
	s.wloops = make([]*wloop, cfg.ReactorLoops)
	for i := range s.wloops {
		s.wloops[i] = &wloop{s: s, id: i, notify: make(chan struct{}, 1)}
	}

	s.srvWG.Add(2 + len(s.wloops))
	go func() { defer s.srvWG.Done(); s.router.Serve() }()
	go func() { defer s.srvWG.Done(); s.accept() }()
	if cfg.SLO > 0 {
		s.srvWG.Add(1)
		go func() { defer s.srvWG.Done(); s.runAdmission() }()
	}
	for _, w := range s.wloops {
		go w.run()
	}
	if reactorRunsLoops {
		s.srvWG.Add(len(s.rloops))
		for _, l := range s.rloops {
			go l.run()
		}
	}
	return s, nil
}

// Addr returns the listener's address (useful with the :0 default).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Runtime exposes shard 0's scheduler runtime. With Shards == 1 (the
// default) this is the server's only runtime, preserving the
// single-runtime API for stats and tests; multi-shard callers should
// iterate Router().Shards().
func (s *Server) Runtime() *sched.Runtime { return s.router.Shard(0).Runtime() }

// Router exposes the shard router (per-shard runtimes, pumps,
// structures, and admission books).
func (s *Server) Router() *shard.Router { return s.router }

// Shutdown gracefully stops the server: it stops accepting connections
// and requests, drains every in-flight operation on every shard — each
// admitted request still executes and its response is written — and
// then tears down the runtimes. Idempotent and safe to call
// concurrently; every call blocks until the shutdown completes.
func (s *Server) Shutdown() {
	s.stop.Do(func() {
		s.ln.Close()
		close(s.quit)
		// Wake every loop: reader loops park their conns (sweepQuit) and
		// reject parked submissions; admitted operations keep draining
		// through the shard pumps and the writer loops, which close each
		// conn as its last response leaves.
		s.wakeEdge()
		// Past the drain budget, force the remaining conns down entirely
		// so stalled writers abandon their responses and release their
		// window slots.
		force := time.AfterFunc(s.cfg.DrainTimeout, func() {
			for _, c := range s.connSnapshot() {
				s.evict(c, evictShutdown)
			}
		})
		s.connWG.Wait()
		force.Stop()
		// Every conn has finalized: all completions have passed through
		// the writer loops, so the loops can exit and every shard queue
		// is quiescent; Close lets each pump's Serve return, and
		// router.Serve returns when the last shard drains. Shards drain
		// concurrently — there is no cross-shard ordering to respect,
		// because no operation spans shards.
		close(s.edgeStop)
		s.wakeEdge()
		s.router.Close()
		s.srvWG.Wait()
		close(s.done)
	})
	<-s.done
}

// connSnapshot copies the live conn set (force-eviction, wakeEdge).
func (s *Server) connSnapshot() []*conn {
	s.connMu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	return conns
}

func (s *Server) accept() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.connMu.Lock()
		select {
		case <-s.quit:
			s.connMu.Unlock()
			nc.Close()
			return
		default:
		}
		i := s.nextConn
		s.nextConn++
		c := &conn{
			s:  s,
			nc: nc,
			fd: -1,
			rl: s.rloops[i%uint64(len(s.rloops))],
			wl: s.wloops[i%uint64(len(s.wloops))],
		}
		c.lastFrame = obs.Now()
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.connMu.Unlock()
		s.curConns.Add(1)
		s.registerConn(c)
	}
}

// opKind validates a (ds, op) pair and maps it onto the operation kind
// of the target structure class. The wire codes were chosen to coincide
// with the structures' sched.OpKind values, so the mapping is a check
// plus a cast. The structure instance itself is per shard — classify
// resolves it from the routed shard.
func opKind(ds, op uint8) (sched.OpKind, bool) {
	switch ds {
	case DSCounter:
		if op == OpInsert {
			return counter.OpIncrement, true
		}
	case DSSkiplist:
		switch op {
		case OpInsert, OpLookup, OpDelete, OpSucc:
			return sched.OpKind(op), true
		}
	case DSTree23:
		switch op {
		case OpInsert, OpLookup, OpDelete:
			return sched.OpKind(op), true
		}
	case DSHashmap:
		switch op {
		case OpInsert, OpLookup, OpDelete:
			return sched.OpKind(op), true
		}
	}
	return 0, false
}

// shardFor places a validated operation: keyed structures route by
// hash(ds, key); the keyless counter pins to its home shard (sharding a
// prefix-sums counter by key would split one linearizable running total
// into N unrelated ones — see DESIGN.md §13).
func (s *Server) shardFor(ds uint8, key int64) int {
	if ds == DSCounter {
		return s.router.Home(ds)
	}
	return s.router.ShardOf(ds, key)
}

// complete is the router's OnDone callback, invoked on a scheduler
// worker of the owning shard after a batch fills in the record. It
// never blocks: the response is enqueued to the conn's writer loop (a
// bounded append), and if any conns are parked on a saturated queue,
// the space this completion just freed triggers their retry. An
// operation whose batch group panicked (op.Err set by the
// contained-panic path) is answered with FlagErr — failure is per
// operation, not per shard, connection, or process.
func (s *Server) complete(shardID int, op *sched.OpRecord) {
	rq := op.Aux.(*request)
	if op.Err != nil {
		rq.flags = FlagErr
		s.failed.Add(1)
	}
	s.latHist[rq.dsIdx].Observe(int64(time.Since(rq.start)))

	// PhaseDone closes the stamp vector; the owning shard's phase
	// histograms and batch-delay histogram observe exactly one value per
	// pump-served operation here (contained-panic ops included), so each
	// shard's delay histogram count equals its runtime's LiveBatchStats
	// op count once the server quiesces — the per-shard Theorem 5.4
	// envelope stays auditable. Everything below is allocation-free:
	// fixed arrays, atomic histogram bumps, and a by-value reservoir
	// offer that fast-rejects all but tail ops.
	op.Phases[obs.PhaseDone] = obs.Now()
	rq.phased = true
	durs := obs.PhaseDurations(op.Phases)
	sm := &s.shardM[shardID]
	for i, h := range sm.phaseHist {
		h.Observe(durs[i])
	}
	sm.delayHist.Observe(obs.BatchDelay(op.Phases))
	sm.totalHist.Observe(op.Phases[obs.PhaseDone] - op.Phases[obs.PhaseRead])
	if s.flight != nil {
		s.flight.Offer(obs.SlowOp{
			TotalNS:    op.Phases[obs.PhaseDone] - op.Phases[obs.PhaseRead],
			Stamps:     op.Phases,
			Durations:  durs,
			BatchDelay: obs.BatchDelay(op.Phases),
			DS:         dsNames[rq.dsIdx],
			Kind:       int32(op.Kind),
			Key:        op.Key,
			Shard:      int32(shardID),
			BatchSize:  op.BatchSize,
			BatchGroup: op.BatchGroup,
			Err:        op.Err != nil,
		})
	}
	rq.c.wl.enqueue(rq)
	if s.satCount.Load() > 0 {
		s.kickSaturated()
	}
}

// String describes the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("batcherd on %s (shards=%d, P=%d, window=%d, loops=%d)",
		s.ln.Addr(), s.router.N(), s.Runtime().Workers(), s.cfg.Window, len(s.rloops))
}
