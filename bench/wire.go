package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"batcher/internal/loadgen"
	"batcher/internal/obs"
	"batcher/internal/rng"
	"batcher/internal/server"
)

// inflight is what a client remembers about a request until its
// response arrives, in a ring indexed by request id.
type inflight struct {
	due   int64 // ns since epoch: the send time (closed loop) or the scheduled time (open loop)
	idx   int64 // stream index
	key   int64
	write bool
}

// wireConn is one client connection walking every stride-th op of the
// stream. One goroutine drives it (closed loop) or a sender and a
// receiver share it (open loop).
type wireConn struct {
	c      *loadgen.Client
	sp     *spec
	st     *stream
	next   int64 // next stream index
	stride int64
	opFlag uint8 // server.OpFlagPhases on a traced pass

	mu   sync.Mutex // orders an open loop's ring writes before the receiver's reads
	ring []inflight
	mask uint64
	dues []int64 // open loop: due times of the burst being sent

	chk checker
	rec *recorder // nil during warm-up
	tk  *track    // the sending goroutine's spans; nil unless traced
	rtk *track    // the receiving goroutine's: tk itself in a closed loop
}

// ringSize bounds requests in flight per connection. A closed loop needs
// its pipeline depth; an open loop needs room for the backlog a stall
// builds (at 20k ops/s per connection this is over three seconds).
const ringSize = 1 << 16

func dialConns(addr string, sp *spec, st *stream) ([]*wireConn, error) {
	n := conns()
	wcs := make([]*wireConn, n)
	for i := range wcs {
		c, err := loadgen.Dial(addr)
		if err != nil {
			closeConns(wcs[:i])
			return nil, fmt.Errorf("dial connection %d: %w", i, err)
		}
		wcs[i] = &wireConn{
			c: c, sp: sp, st: st,
			next: int64(i), stride: int64(n),
			ring: make([]inflight, ringSize), mask: ringSize - 1,
			chk: newChecker(sp, st),
		}
	}
	return wcs, nil
}

func closeConns(wcs []*wireConn) {
	for _, wc := range wcs {
		wc.c.Close()
	}
}

// send buffers the connection's next op, scheduled at due.
func (wc *wireConn) send(due int64) error {
	key, write := wc.st.at(wc.next)
	q := server.Request{DS: wc.sp.ds, Op: server.OpLookup | wc.opFlag, Key: key}
	if write {
		q.Op = server.OpInsert | wc.opFlag
		q.Val = valueOf(key)
	}
	if wc.sp.ds == server.DSCounter {
		q.Val = 1
	}
	id, err := wc.c.Send(q)
	if err != nil {
		return err
	}
	wc.ring[id&wc.mask] = inflight{due: due, idx: wc.next, key: key, write: write}
	wc.next += wc.stride
	return nil
}

// recv reads one response, checks it and records its latency from the
// request's due time.
func (wc *wireConn) recv() error {
	var t0 int64
	timed := wc.rtk != nil && wc.rec != nil && wc.rec.recvs%sampleEvery == 0
	if timed {
		t0 = now()
	}
	resp, err := wc.c.Recv()
	if err != nil {
		return err
	}
	t := now()
	wc.mu.Lock()
	f := wc.ring[resp.ID&wc.mask]
	wc.mu.Unlock()
	good := wc.chk.response(&resp, f)
	if wc.rec != nil {
		wc.rec.observe(t, t-f.due, good)
		if timed {
			wc.rec.recvNS = append(wc.rec.recvNS, uint32(t-t0))
			wc.rtk.add(wc.rec.root, "loadgen.recv", "loadgen", t0, t, f.idx)
		}
		if resp.Flags&server.FlagPhases != 0 {
			wc.rec.phases(resp.Phases)
		}
		if wc.rtk != nil && f.idx/wc.stride%sampleEvery == 0 {
			wc.rtk.add(wc.rec.root, "server.round_trip", "server", f.due, t, f.idx)
		}
	}
	return nil
}

// limit ends a run at an op count, a time, or whichever comes first
// (a zero field does not limit).
type limit struct {
	ops      int64 // per driver: one connection, or the whole fork-join loop
	deadline int64 // ns since epoch
}

// closedLoop keeps up to the workload's pipeline depth in flight, in
// bursts: top the window up, flush once, then drain half a window of
// responses. One flush so carries up to pipeline/2 requests, the way a
// pipelining client amortises its syscalls. Latency runs from the burst's
// send time, so it includes the buffering the pipelining asked for.
func (wc *wireConn) closedLoop(lim limit) error {
	window := wc.sp.pipeline
	if window == 0 {
		window = 16 // warm-up and ladder rungs of the open-loop workload
	}
	burst := window / 2
	inFlight, sent := 0, int64(0)
	more := func(t int64) bool {
		return (lim.ops == 0 || sent < lim.ops) && (lim.deadline == 0 || t < lim.deadline)
	}
	for {
		t := now()
		if !more(t) && inFlight == 0 {
			return nil
		}
		n := 0
		for inFlight < window && more(t) {
			if err := wc.send(t); err != nil {
				return err
			}
			sent++
			inFlight++
			n++
		}
		if err := wc.c.Flush(); err != nil {
			return err
		}
		if wc.rec != nil {
			wc.rec.sent += int64(n)
			if wc.tk != nil && n > 0 {
				wc.rec.flushed(wc.tk, t, now(), n)
			}
		}
		drainTo := window - burst
		if !more(now()) {
			drainTo = 0
		}
		for inFlight > drainTo {
			if err := wc.recv(); err != nil {
				return err
			}
			inFlight--
		}
	}
}

// minSleep is the shortest nap the open-loop sender takes. Requests that
// fall due during a nap go out together in one flush; a shorter nap means
// a thread wake-up and a flush per request or two, which on a two-core
// host costs the server more than the wait costs the requests.
const minSleep = 250 * time.Microsecond

// nap sleeps in the kernel. time.Sleep would not do: when the process
// goes idle the Go runtime waits for its next timer in epoll_wait, whose
// timeout counts whole milliseconds, so a 100us sleep becomes a 1.1ms
// one just when the server is least busy.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return only means an early look at the clock
}

// openLoop sends the connection's ops on a seeded Poisson schedule for
// the given duration, whatever the server does: a sender goroutine
// flushes every request that has fallen due, a receiver drains
// responses, and latency runs from the due time, so a stall is charged
// to every request it delayed and not only to the one in flight.
func (wc *wireConn) openLoop(arr *arrivals, start, dur int64) error {
	var (
		total    atomic.Int64 // set once the sender knows how many it sent
		received atomic.Int64
		dead     atomic.Bool // the receiver gave up: stop sending
		recvErr  = make(chan error, 1)
	)
	go func() {
		for {
			if err := wc.recv(); err != nil {
				dead.Store(true)
				recvErr <- err
				return
			}
			if received.Add(1) == total.Load() {
				recvErr <- nil
				return
			}
		}
	}()

	sent := int64(0)
	due := start + arr.gap()
	end := start + dur
	var sendErr error
	for due < end && sendErr == nil && !dead.Load() {
		t := now()
		if due > t {
			d := time.Duration(due - t)
			if d < minSleep {
				d = minSleep
			}
			nap(d)
			continue
		}
		for sent-received.Load() >= ringSize && !dead.Load() {
			nap(minSleep) // the ring is full of unanswered requests
		}
		n := 0
		wc.dues = wc.dues[:0]
		wc.mu.Lock()
		for due <= t && due < end && n < ringSize/2 {
			next := due + arr.gap()
			if next >= end {
				// The last request: publish the total before it can be
				// answered, so the receiver knows when to stop.
				total.Store(sent + 1)
			}
			if sendErr = wc.send(due); sendErr != nil {
				break
			}
			wc.dues = append(wc.dues, due)
			sent++
			n++
			due = next
		}
		wc.mu.Unlock()
		if sendErr == nil {
			sendErr = wc.c.Flush()
		}
		if wc.rec != nil {
			wc.rec.sent += int64(n)
			done := now()
			for _, d := range wc.dues {
				wc.rec.lag = append(wc.rec.lag, clampNS(done-d))
			}
			if wc.tk != nil {
				wc.rec.flushed(wc.tk, t, done, n)
			}
		}
	}
	if sendErr != nil {
		wc.c.Close() // unblocks the receiver
		<-recvErr
		return sendErr
	}
	if sent == 0 {
		wc.c.Close() // nothing fell due: release the receiver
		<-recvErr
		return nil
	}
	return <-recvErr
}

// recorder collects one connection's measurements over a timed region.
// Its buffers are allocated and touched before the region starts.
type recorder struct {
	start int64 // region start, ns since epoch
	winNS int64
	root  int64 // the rung's root span, parent of this connection's spans

	sent, recvs, ok, bad int64
	lat                  []uint32 // ns from due time, in completion order
	winOff               []int    // len(lat) at each window boundary crossed

	lag []uint32 // open loop: ns from due time to the flush that sent it

	// Traced pass only.
	recvNS    []uint32 // sampled Recv durations
	flushNS   int64    // time inside Send+Flush bursts
	flushes   int64
	phaseSum  [obs.NumPhases - 1]int64
	totalSum  int64    // PhaseRead -> PhaseDone
	delays    []uint32 // batch delay per op, ns
	phaseSeen int64
}

func newRecorder(capacity int, traced, open bool) *recorder {
	r := &recorder{lat: make([]uint32, capacity)}
	clear(r.lat) // touch the pages now, so RSS does not depend on how many ops complete
	r.lat = r.lat[:0]
	if open {
		r.lag = make([]uint32, 0, capacity)
	}
	if traced {
		r.recvNS = make([]uint32, 0, capacity/sampleEvery+1)
		r.delays = make([]uint32, 0, capacity)
	}
	return r
}

func clampNS(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

func (r *recorder) observe(t, latNS int64, good bool) {
	r.recvs++
	if !good {
		r.bad++
		return
	}
	r.ok++
	for w := int((t - r.start) / r.winNS); len(r.winOff) < w; {
		r.winOff = append(r.winOff, len(r.lat))
	}
	r.lat = append(r.lat, clampNS(latNS))
}

// flushed times one Send+Flush burst; one burst in submitSpanEvery is
// kept as a span.
func (r *recorder) flushed(tk *track, start, end int64, n int) {
	r.flushNS += end - start
	if r.flushes++; r.flushes%submitSpanEvery == 0 {
		tk.add(r.root, "loadgen.encode_flush", "loadgen", start, end, -1)
	}
}

func (r *recorder) phases(p [obs.NumPhases]int64) {
	for i, d := range obs.PhaseDurations(p) {
		r.phaseSum[i] += d
	}
	r.totalSum += p[obs.PhaseDone] - p[obs.PhaseRead]
	r.phaseSeen++
	if len(r.delays) < cap(r.delays) {
		r.delays = append(r.delays, clampNS(obs.BatchDelay(p)))
	}
}

// wireRun is one timed region over a set of connections.
type wireRun struct {
	recs    []*recorder
	start   int64
	wall    int64 // ns from start until the last connection finished
	cpu     []cpuSample
	missing int64 // requests sent and never answered
	err     error

	// Filled in by the ladder's wire rung.
	snap    server.Stats // the server's final stats
	mallocs int64        // heap allocations over the region, process-wide
}

type cpuSample struct {
	at  int64 // ns since region start
	cpu time.Duration
}

// runWire drives every connection for the region lim describes (open
// loop when the workload has a rate and open is set) and samples CPU at
// window boundaries.
func runWire(wcs []*wireConn, sp *spec, seed uint64, lim limit, winNS int64, capacity int, tr *tracer, root int64, open bool) *wireRun {
	run := &wireRun{recs: make([]*recorder, len(wcs))}
	for i, wc := range wcs {
		wc.rec = newRecorder(capacity, tr != nil, open)
		wc.rec.winNS = winNS
		wc.rec.root = root
		wc.tk = tr.newTrack(capacity/sampleEvery*2 + capacity/submitSpanEvery + 16)
		wc.rtk = wc.tk
		if open {
			wc.rtk = tr.newTrack(capacity/sampleEvery*2 + 16)
		}
		run.recs[i] = wc.rec
	}
	run.start = now()
	for _, wc := range wcs {
		wc.rec.start = run.start
	}

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(time.Duration(winNS))
		defer tick.Stop()
		for {
			c := cpuTime()
			run.cpu = append(run.cpu, cpuSample{at: now() - run.start, cpu: c})
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()

	errs := make([]error, len(wcs))
	var wg sync.WaitGroup
	for i, wc := range wcs {
		wg.Add(1)
		go func(i int, wc *wireConn) {
			defer wg.Done()
			if open {
				st := seed + uint64(i+1)*0x9e3779b97f4a7c15
				arr := &arrivals{r: rng.New(rng.SplitMix64(&st)), mean: float64(len(wcs)) * 1e9 / sp.rate}
				errs[i] = wc.openLoop(arr, run.start, lim.deadline-run.start)
			} else {
				errs[i] = wc.closedLoop(lim)
			}
		}(i, wc)
	}
	wg.Wait()
	run.wall = now() - run.start
	close(stop)
	sampler.Wait()
	c := cpuTime()
	run.cpu = append(run.cpu, cpuSample{at: run.wall, cpu: c})

	for i, wc := range wcs {
		if errs[i] != nil && run.err == nil {
			run.err = fmt.Errorf("connection %d: %w", i, errs[i])
		}
		run.missing += wc.rec.sent - wc.rec.recvs
		wc.rec, wc.tk, wc.rtk = nil, nil, nil
	}
	return run
}

// window is one slice of a timed region: the ops completed in it, its
// exact wall length, the CPU the process burned, and those ops'
// latencies, sorted.
type window struct {
	ops  int64
	wall int64
	cpu  time.Duration
	lat  []uint32
}

// windows cuts the region into its complete windows. The tail after the
// last full window (the drain) is dropped.
func (run *wireRun) windows(winNS int64) []window {
	n := int(run.wall / winNS)
	for _, r := range run.recs {
		if len(r.winOff) < n {
			n = len(r.winOff) // a connection that finished early crossed fewer boundaries
		}
	}
	wins := make([]window, n)
	for k := range wins {
		w := &wins[k]
		w.wall = winNS
		for _, r := range run.recs {
			lo := 0
			if k > 0 {
				lo = r.winOff[k-1]
			}
			w.lat = append(w.lat, r.lat[lo:r.winOff[k]]...)
		}
		slices.Sort(w.lat)
		w.ops = int64(len(w.lat))
		w.cpu = cpuBetween(run.cpu, int64(k)*winNS, int64(k+1)*winNS)
	}
	return wins
}

// cpuBetween interpolates the sampled CPU clock at two instants. Samples
// sit within a timer's jitter of the window boundaries, so the
// interpolation moves each reading by a fraction of a percent at most.
func cpuBetween(s []cpuSample, from, to int64) time.Duration {
	at := func(t int64) float64 {
		for i := 1; i < len(s); i++ {
			if t <= s[i].at {
				a, b := s[i-1], s[i]
				if b.at == a.at {
					return float64(b.cpu)
				}
				return float64(a.cpu) + float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at)
			}
		}
		return float64(s[len(s)-1].cpu)
	}
	return time.Duration(at(to) - at(from))
}
