//go:build linux && !portablepoll

package server

// Linux edge: each reader loop is an epoll event loop over its shard of
// connection fds, doing raw non-blocking reads and writes. The Go
// runtime netpoller still owns the fds (we extract them via SyscallConn
// and never dup), but once a conn is registered the reactor performs
// all its I/O with direct syscalls — the runtime poller never fires
// because no deadline-armed Read/Write is ever issued. A self-pipe
// registered in each epoll set delivers kicks (window freed, saturation
// retry, shutdown) to the loop without a syscall storm: one pipe byte
// wakes the loop no matter how many kicks queued behind it.

import (
	"net"
	"syscall"

	"batcher/internal/obs"
)

// reactorRunsLoops: the reader loops are real event-loop goroutines.
const reactorRunsLoops = true

// poller wraps one epoll instance plus its wake pipe.
type poller struct {
	epfd  int
	wakeR int
	wakeW int
}

func newPoller() (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipe [2]int
	if err := syscall.Pipe(pipe[:]); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	syscall.SetNonblock(pipe[0], true)
	syscall.SetNonblock(pipe[1], true)
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(pipe[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pipe[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(pipe[0])
		syscall.Close(pipe[1])
		return nil, err
	}
	return &poller{epfd: epfd, wakeR: pipe[0], wakeW: pipe[1]}, nil
}

func (p *poller) close() {
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// add registers fd level-triggered for reads. EPOLLRDHUP folds peer
// half-close into the read path (read returns 0).
func (p *poller) add(fd int) error {
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP,
		Fd:     int32(fd),
	}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

// mod toggles read interest: a parked conn (window full, saturation,
// quit) keeps its registration but stops generating events, so a
// level-triggered full socket buffer cannot spin the loop.
func (p *poller) mod(fd int, readable bool) {
	var events uint32
	if readable {
		events = syscall.EPOLLIN | syscall.EPOLLRDHUP
	}
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd)}
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

func (p *poller) del(fd int) {
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
}

// wake makes the next (or current) EpollWait return. A full pipe means
// a wake is already pending — exactly the semantics needed.
func (p *poller) wake() {
	var b [1]byte
	syscall.Write(p.wakeW, b[:])
}

func (p *poller) drainWake() {
	var b [64]byte
	for {
		n, err := syscall.Read(p.wakeR, b[:])
		if n < len(b) || err != nil {
			return
		}
	}
}

func (p *poller) wait(events []syscall.EpollEvent, msec int) (int, error) {
	n, err := syscall.EpollWait(p.epfd, events, msec)
	if err == syscall.EINTR {
		return 0, nil
	}
	return n, err
}

// initPoll creates the loop's epoll instance.
func (l *rloop) initPoll() error {
	p, err := newPoller()
	if err != nil {
		return err
	}
	l.poll = p
	return nil
}

// run is the reader loop: wait for readable fds (and wake-pipe kicks),
// drain each one through ingest, then run the deadline sweep.
func (l *rloop) run() {
	defer l.s.srvWG.Done()
	defer l.poll.close()
	events := make([]syscall.EpollEvent, 128)
	lastSweep := obs.Now()
	for {
		n, err := l.poll.wait(events, int(sweepInterval.Milliseconds()))
		if err != nil {
			// The epoll fd is healthy for the server's lifetime; any
			// other error would spin, so bail to the stop check.
			n = 0
		}
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == l.poll.wakeR {
				l.poll.drainWake()
				continue
			}
			l.mu.Lock()
			c := l.fds[fd]
			l.mu.Unlock()
			if c != nil {
				l.readable(c, &l.sc)
			}
		}
		l.drainKicks()
		if now := obs.Now(); now-lastSweep >= int64(sweepInterval) || l.s.quitting() {
			l.sweep(now)
			lastSweep = now
		}
		if l.s.edgeStopped() {
			return
		}
	}
}

// readable drains c's socket: raw reads into the loop's frame buffer,
// each feeding ingest, until EAGAIN, a short read (buffer drained), a
// park, or an eviction. Runs on the loop goroutine only.
func (l *rloop) readable(c *conn, sc *edgeScratch) {
	s := l.s
	for {
		c.mu.Lock()
		if c.state.Load() != connOpen || c.paused {
			c.mu.Unlock()
			return
		}
		// The raw read happens under c.mu: state was just checked, so
		// the fd cannot be concurrently closed and reused under us. The
		// fd is non-blocking; the critical section is bounded.
		n, err := syscall.Read(c.fd, sc.readBuf)
		c.mu.Unlock()
		s.readSys.Add(1)
		if err == syscall.EAGAIN || err == syscall.EINTR {
			return
		}
		if err != nil || n == 0 {
			s.evict(c, evictReadError)
			return
		}
		if !s.ingest(c, sc.readBuf[:n], sc) {
			return
		}
		if n < len(sc.readBuf) {
			// Short read: the socket buffer is drained. Skip the extra
			// syscall that would return EAGAIN; level-triggered epoll
			// re-fires if more arrived meanwhile.
			return
		}
	}
}

// registerConn binds an accepted conn to its reader loop: extract the
// fd and add it to the loop's epoll set. Runs on the accept goroutine.
func (s *Server) registerConn(c *conn) {
	fd := -1
	if tc, ok := c.nc.(*net.TCPConn); ok {
		if rc, err := tc.SyscallConn(); err == nil {
			rc.Control(func(u uintptr) { fd = int(u) })
		}
	}
	if fd < 0 {
		s.evict(c, evictReadError)
		return
	}
	l := c.rl
	c.mu.Lock()
	c.fd = fd
	l.mu.Lock()
	l.conns[c] = struct{}{}
	l.fds[fd] = c
	l.mu.Unlock()
	err := l.poll.add(fd)
	c.mu.Unlock()
	if err != nil {
		s.evict(c, evictReadError)
	}
}

// setReadInterestLocked toggles the conn's epoll read interest. Caller
// holds c.mu; a closed conn's fd is never touched (detach precedes the
// state flip, both under the same critical section in evict).
func (c *conn) setReadInterestLocked(on bool) {
	if c.fd < 0 || c.state.Load() != connOpen {
		return
	}
	c.rl.poll.mod(c.fd, on)
}

// detachLocked removes the conn from its loop's epoll set and maps.
// Caller holds c.mu; must precede nc.Close so the fd number cannot be
// reused by a new conn while stale entries remain.
func (c *conn) detachLocked() {
	l := c.rl
	if c.fd >= 0 {
		l.poll.del(c.fd)
	}
	l.mu.Lock()
	delete(l.conns, c)
	if c.fd >= 0 {
		delete(l.fds, c.fd)
	}
	l.mu.Unlock()
}

// tryWrite performs one non-blocking raw write. again=true means the
// kernel buffer is full (or the write was partial) and the caller
// should retry later; a false return with err=nil means b fully left.
func (c *conn) tryWrite(b []byte) (int, bool, error) {
	n, err := syscall.Write(c.fd, b)
	if n < 0 {
		n = 0
	}
	switch err {
	case nil:
		return n, n < len(b), nil
	case syscall.EAGAIN, syscall.EINTR:
		return n, true, nil
	default:
		return n, false, err
	}
}

// wakeEdge prods every loop: reader loops via their wake pipes, writer
// loops via notify. Used by Shutdown for the quit and stop transitions.
func (s *Server) wakeEdge() {
	for _, l := range s.rloops {
		l.poll.wake()
	}
	for _, w := range s.wloops {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}
