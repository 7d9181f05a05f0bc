//go:build !linux || portablepoll

package server

// Portable edge: without epoll, each conn keeps a dedicated reader
// goroutine (as before the reactor), but it shares the reactor's entire
// state machine — ingest, bulk submission, saturation parking, the
// refs+outN window — and the shared writer loops still coalesce
// responses across connections. Parking is a channel wait instead of an
// epoll interest toggle; idle deadlines ride on net.Conn read deadlines
// as they did pre-reactor.
//
// The portablepoll tag exists so CI on linux can run the server suite
// against this file; no shipped build sets it.

import (
	"net"
	"time"

	"batcher/internal/obs"
)

// reactorRunsLoops: no loop goroutines; conns read on their own.
const reactorRunsLoops = false

// poller is unused on this platform; the field stays nil.
type poller struct{}

func (p *poller) wake()  {}
func (p *poller) close() {}

func (l *rloop) initPoll() error { return nil }

// run is never started here (reactorRunsLoops is false); it exists so
// the shared Start code compiles.
func (l *rloop) run() {}

// readable is a no-op here: the conn's own goroutine resumes reading
// when resumeConn unparks it.
func (l *rloop) readable(c *conn, sc *edgeScratch) {}

// registerConn starts the conn's reader goroutine.
func (s *Server) registerConn(c *conn) {
	l := c.rl
	c.resume = make(chan struct{}, 1)
	l.mu.Lock()
	l.conns[c] = struct{}{}
	l.mu.Unlock()
	go l.serveConn(c)
}

func (c *conn) setReadInterestLocked(on bool) {}

// detachLocked removes the conn from its loop's registry. Caller holds
// c.mu.
func (c *conn) detachLocked() {
	l := c.rl
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// tryWrite performs one bounded write: a short deadline keeps the
// shared writer loop from blocking on a stalled peer for more than one
// slice, while the wstart clock accumulates toward WriteStallTimeout.
func (c *conn) tryWrite(b []byte) (int, bool, error) {
	c.nc.SetWriteDeadline(time.Now().Add(blockedRetry))
	n, err := c.nc.Write(b)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return n, true, nil
		}
		return n, false, err
	}
	return n, false, nil
}

// serveConn is the per-conn reader: blocking reads feeding the shared
// ingest path, parking on the resume channel when the window fills or
// the pump saturates, and running its own deadline sweep while parked.
func (l *rloop) serveConn(c *conn) {
	s := l.s
	sc := edgeScratch{readBuf: make([]byte, 32<<10)}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		if c.state.Load() != connOpen {
			return
		}
		if s.quitting() {
			// Park for the drain: reject parked submissions, close when
			// quiescent (the writer loop closes conns that still have
			// responses in flight; DrainTimeout force-evicts the rest).
			l.sweepQuit(c)
			if c.state.Load() != connOpen {
				return
			}
			timer.Reset(sweepInterval)
			select {
			case <-c.resume:
			case <-timer.C:
			}
			continue
		}
		c.mu.Lock()
		paused := c.paused
		c.mu.Unlock()
		if paused {
			timer.Reset(sweepInterval)
			select {
			case <-c.resume:
			case <-timer.C:
			}
			l.sweepOne(c, obs.Now())
			l.resumeConn(c, &sc)
			continue
		}
		if s.cfg.IdleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		n, err := c.nc.Read(sc.readBuf)
		if n > 0 {
			s.readSys.Add(1)
			s.ingest(c, sc.readBuf[:n], &sc)
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if s.quitting() {
					continue // shutdown stamped the deadline to wake us
				}
				s.evict(c, evictIdle)
				return
			}
			s.evict(c, evictReadError)
			return
		}
	}
}

// wakeEdge prods every conn reader and writer loop. Used by Shutdown
// for the quit and stop transitions; the read-deadline stamp wakes
// readers blocked in Read.
func (s *Server) wakeEdge() {
	s.connMu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	now := time.Now()
	for _, c := range conns {
		c.nc.SetReadDeadline(now)
		c.rl.kick(c)
	}
	for _, w := range s.wloops {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}
