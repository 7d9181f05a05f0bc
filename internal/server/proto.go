// Package server is batcherd's serving layer: it extends implicit
// batching to the wire. Clients speak a length-prefixed binary protocol
// over TCP; acceptor goroutines decode operations and submit them
// through a sched.Pump, whose per-worker pump tasks Batchify each one —
// so concurrent network requests coalesce into batches through exactly
// the pending-array machinery that coalesces concurrent fork-join
// strands. Invariant 1 (one batch in flight) and Invariant 2 (at most P
// operations per batch) hold at the network edge for free.
//
// The ingress path is bounded end to end by each connection's
// in-flight window: the reader parks — stops reading the socket, which
// is TCP backpressure — when the window is full, so the server never
// holds more than conns × Window decoded operations. Invalid operations
// are rejected with FlagErr.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"batcher/internal/obs"
)

// ErrFrameTooLarge is wrapped by ReadFrame errors caused by a length
// prefix beyond maxFrame — a protocol violation by the peer, as opposed
// to an I/O failure. Readers use errors.Is to count it as a decode
// error in the stats.
var ErrFrameTooLarge = errors.New("frame length exceeds limit")

// Wire format. All integers are little-endian. Every frame is a uint32
// byte length followed by that many payload bytes.
//
//	request  := len:u32 id:u64 ds:u8 op:u8 key:i64 val:i64
//	response := len:u32 id:u64 flags:u8 key:i64 res:i64 payload:bytes
//
// id is an opaque client token echoed in the response; responses may
// arrive in any order (completion order, not submission order). key in
// a response echoes the operation's key except for skip-list Succ,
// where it carries the successor key found. payload is present only
// when FlagPayload is set (the stats document).

// Data-structure identifiers (the ds byte).
const (
	// DSCounter is the batched prefix-sums counter.
	DSCounter uint8 = 0
	// DSSkiplist is the Section 7 batched skip list.
	DSSkiplist uint8 = 1
	// DSTree23 is the join-based batched 2-3 tree.
	DSTree23 uint8 = 2
	// DSHashmap is the bucket-disjoint batched hash map.
	DSHashmap uint8 = 3
	// DSStats addresses the server itself: the response carries the
	// JSON stats document (ops/s, achieved batch sizes, queue depth) as
	// its payload.
	DSStats uint8 = 0xFF
)

// Operation codes (the op byte). They mirror each structure's
// sched.OpKind values; the server validates the (ds, op) pair.
const (
	// OpInsert / OpPut / OpIncrement: the structure's write. For the
	// counter, val is the delta and res the post-increment value; for
	// the maps and sets, key/val are inserted and FlagOK reports "newly
	// inserted".
	OpInsert uint8 = 0
	// OpLookup (Contains/Get): res receives the value, FlagOK presence.
	OpLookup uint8 = 1
	// OpDelete (Delete/Del): FlagOK reports "was present".
	OpDelete uint8 = 2
	// OpSucc (skip list only): smallest key >= key; the response key
	// holds the successor key, res its value, FlagOK existence.
	OpSucc uint8 = 4
)

// OpFlagPhases is a modifier bit on the request op byte: the client
// asks the server to echo the operation's phase-stamp vector back in
// the response (a FlagPhases trailer). The server masks it off before
// validating the (ds, op) pair, so it composes with every operation
// code. Requests without the bit get byte-identical responses to the
// pre-phase protocol — the extension is fully backward compatible.
const OpFlagPhases uint8 = 0x80

// Response flag bits.
const (
	// FlagOK carries the operation's boolean result (presence, "newly
	// inserted", ...). A clear FlagOK with a clear FlagErr is a normal
	// negative result, not a failure.
	FlagOK uint8 = 1 << 0
	// FlagErr marks a failed request: rejected without executing
	// (malformed (ds, op) pair, shed by admission control) or
	// accepted but caught in a batch group whose BOP panicked — in which
	// case the structure may or may not have applied the operation
	// before panicking, and the client must treat its effect as
	// unknown.
	FlagErr uint8 = 1 << 1
	// FlagPayload marks a response carrying payload bytes.
	FlagPayload uint8 = 1 << 2
	// FlagPhases marks a response carrying a phase-stamp trailer: the
	// last phaseTrailer bytes of the body are obs.NumPhases little-endian
	// int64 stamps (obs.Now nanoseconds, PhaseRead first), after the
	// payload if both are present. Set only when the request carried
	// OpFlagPhases and the server had stamps to report.
	FlagPhases uint8 = 1 << 3
)

const (
	reqBody  = 8 + 1 + 1 + 8 + 8 // id, ds, op, key, val
	respBody = 8 + 1 + 8 + 8     // id, flags, key, res

	// phaseTrailer is the byte length of a FlagPhases stamp trailer.
	phaseTrailer = 8 * obs.NumPhases

	// maxFrame bounds any frame body, guarding readers against garbage
	// or hostile length prefixes.
	maxFrame = 1 << 20
)

// Request is one decoded client request.
type Request struct {
	ID  uint64
	DS  uint8
	Op  uint8
	Key int64
	Val int64
}

// Response is one decoded server response.
type Response struct {
	ID      uint64
	Flags   uint8
	Key     int64
	Res     int64
	Payload []byte
	// Phases carries the operation's stamp vector when FlagPhases is
	// set (see obs.PhaseRead..PhaseDone for slot meanings).
	Phases [obs.NumPhases]int64
}

// OK reports the operation's boolean result.
func (r *Response) OK() bool { return r.Flags&FlagOK != 0 }

// Err reports whether the request failed: rejected before the pump, or
// lost to a contained batch panic (see FlagErr for the distinction).
func (r *Response) Err() bool { return r.Flags&FlagErr != 0 }

// AppendRequest appends q's wire encoding to buf and returns the
// extended slice.
func AppendRequest(buf []byte, q Request) []byte {
	var f [4 + reqBody]byte
	binary.LittleEndian.PutUint32(f[0:], reqBody)
	binary.LittleEndian.PutUint64(f[4:], q.ID)
	f[12] = q.DS
	f[13] = q.Op
	binary.LittleEndian.PutUint64(f[14:], uint64(q.Key))
	binary.LittleEndian.PutUint64(f[22:], uint64(q.Val))
	return append(buf, f[:]...)
}

// AppendResponse appends r's wire encoding to buf and returns the
// extended slice. When r.Flags carries FlagPhases, r.Phases is encoded
// as the trailing stamp block.
func AppendResponse(buf []byte, r Response) []byte {
	body := respBody + len(r.Payload)
	if r.Flags&FlagPhases != 0 {
		body += phaseTrailer
	}
	var f [4 + respBody]byte
	binary.LittleEndian.PutUint32(f[0:], uint32(body))
	binary.LittleEndian.PutUint64(f[4:], r.ID)
	f[12] = r.Flags
	binary.LittleEndian.PutUint64(f[13:], uint64(r.Key))
	binary.LittleEndian.PutUint64(f[21:], uint64(r.Res))
	buf = append(buf, f[:]...)
	buf = append(buf, r.Payload...)
	if r.Flags&FlagPhases != 0 {
		var t [phaseTrailer]byte
		for i, s := range r.Phases {
			binary.LittleEndian.PutUint64(t[8*i:], uint64(s))
		}
		buf = append(buf, t[:]...)
	}
	return buf
}

// ReadFrame reads one length-prefixed frame body into buf (growing it
// as needed) and returns the body slice, which aliases buf's storage.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("server: %w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// SplitFrame splits one length-prefixed frame off the front of b
// without copying: body aliases b, rest is the unconsumed tail. ok is
// false when b does not yet hold a complete frame (more bytes must
// arrive); err is non-nil for a hostile length prefix (wraps
// ErrFrameTooLarge). It is the non-blocking analogue of ReadFrame, used
// by the reactor's reader loops to carve many frames out of one socket
// read.
func SplitFrame(b []byte) (body, rest []byte, ok bool, err error) {
	if len(b) < 4 {
		return nil, b, false, nil
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrame {
		return nil, b, false, fmt.Errorf("server: %w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if len(b) < 4+int(n) {
		return nil, b, false, nil
	}
	return b[4 : 4+n], b[4+n:], true, nil
}

// DecodeRequest decodes a request frame body.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) != reqBody {
		return Request{}, fmt.Errorf("server: request body %d bytes, want %d", len(b), reqBody)
	}
	return Request{
		ID:  binary.LittleEndian.Uint64(b[0:]),
		DS:  b[8],
		Op:  b[9],
		Key: int64(binary.LittleEndian.Uint64(b[10:])),
		Val: int64(binary.LittleEndian.Uint64(b[18:])),
	}, nil
}

// DecodeResponse decodes a response frame body. The returned Payload
// aliases b; copy it to retain it past the next read into b's buffer.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < respBody {
		return Response{}, fmt.Errorf("server: response body %d bytes, want >= %d", len(b), respBody)
	}
	r := Response{
		ID:    binary.LittleEndian.Uint64(b[0:]),
		Flags: b[8],
		Key:   int64(binary.LittleEndian.Uint64(b[9:])),
		Res:   int64(binary.LittleEndian.Uint64(b[17:])),
	}
	if r.Flags&FlagPhases != 0 {
		// The stamp trailer sits at the very end, after any payload.
		if len(b) < respBody+phaseTrailer {
			return Response{}, fmt.Errorf("server: response body %d bytes, too short for phase trailer", len(b))
		}
		t := b[len(b)-phaseTrailer:]
		for i := range r.Phases {
			r.Phases[i] = int64(binary.LittleEndian.Uint64(t[8*i:]))
		}
		b = b[:len(b)-phaseTrailer]
	}
	if r.Flags&FlagPayload != 0 {
		r.Payload = b[respBody:]
	}
	return r, nil
}
