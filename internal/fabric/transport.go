package fabric

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the wire beneath every Link (links.go): the TCP
// framing — [tag:1][len:4 LE][crc:4 LE][payload], the CRC32C covering
// tag, length and payload — the versioned hello, the dial retry loop,
// the frame free lists, and the error types a broken wire surfaces as.
// What a broken wire *means* is decided above it: finegrain.Pool types
// any link failure of a dispatch as a RankDeadError carrying the
// job-local rank, and a worker's serve loop treats any link failure as
// the end of its master.

// ErrTransportClosed is returned from link calls after either end's
// Close (this end's own, or the peer's for an in-proc pair).
var ErrTransportClosed = errors.New("fabric: transport closed")

// RankDeadError reports that one specific peer rank is unreachable —
// its connection broke or its process died — while this endpoint is
// still healthy. It is the typed signal the grid scheduler reacts to
// (mark the rank dead, re-stripe the job's pool over survivors) where
// the pre-grid code could only fail the whole process. Rank is the
// dead peer's job-local rank: finegrain.Pool is the one place that
// knows it, and the one place that builds this error.
type RankDeadError struct {
	Rank int
	Err  error
}

// Error implements error.
func (e *RankDeadError) Error() string {
	return fmt.Sprintf("fabric: rank %d is dead: %v", e.Rank, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *RankDeadError) Unwrap() error { return e.Err }

// AsRankDead extracts a RankDeadError from err's chain (nil if none).
func AsRankDead(err error) *RankDeadError {
	var rde *RankDeadError
	if errors.As(err, &rde) {
		return rde
	}
	return nil
}

// ProtocolVersion is the fabric wire protocol generation, announced in
// every hello frame. Version 2 added the per-frame CRC32C to the TCP
// framing and the version word to the hellos; a v1 peer's 4-byte hello
// is rejected at accept time rather than silently misframed. Version 3
// ships every descriptor entry whole in one job frame per dispatch (no
// delta refs, no fragments), so a v2 peer is refused at the hello too.
// Version 4 sends a worker the whole alignment and its stripe in the
// init frame, and every block naming a partition uses the master's
// numbering, so a v3 peer is refused as well.
const ProtocolVersion uint32 = 4

// castagnoli is the CRC32C polynomial table used for frame checksums
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameCorruptError reports a framed TCP message whose CRC32C check
// failed: the bytes read off the wire are not the bytes the peer sent.
// The stream is desynchronized beyond repair, so every consumer treats
// it like peer death — the master maps it through RankDeadError into
// the restripe path, a worker exits its serve loop.
type FrameCorruptError struct {
	Tag  byte   // tag byte as read (possibly itself corrupt)
	Len  uint32 // length prefix as read
	Want uint32 // checksum carried in the frame header
	Got  uint32 // checksum of the bytes actually received
}

// Error implements error.
func (e *FrameCorruptError) Error() string {
	return fmt.Sprintf("fabric: corrupt frame (tag %d, %d bytes): crc %08x, want %08x", e.Tag, e.Len, e.Got, e.Want)
}

// corruptFrames counts frames rejected process-wide — by the TCP CRC
// check or by the fault injector emulating one — for the server's
// health metrics.
var corruptFrames atomic.Int64

// CorruptFrames returns the process-wide count of frames rejected as
// corrupt (exported at /debug/vars by the analysis server).
func CorruptFrames() int64 { return corruptFrames.Load() }

// Package-level I/O guards. Variables, not constants, so chaos tests
// tighten them to keep fault detection fast; zero disables a guard.
var (
	// WriteTimeout bounds every TCP frame write. A peer that stops
	// reading (wedged, SIGSTOPped) eventually backs TCP's window down
	// to zero and would block the sender forever; the deadline turns
	// that into an error on the sender's side.
	WriteTimeout = 2 * time.Minute
	// HelloTimeout bounds the hello handshake read on an accepted
	// connection: a dialer that connects but never identifies itself
	// must not block AcceptLink indefinitely.
	HelloTimeout = 10 * time.Second
	// DialTimeout bounds the total connect effort of DialStar,
	// across however many backoff-spaced attempts fit.
	DialTimeout = 15 * time.Second
)

// DialTimeoutError reports that DialStar gave up: no attempt
// connected within DialTimeout.
type DialTimeoutError struct {
	Addr     string
	Attempts int
	Err      error // last attempt's error
}

// Error implements error.
func (e *DialTimeoutError) Error() string {
	return fmt.Sprintf("fabric: dial %s: %d attempts failed within %s: %v", e.Addr, e.Attempts, DialTimeout, e.Err)
}

// Unwrap exposes the last dial error.
func (e *DialTimeoutError) Unwrap() error { return e.Err }

// dialBackoff bounds the retry spacing of dialRetry: capped exponential
// growth with full jitter on the upper half, so a fleet of workers
// restarted together does not hammer the master in lockstep.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

// dialRetry connects to addr, retrying with capped exponential backoff
// plus jitter until DialTimeout has elapsed. Workers routinely dial a
// master whose listener is still a few milliseconds from existing
// (spawn races) or that is restarting; a bare net.Dial would turn that
// window into a hard failure.
func dialRetry(addr string) (net.Conn, error) {
	deadline := time.Now().Add(DialTimeout)
	backoff := dialBackoffMin
	var lastErr error
	for attempt := 1; ; attempt++ {
		d := net.Dialer{Deadline: deadline}
		c, err := d.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, &DialTimeoutError{Addr: addr, Attempts: attempt, Err: lastErr}
		}
		sleep := backoff/2 + rand.N(backoff/2+1)
		if sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// frameFreeList is the bounded stack of spent frame buffers behind every
// LinkRecycler: put offers one (dropped when the list is full), get returns
// one with room for n bytes or a fresh allocation — a too-small pop is
// dropped, so the list converges on steady-state frame sizes. A nil list
// recycles nothing.
type frameFreeList chan []byte

func (f frameFreeList) put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	select {
	case f <- buf:
	default:
	}
}

func (f frameFreeList) get(n int) []byte {
	select {
	case b := <-f:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// starHello is the tag of the join frame a DialStar worker sends right
// after connecting: [version:4 LE][pid:4 LE]. The pid (0 when unknown)
// is what lets the master SIGKILL a real worker process in a chaos run,
// and order the links of a -fine run by the processes it spawned.
const starHello byte = 0xFE

// helloLen is the hello payload size: a protocol version word plus the
// pid word.
const helloLen = 8

// encodeHello builds a hello payload announcing the protocol version
// and pid.
func encodeHello(pid uint32) []byte {
	var p [helloLen]byte
	binary.LittleEndian.PutUint32(p[0:4], ProtocolVersion)
	binary.LittleEndian.PutUint32(p[4:8], pid)
	return p[:]
}

// decodeHello validates a hello frame's tag, shape and version,
// returning the pid.
func decodeHello(tag byte, payload []byte) (uint32, error) {
	if tag != starHello || len(payload) != helloLen {
		return 0, fmt.Errorf("fabric: bad star hello (tag %d, %d bytes)", tag, len(payload))
	}
	if v := binary.LittleEndian.Uint32(payload[0:4]); v != ProtocolVersion {
		return 0, fmt.Errorf("fabric: star hello speaks protocol %d, this master speaks %d", v, ProtocolVersion)
	}
	return binary.LittleEndian.Uint32(payload[4:8]), nil
}

// frameHeaderLen is the fixed prefix of a TCP frame: tag, payload
// length, CRC32C.
const frameHeaderLen = 9

// coalesceMax is the largest payload write copies behind its header so
// the frame leaves in one Write; anything longer (init frames, model
// blocks of big alignments) is written after the header instead, which
// keeps the per-connection frame buffer small.
const coalesceMax = 64 << 10

type tcpConn struct {
	c    net.Conn
	br   *bufio.Reader // over c: a frame's header and payload in one read
	rmu  sync.Mutex
	wmu  sync.Mutex
	rbuf [frameHeaderLen]byte
	// wbuf is the outgoing frame under construction (header, then a
	// payload of up to coalesceMax bytes); guarded by wmu.
	wbuf []byte
	free frameFreeList // the owning link's
}

// newTCPConn frames c, recycling payload buffers through free.
func newTCPConn(c net.Conn, free frameFreeList) *tcpConn {
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, 4096), wbuf: make([]byte, frameHeaderLen, 512), free: free}
}

// maxFrameBytes bounds one frame; a length prefix beyond it means a
// corrupt or hostile stream, not a real message.
const maxFrameBytes = 1 << 30

// write sends one frame: [tag:1][len:4 LE][crc:4 LE][payload], the
// CRC32C covering tag, length and payload. Header and payload leave in
// ONE Write — one syscall and, under TCP_NODELAY, one segment instead of
// two — unless the payload is longer than coalesceMax. Each write runs
// under WriteTimeout so a peer that stopped reading surfaces as an error
// here instead of a forever-blocked sender.
func (c *tcpConn) write(tag byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if WriteTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(WriteTimeout))
	}
	hdr := c.wbuf[:frameHeaderLen]
	hdr[0] = tag
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:5])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[5:9], crc)
	if len(payload) > coalesceMax {
		if _, err := c.c.Write(hdr); err != nil {
			return err
		}
		_, err := c.c.Write(payload)
		return err
	}
	c.wbuf = append(hdr, payload...)
	_, err := c.c.Write(c.wbuf)
	return err
}

func (c *tcpConn) read() (byte, []byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	// Through the buffered reader: a small frame's payload is usually
	// already behind its header, so the frame costs one read, not two.
	hdr := c.rbuf[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, nil, err
	}
	tag := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	want := binary.LittleEndian.Uint32(hdr[5:9])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("fabric: frame length %d exceeds limit", n)
	}
	var payload []byte
	if n > 0 {
		payload = c.free.get(int(n))
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return 0, nil, err
		}
	}
	crc := crc32.Update(0, castagnoli, hdr[:5])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		corruptFrames.Add(1)
		return 0, nil, &FrameCorruptError{Tag: tag, Len: n, Want: want, Got: crc}
	}
	return tag, payload, nil
}
