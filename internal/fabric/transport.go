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
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file defines the pluggable byte-message fabric beneath the
// fine-grained distributed worker pool (internal/finegrain): a star of
// one master (rank 0) and size-1 workers exchanging framed, tagged
// byte messages. Two implementations ship:
//
//   - ChanTransport: the in-proc channel world. Ranks are goroutines of
//     one process; frames travel over buffered channels. This is the
//     transport behind fabric.Run-hosted hybrid runs and all unit tests.
//
//   - TCPTransport: real OS processes. The master listens, each worker
//     process dials in and identifies its rank with a hello frame;
//     frames are length-prefixed binary with a per-frame CRC32C
//     ([tag:1][len:4 LE][crc:4 LE][payload]). This is the transport
//     behind `raxml -fine -fine-transport tcp`, where workers are
//     spawned `raxml` processes in worker mode.
//
// The interface is deliberately tiny — point-to-point Send/Recv plus
// counters — because the finegrain protocol needs exactly two
// collective shapes: one descriptor written to every worker per
// dispatch, and one partial read back from each, combined in rank
// order. The master does both on the goroutine that posts the job
// (finegrain.Pool.Post): Send returns once the frame is handed to the
// socket or the channel, so nothing sits between a frame and its wire,
// and there is exactly one place a dispatch can block, the Recv.
// Broadcast and Collect below are the same two shapes for callers with
// nothing to do in between. The counters make the paper's "one
// broadcast + one reduction per dispatch" claim a testable quantity
// rather than a comment.

// ErrTransportClosed is returned from transport calls after this
// endpoint's own Close.
var ErrTransportClosed = errors.New("fabric: transport closed")

// RankDeadError reports that one specific peer rank is unreachable —
// its connection broke or its process died — while this endpoint is
// still healthy. It is the typed signal the grid scheduler reacts to
// (mark the rank dead, re-stripe the job's pool over survivors) where
// the pre-grid code could only fail the whole process. Rank is the
// dead peer's rank in whatever rank space the failing endpoint speaks
// (a job-local rank for a job's sub-transport, a world rank for a
// plain TCPTransport).
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
// is rejected at accept time rather than silently misframed.
const ProtocolVersion uint32 = 2

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

// AsFrameCorrupt extracts a FrameCorruptError from err's chain (nil if
// none).
func AsFrameCorrupt(err error) *FrameCorruptError {
	var fce *FrameCorruptError
	if errors.As(err, &fce) {
		return fce
	}
	return nil
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
	// must not block Accept/AcceptLink indefinitely.
	HelloTimeout = 10 * time.Second
	// DialTimeout bounds the total connect effort of DialTCP/DialStar,
	// across however many backoff-spaced attempts fit.
	DialTimeout = 15 * time.Second
)

// DialTimeoutError reports that DialTCP/DialStar gave up: no attempt
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

// PeerDeadliner is implemented by transports that can bound Recv waits
// per peer. Arming a deadline makes a Recv from that peer fail instead
// of blocking past it — the mechanism behind the per-dispatch straggler
// guard — and the zero time clears it.
type PeerDeadliner interface {
	SetRecvDeadline(peer int, at time.Time) error
}

// SetRecvDeadline arms (or, with the zero time, clears) the Recv
// deadline for one peer on transports that support it; it reports
// whether t did. On expiry the blocked or next Recv fails with an error
// chain containing os.ErrDeadlineExceeded, typed per transport (a
// RankDeadError on the master-side implementations: a rank too slow to
// answer is indistinguishable from a dead one, and is handled the same
// way).
func SetRecvDeadline(t Transport, peer int, at time.Time) bool {
	d, ok := t.(PeerDeadliner)
	if !ok {
		return false
	}
	return d.SetRecvDeadline(peer, at) == nil
}

// Transport moves tagged byte frames between the ranks of one worker
// group. Rank 0 is the master; implementations must deliver frames
// reliably and in order per (sender, receiver) pair. A Transport
// endpoint is owned by one rank; Send and Recv may be called from one
// goroutine at a time per peer.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks (master + workers).
	Size() int
	// Send delivers one tagged frame to rank `to`.
	Send(to int, tag byte, payload []byte) error
	// Recv blocks for the next frame from rank `from`.
	Recv(from int) (tag byte, payload []byte, err error)
	// Close tears the endpoint down; blocked and future calls fail.
	Close() error
	// Stats returns the endpoint's message counters.
	Stats() *TransportStats
}

// TransportStats counts an endpoint's traffic. Messages/Bytes count
// point-to-point frames; Broadcasts and Reductions count *collective
// operations* (one Broadcast covers all workers, one Collect covers
// all partials), incremented by the helpers below. The distributed
// relikelihood invariant — exactly one descriptor broadcast plus one
// reduction per pool dispatch — is asserted against these counters.
type TransportStats struct {
	MessagesSent atomic.Int64
	MessagesRecv atomic.Int64
	BytesSent    atomic.Int64
	BytesRecv    atomic.Int64
	Broadcasts   atomic.Int64
	Reductions   atomic.Int64
}

// Recycler is implemented by transports that keep a frame-buffer free
// list. Handing a Recv payload (no longer referenced) back via Recycle
// lets later Send/Recv calls reuse its backing array, which is what
// makes the finegrain dispatch hot path allocation-free. `from` is the
// rank the payload was received from: the world transports keep one
// list per endpoint and ignore it, the link adapters (grid.subTransport,
// WorkerTransport) use it to hand the buffer back to the link that
// produced it.
type Recycler interface {
	Recycle(from int, buf []byte)
}

// Recycle returns buf, a payload received from rank `from`, to t's free
// list if the transport keeps one; otherwise it is a no-op and the
// buffer is left to the GC. Callers must not touch buf afterwards.
func Recycle(t Transport, from int, buf []byte) {
	if r, ok := t.(Recycler); ok {
		r.Recycle(from, buf)
	}
}

// frameFreeList is the bounded stack of spent frame buffers behind every
// Recycler: put offers one (dropped when the list is full), get returns
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

// Broadcast sends one frame from this endpoint (the master) to every
// other rank, counting a single broadcast operation.
func Broadcast(t Transport, tag byte, payload []byte) error {
	for r := 0; r < t.Size(); r++ {
		if r == t.Rank() {
			continue
		}
		if err := t.Send(r, tag, payload); err != nil {
			return err
		}
	}
	t.Stats().Broadcasts.Add(1)
	return nil
}

// Collect receives one frame from every other rank, in rank order, and
// returns the payloads indexed by rank (this endpoint's own entry is
// nil). Frames carrying errTag are surfaced as errors. Counts a single
// reduction operation.
func Collect(t Transport, wantTag, errTag byte) ([][]byte, error) {
	out := make([][]byte, t.Size())
	for r := 0; r < t.Size(); r++ {
		if r == t.Rank() {
			continue
		}
		tag, payload, err := t.Recv(r)
		if err != nil {
			return nil, err
		}
		switch tag {
		case wantTag:
			out[r] = payload
		case errTag:
			return nil, fmt.Errorf("fabric: rank %d: %s", r, payload)
		default:
			return nil, fmt.Errorf("fabric: rank %d sent tag %d, want %d", r, tag, wantTag)
		}
	}
	t.Stats().Reductions.Add(1)
	return out, nil
}

// ---------------------------------------------------------------------
// In-proc channel transport
// ---------------------------------------------------------------------

type chanFrame struct {
	tag     byte
	payload []byte
}

// ChanTransport is the in-proc Transport: one endpoint per rank, frames
// over per-pair buffered channels shared by the group.
type ChanTransport struct {
	rank   int
	size   int
	mail   [][]chan chanFrame // mail[from][to]
	closed chan struct{}
	once   *sync.Once
	free   frameFreeList // group-shared
	stats  TransportStats

	// dl[from] is the armed Recv deadline for that peer (UnixNano; 0 =
	// none); timers[from] is the reused expiry timer, owned by the one
	// goroutine allowed to Recv from that peer (so the dispatch hot
	// path stays allocation-free once warm).
	dl     []atomic.Int64
	timers []*time.Timer
}

// NewChanTransports creates one connected in-proc endpoint per rank.
// Closing any endpoint closes the whole group (a dead rank must not
// leave peers blocked, mirroring World.abort).
func NewChanTransports(size int) []*ChanTransport {
	if size < 1 {
		panic(fmt.Sprintf("fabric: transport group size %d < 1", size))
	}
	mail := make([][]chan chanFrame, size)
	for i := range mail {
		mail[i] = make([]chan chanFrame, size)
		for j := range mail[i] {
			mail[i][j] = make(chan chanFrame, 64)
		}
	}
	closed := make(chan struct{})
	once := new(sync.Once)
	free := make(frameFreeList, 64*size)
	out := make([]*ChanTransport, size)
	for r := range out {
		out[r] = &ChanTransport{
			rank: r, size: size, mail: mail, closed: closed, once: once, free: free,
			dl: make([]atomic.Int64, size), timers: make([]*time.Timer, size),
		}
	}
	return out
}

// Rank returns this endpoint's rank.
func (c *ChanTransport) Rank() int { return c.rank }

// Size returns the group size.
func (c *ChanTransport) Size() int { return c.size }

// Stats returns this endpoint's counters.
func (c *ChanTransport) Stats() *TransportStats { return &c.stats }

// Send delivers one frame to rank `to`.
func (c *ChanTransport) Send(to int, tag byte, payload []byte) error {
	if to < 0 || to >= c.size || to == c.rank {
		return fmt.Errorf("fabric: Send to invalid rank %d", to)
	}
	select {
	case <-c.closed:
		return ErrTransportClosed
	default:
	}
	// Copy the payload: a real wire serializes, so senders may reuse
	// their encode buffers the moment Send returns. The in-proc
	// transport must not silently weaken that contract. The copy lands
	// in a recycled buffer when the free list has one big enough.
	var p []byte
	if len(payload) > 0 {
		p = c.free.get(len(payload))
		copy(p, payload)
	}
	select {
	case c.mail[c.rank][to] <- chanFrame{tag: tag, payload: p}:
		c.stats.MessagesSent.Add(1)
		c.stats.BytesSent.Add(int64(len(payload)))
		return nil
	case <-c.closed:
		return ErrTransportClosed
	}
}

// Recv blocks for the next frame from rank `from`, delivery-first on
// close (same drain-first rule as Comm.Recv on abort). An armed Recv
// deadline (SetRecvDeadline) bounds the wait; delivery still wins over
// an already-passed deadline when a frame is queued.
func (c *ChanTransport) Recv(from int) (byte, []byte, error) {
	if from < 0 || from >= c.size || from == c.rank {
		return 0, nil, fmt.Errorf("fabric: Recv from invalid rank %d", from)
	}
	select {
	case f := <-c.mail[from][c.rank]:
		return c.delivered(f)
	default:
	}
	if d := c.dl[from].Load(); d != 0 {
		until := time.Until(time.Unix(0, d))
		if until <= 0 {
			return 0, nil, &RankDeadError{Rank: from, Err: os.ErrDeadlineExceeded}
		}
		tm := c.timers[from]
		if tm == nil {
			tm = time.NewTimer(until)
			c.timers[from] = tm
		} else {
			if !tm.Stop() {
				select {
				case <-tm.C:
				default:
				}
			}
			tm.Reset(until)
		}
		select {
		case f := <-c.mail[from][c.rank]:
			return c.delivered(f)
		case <-c.closed:
			return 0, nil, ErrTransportClosed
		case <-tm.C:
			return 0, nil, &RankDeadError{Rank: from, Err: os.ErrDeadlineExceeded}
		}
	}
	select {
	case f := <-c.mail[from][c.rank]:
		return c.delivered(f)
	case <-c.closed:
		return 0, nil, ErrTransportClosed
	}
}

func (c *ChanTransport) delivered(f chanFrame) (byte, []byte, error) {
	c.stats.MessagesRecv.Add(1)
	c.stats.BytesRecv.Add(int64(len(f.payload)))
	return f.tag, f.payload, nil
}

// SetRecvDeadline arms (zero time: clears) the Recv deadline for one
// peer. It applies to Recv calls entered after it returns — the
// dispatch path arms deadlines before kicking its receivers, so every
// guarded wait sees them.
func (c *ChanTransport) SetRecvDeadline(peer int, at time.Time) error {
	if peer < 0 || peer >= c.size || peer == c.rank {
		return fmt.Errorf("fabric: SetRecvDeadline on invalid rank %d", peer)
	}
	if at.IsZero() {
		c.dl[peer].Store(0)
	} else {
		c.dl[peer].Store(at.UnixNano())
	}
	return nil
}

// Recycle pushes buf onto the group's frame free list (dropped when the
// list is full). Receivers call it once a Recv payload is fully
// consumed; the buffer then backs a later Send's copy.
func (c *ChanTransport) Recycle(_ int, buf []byte) { c.free.put(buf) }

// Close tears down the whole group.
func (c *ChanTransport) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

// tcpHello is the tag of the rank-identification frame a worker sends
// right after dialing: [version:4 LE][rank:4 LE].
const tcpHello byte = 0xFF

// helloLen is the payload size of both hello flavors (tcpHello and
// starHello): a protocol version word plus an identity word.
const helloLen = 8

// encodeHello builds a hello payload announcing the protocol version
// and an identity word (rank for tcpHello, pid for starHello).
func encodeHello(id uint32) []byte {
	var p [helloLen]byte
	binary.LittleEndian.PutUint32(p[0:4], ProtocolVersion)
	binary.LittleEndian.PutUint32(p[4:8], id)
	return p[:]
}

// decodeHello validates a hello frame's shape and version, returning
// the identity word.
func decodeHello(kind string, tag, wantTag byte, payload []byte) (uint32, error) {
	if tag != wantTag || len(payload) != helloLen {
		return 0, fmt.Errorf("fabric: bad %s hello (tag %d, %d bytes)", kind, tag, len(payload))
	}
	if v := binary.LittleEndian.Uint32(payload[0:4]); v != ProtocolVersion {
		return 0, fmt.Errorf("fabric: %s hello speaks protocol %d, this master speaks %d", kind, v, ProtocolVersion)
	}
	return binary.LittleEndian.Uint32(payload[4:8]), nil
}

// TCPTransport is the cross-process Transport: length-prefixed tagged
// frames over one TCP connection per (master, worker) pair. The master
// endpoint holds size-1 accepted connections; a worker endpoint holds
// its single connection to the master. Workers can only exchange frames
// with rank 0 — the star topology is all the finegrain protocol needs.
type TCPTransport struct {
	rank   int
	size   int
	conns  []*tcpConn // indexed by peer rank; nil where no link exists
	ln     net.Listener
	closed atomic.Bool
	free   frameFreeList // endpoint-wide
	stats  TransportStats
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
	free frameFreeList // shared with the owning endpoint or link pair
}

// newTCPConn frames c, recycling payload buffers through free.
func newTCPConn(c net.Conn, free frameFreeList) *tcpConn {
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, 4096), wbuf: make([]byte, frameHeaderLen, 512), free: free}
}

// ListenTCP creates the master endpoint: it listens on addr (use
// "127.0.0.1:0" for an ephemeral port, retrievable via Addr) and
// Accept waits for the size-1 workers to dial in and identify.
func ListenTCP(addr string, size int) (*TCPTransport, error) {
	if size < 2 {
		return nil, fmt.Errorf("fabric: TCP transport needs >= 2 ranks, got %d", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPTransport{rank: 0, size: size, conns: make([]*tcpConn, size), ln: ln, free: make(frameFreeList, 64)}, nil
}

// Addr returns the master's listen address (for spawning workers).
func (t *TCPTransport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Accept blocks until every worker rank has connected and identified
// itself with a hello frame. Master-side only. Each accepted
// connection's hello read runs under HelloTimeout, so a dialer that
// connects and then wedges cannot block the world's formation forever.
func (t *TCPTransport) Accept() error {
	if t.ln == nil {
		return fmt.Errorf("fabric: Accept on a worker endpoint")
	}
	for n := 0; n < t.size-1; n++ {
		c, err := t.ln.Accept()
		if err != nil {
			return err
		}
		tc := newTCPConn(c, t.free)
		if HelloTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(HelloTimeout))
		}
		tag, payload, err := tc.read()
		if err != nil {
			c.Close()
			return fmt.Errorf("fabric: worker hello: %w", err)
		}
		c.SetReadDeadline(time.Time{})
		id, err := decodeHello("worker", tag, tcpHello, payload)
		if err != nil {
			c.Close()
			return err
		}
		rank := int(id)
		if rank < 1 || rank >= t.size || t.conns[rank] != nil {
			c.Close()
			return fmt.Errorf("fabric: worker hello claims invalid or duplicate rank %d", rank)
		}
		t.conns[rank] = tc
	}
	return nil
}

// DialTCP creates worker endpoint `rank`, connecting to the master at
// addr — retrying with capped exponential backoff until DialTimeout,
// since workers routinely start before the master's listener exists —
// and identifying itself with a versioned hello.
func DialTCP(addr string, rank, size int) (*TCPTransport, error) {
	if rank < 1 || rank >= size {
		return nil, fmt.Errorf("fabric: worker rank %d outside [1, %d)", rank, size)
	}
	c, err := dialRetry(addr)
	if err != nil {
		return nil, err
	}
	t := &TCPTransport{rank: rank, size: size, conns: make([]*tcpConn, size), free: make(frameFreeList, 64)}
	t.conns[0] = newTCPConn(c, t.free)
	if err := t.conns[0].write(tcpHello, encodeHello(uint32(rank))); err != nil {
		c.Close()
		return nil, err
	}
	return t, nil
}

// Rank returns this endpoint's rank.
func (t *TCPTransport) Rank() int { return t.rank }

// Size returns the group size.
func (t *TCPTransport) Size() int { return t.size }

// Stats returns this endpoint's counters.
func (t *TCPTransport) Stats() *TransportStats { return &t.stats }

func (t *TCPTransport) conn(peer int) (*tcpConn, error) {
	if peer < 0 || peer >= t.size || peer == t.rank {
		return nil, fmt.Errorf("fabric: invalid peer rank %d", peer)
	}
	c := t.conns[peer]
	if c == nil {
		return nil, fmt.Errorf("fabric: no link to rank %d (workers only talk to the master)", peer)
	}
	return c, nil
}

// peerError types a failed read/write on the link to `peer`: the
// endpoint's own Close yields ErrTransportClosed (the deliberate
// teardown every serve loop treats as a clean exit), and so does a
// vanished *master* seen from a worker — rank 0 dying IS the end of a
// star world. Everything else — EOF, connection reset, a killed worker
// process — becomes a typed RankDeadError the master can react to
// (mark the rank dead, re-stripe) instead of dying.
func (t *TCPTransport) peerError(peer int, err error) error {
	if t.closed.Load() || errors.Is(err, net.ErrClosed) {
		// Our own socket object was closed under a blocked call —
		// teardown, not peer death.
		return ErrTransportClosed
	}
	if t.rank != 0 && peer == 0 {
		return ErrTransportClosed
	}
	return &RankDeadError{Rank: peer, Err: err}
}

// Send delivers one frame to rank `to`. A broken link surfaces as a
// *RankDeadError carrying the peer's rank, not a process-fatal
// condition: the sender decides whether the rank's death is fatal.
func (t *TCPTransport) Send(to int, tag byte, payload []byte) error {
	c, err := t.conn(to)
	if err != nil {
		return err
	}
	if err := c.write(tag, payload); err != nil {
		return t.peerError(to, err)
	}
	t.stats.MessagesSent.Add(1)
	t.stats.BytesSent.Add(int64(len(payload)))
	return nil
}

// Recv blocks for the next frame from rank `from`. Peer death (EOF,
// reset) surfaces as *RankDeadError; this endpoint's own Close as
// ErrTransportClosed.
func (t *TCPTransport) Recv(from int) (byte, []byte, error) {
	c, err := t.conn(from)
	if err != nil {
		return 0, nil, err
	}
	tag, payload, err := c.read()
	if err != nil {
		return 0, nil, t.peerError(from, err)
	}
	t.stats.MessagesRecv.Add(1)
	t.stats.BytesRecv.Add(int64(len(payload)))
	return tag, payload, nil
}

// SetRecvDeadline arms (zero time: clears) the read deadline on the
// link to one peer. Unlike the chan transport it also interrupts a
// Recv already blocked in the kernel. Expiry surfaces through Recv as
// a RankDeadError wrapping os.ErrDeadlineExceeded.
func (t *TCPTransport) SetRecvDeadline(peer int, at time.Time) error {
	c, err := t.conn(peer)
	if err != nil {
		return err
	}
	return c.c.SetReadDeadline(at)
}

// Recycle pushes buf onto the endpoint's frame free list (dropped when
// the list is full); later reads reuse it for incoming payloads.
func (t *TCPTransport) Recycle(_ int, buf []byte) { t.free.put(buf) }

// Close shuts every connection (and the master's listener) down.
func (t *TCPTransport) Close() error {
	t.closed.Store(true)
	var first error
	if t.ln != nil {
		first = t.ln.Close()
	}
	for _, c := range t.conns {
		if c == nil {
			continue
		}
		if err := c.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
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
