package fabric

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the membership layer beneath the coarse×fine grid
// scheduler (internal/grid): point-to-point framed links between one
// master and a *dynamic* set of workers. The fixed-size star of
// TCPTransport fits a one-shot fine-grain run, where the world's rank
// count is known before anything starts; the grid instead leases
// workers to jobs, loses workers to failures, and admits late joiners
// — so its unit is the single Link, not a sized world.
//
// Two implementations ship, mirroring the Transport pair:
//
//   - LinkPair: an in-proc connected pair of endpoints over buffered
//     channels. Closing either end kills both (a dead process cannot
//     half-close), which is exactly the semantics chaos tests need to
//     simulate a SIGKILLed worker.
//
//   - TCPLink: one framed TCP connection, same [tag:1][len:4 LE] wire
//     format as TCPTransport. The master side comes from
//     StarListener.AcceptLink, the worker side from DialStar.
//
// A worker serves its link through WorkerTransport, a 2-rank Transport
// view (master = rank 0, self = rank 1), so finegrain's serve loop
// runs unchanged over either membership style.

// Link is one framed duplex connection between a master and a worker.
// Send and Recv may each be used by one goroutine at a time.
type Link interface {
	// Send delivers one tagged frame to the peer.
	Send(tag byte, payload []byte) error
	// Recv blocks for the peer's next frame.
	Recv() (tag byte, payload []byte, err error)
	// Close tears the link down; both ends' blocked and future calls
	// fail.
	Close() error
}

// LinkDeadliner is implemented by links that can bound Recv waits —
// the link-level twin of the Transport PeerDeadliner. The zero time
// clears the deadline.
type LinkDeadliner interface {
	SetRecvDeadline(at time.Time) error
}

// SetLinkRecvDeadline arms (zero time: clears) l's Recv deadline when
// the link supports one, reporting whether it did. Expiry surfaces
// from Recv with os.ErrDeadlineExceeded in the error chain — raw, not
// RankDead-typed: a link does not know which rank it is, so the
// caller (the grid's sub-transport, the fleet's probe) supplies that
// judgment.
func SetLinkRecvDeadline(l Link, at time.Time) bool {
	d, ok := l.(LinkDeadliner)
	if !ok {
		return false
	}
	return d.SetRecvDeadline(at) == nil
}

// LinkRecycler is implemented by links that keep a frame-buffer free
// list — the link-level twin of the Transport Recycler, and what keeps
// a grid dispatch as allocation-free as a fixed-world one.
type LinkRecycler interface {
	Recycle(buf []byte)
}

// RecycleLink hands buf, a spent Recv payload of l, back to l's free
// list when the link keeps one; otherwise the buffer is left to the GC.
// Callers must not touch buf afterwards.
func RecycleLink(l Link, buf []byte) {
	if r, ok := l.(LinkRecycler); ok {
		r.Recycle(buf)
	}
}

// linkFreeFrames bounds a link's free list. A dispatch keeps one job
// frame and one partial in flight per link, so a handful covers the
// steady state; the bound is what keeps a burst of large frames from
// pinning memory.
const linkFreeFrames = 8

// ---------------------------------------------------------------------
// In-proc channel link
// ---------------------------------------------------------------------

type chanLink struct {
	in     <-chan chanFrame
	out    chan<- chanFrame
	closed chan struct{}
	once   *sync.Once
	free   frameFreeList // shared by the pair: one end's Recycle feeds the other's Send

	dl    atomic.Int64 // armed Recv deadline (UnixNano; 0 = none)
	timer *time.Timer  // reused expiry timer (Recv is single-goroutine)
}

// LinkPair returns the two ends of a connected in-proc link. Closing
// either end closes both — a killed in-proc worker looks exactly like
// a killed process: every pending and future call on the pair fails.
func LinkPair() (master, worker Link) {
	ab := make(chan chanFrame, 64)
	ba := make(chan chanFrame, 64)
	closed := make(chan struct{})
	once := new(sync.Once)
	free := make(frameFreeList, 2*linkFreeFrames)
	return &chanLink{in: ba, out: ab, closed: closed, once: once, free: free},
		&chanLink{in: ab, out: ba, closed: closed, once: once, free: free}
}

func (l *chanLink) Send(tag byte, payload []byte) error {
	select {
	case <-l.closed:
		return ErrTransportClosed
	default:
	}
	// Copy: senders may reuse encode buffers the moment Send returns
	// (same contract as ChanTransport.Send), into a recycled buffer
	// when the pair's free list has one big enough.
	var p []byte
	if len(payload) > 0 {
		p = l.free.get(len(payload))
		copy(p, payload)
	}
	select {
	case l.out <- chanFrame{tag: tag, payload: p}:
		return nil
	case <-l.closed:
		return ErrTransportClosed
	}
}

func (l *chanLink) Recv() (byte, []byte, error) {
	// Delivery-first on close, matching ChanTransport.Recv.
	select {
	case f := <-l.in:
		return f.tag, f.payload, nil
	default:
	}
	if d := l.dl.Load(); d != 0 {
		until := time.Until(time.Unix(0, d))
		if until <= 0 {
			return 0, nil, os.ErrDeadlineExceeded
		}
		if l.timer == nil {
			l.timer = time.NewTimer(until)
		} else {
			if !l.timer.Stop() {
				select {
				case <-l.timer.C:
				default:
				}
			}
			l.timer.Reset(until)
		}
		select {
		case f := <-l.in:
			return f.tag, f.payload, nil
		case <-l.closed:
			return 0, nil, ErrTransportClosed
		case <-l.timer.C:
			return 0, nil, os.ErrDeadlineExceeded
		}
	}
	select {
	case f := <-l.in:
		return f.tag, f.payload, nil
	case <-l.closed:
		return 0, nil, ErrTransportClosed
	}
}

// SetRecvDeadline arms (zero time: clears) the link's Recv deadline;
// it applies to Recv calls entered after it returns.
func (l *chanLink) SetRecvDeadline(at time.Time) error {
	if at.IsZero() {
		l.dl.Store(0)
	} else {
		l.dl.Store(at.UnixNano())
	}
	return nil
}

func (l *chanLink) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// Recycle hands a spent Recv payload to the pair's free list; it then
// backs the copy of a later Send from either end.
func (l *chanLink) Recycle(buf []byte) { l.free.put(buf) }

// ---------------------------------------------------------------------
// TCP link and the star listener
// ---------------------------------------------------------------------

// starHello is the tag of the join frame a DialStar worker sends right
// after connecting: [version:4 LE][pid:4 LE], the pid (0 when unknown)
// letting the master SIGKILL real worker processes in chaos runs.
const starHello byte = 0xFE

// TCPLink is one framed TCP connection end.
type TCPLink struct {
	conn   *tcpConn
	raw    net.Conn
	closed atomic.Bool
}

func newTCPLink(c net.Conn) *TCPLink {
	return &TCPLink{conn: newTCPConn(c, make(frameFreeList, linkFreeFrames)), raw: c}
}

// Send delivers one tagged frame to the peer.
func (l *TCPLink) Send(tag byte, payload []byte) error {
	if err := l.conn.write(tag, payload); err != nil {
		return l.linkError(err)
	}
	return nil
}

// Recv blocks for the peer's next frame.
func (l *TCPLink) Recv() (byte, []byte, error) {
	tag, payload, err := l.conn.read()
	if err != nil {
		return 0, nil, l.linkError(err)
	}
	return tag, payload, nil
}

// linkError maps a failed read/write: this end's own Close yields
// ErrTransportClosed; a vanished peer keeps its raw error (EOF, reset)
// for the caller — the grid's sub-transport wraps it into a
// RankDeadError with the job-local rank it knows and the link doesn't.
func (l *TCPLink) linkError(err error) error {
	if l.closed.Load() || (errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF)) {
		return ErrTransportClosed
	}
	return err
}

// SetRecvDeadline arms (zero time: clears) the read deadline on the
// underlying connection; it also interrupts a Recv already blocked in
// the kernel. Expiry surfaces from Recv with os.ErrDeadlineExceeded.
func (l *TCPLink) SetRecvDeadline(at time.Time) error {
	return l.raw.SetReadDeadline(at)
}

// Recycle hands a spent Recv payload to the link's free list; a later
// Recv reads its frame into it.
func (l *TCPLink) Recycle(buf []byte) { l.conn.free.put(buf) }

// Close tears the link down.
func (l *TCPLink) Close() error {
	l.closed.Store(true)
	return l.raw.Close()
}

// StarListener accepts grid workers as they dial in — at start-up or
// any time later (late joiners enter the scheduler's free pool). It is
// the dynamic-membership counterpart of ListenTCP/Accept, which need
// the world size up front.
type StarListener struct {
	ln net.Listener

	// WrapConn, when set before accepting, wraps every accepted
	// connection below the framing layer — the hook chaos tests use to
	// interpose a byte-corrupting FaultConn and exercise the CRC path
	// on real sockets.
	WrapConn func(net.Conn) net.Conn
}

// ListenStar opens a listener for grid workers (use "127.0.0.1:0" for
// an ephemeral port, retrievable via Addr).
func ListenStar(addr string) (*StarListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &StarListener{ln: ln}, nil
}

// Addr returns the listen address (for spawning workers).
func (l *StarListener) Addr() string { return l.ln.Addr().String() }

// AcceptLink blocks for the next worker to dial in and returns its
// link plus the process id it announced (0 when unknown). Identity is
// assigned by the master in accept order — unlike the fixed-rank
// fine-grain hello, a grid worker does not choose its own rank; its
// job-local rank arrives later in each lease's init frame.
//
// The hello read runs under HelloTimeout: a dialer that connects but
// never identifies itself fails here (and the caller moves on to the
// next dialer) instead of wedging admission forever.
func (l *StarListener) AcceptLink() (*TCPLink, int, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, 0, err
	}
	if l.WrapConn != nil {
		c = l.WrapConn(c)
	}
	link := newTCPLink(c)
	if HelloTimeout > 0 {
		c.SetReadDeadline(time.Now().Add(HelloTimeout))
	}
	tag, payload, err := link.Recv()
	if err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("fabric: star hello: %w", err)
	}
	c.SetReadDeadline(time.Time{})
	pid, err := decodeHello("star", tag, starHello, payload)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	return link, int(pid), nil
}

// Close stops accepting. Already-accepted links stay open.
func (l *StarListener) Close() error { return l.ln.Close() }

// DialStar connects a grid worker to the master at addr — retrying
// with capped exponential backoff plus jitter until DialTimeout, so a
// worker spawned a beat before the master's listener still joins — and
// announces pid (pass os.Getpid(); 0 when not a real process).
func DialStar(addr string, pid int) (*TCPLink, error) {
	c, err := dialRetry(addr)
	if err != nil {
		return nil, err
	}
	link := newTCPLink(c)
	if err := link.Send(starHello, encodeHello(uint32(pid))); err != nil {
		c.Close()
		return nil, err
	}
	return link, nil
}

// ---------------------------------------------------------------------
// Worker-side transport view over one link
// ---------------------------------------------------------------------

// workerTransport adapts a worker's single link to the Transport
// interface the finegrain serve loop speaks: a 2-rank star where the
// master is rank 0 and this endpoint rank 1.
type workerTransport struct {
	link  Link
	stats TransportStats
}

// WorkerTransport wraps a worker's link as a 2-rank Transport (master
// = rank 0, self = rank 1) so finegrain.ServeSessions runs over grid
// links exactly as over a fixed-size world.
func WorkerTransport(l Link) Transport {
	return &workerTransport{link: l}
}

func (w *workerTransport) Rank() int              { return 1 }
func (w *workerTransport) Size() int              { return 2 }
func (w *workerTransport) Stats() *TransportStats { return &w.stats }

// masterGone collapses any broken-link condition to ErrTransportClosed:
// seen from a worker, the master IS the world, so a vanished master —
// clean teardown or crash — always means "serve loop, exit cleanly".
func masterGone(err error) error {
	if errors.Is(err, ErrTransportClosed) {
		return ErrTransportClosed
	}
	return fmt.Errorf("%w (master link: %v)", ErrTransportClosed, err)
}

func (w *workerTransport) Send(to int, tag byte, payload []byte) error {
	if to != 0 {
		return fmt.Errorf("fabric: worker link Send to rank %d (only the master exists)", to)
	}
	if err := w.link.Send(tag, payload); err != nil {
		return masterGone(err)
	}
	w.stats.MessagesSent.Add(1)
	w.stats.BytesSent.Add(int64(len(payload)))
	return nil
}

func (w *workerTransport) Recv(from int) (byte, []byte, error) {
	if from != 0 {
		return 0, nil, fmt.Errorf("fabric: worker link Recv from rank %d (only the master exists)", from)
	}
	tag, payload, err := w.link.Recv()
	if err != nil {
		return 0, nil, masterGone(err)
	}
	w.stats.MessagesRecv.Add(1)
	w.stats.BytesRecv.Add(int64(len(payload)))
	return tag, payload, nil
}

func (w *workerTransport) Close() error { return w.link.Close() }

// Recycle forwards a spent job frame to the link's free list (the
// fabric.Recycler contract; the master is the only peer).
func (w *workerTransport) Recycle(_ int, buf []byte) { RecycleLink(w.link, buf) }
