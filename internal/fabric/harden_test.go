package fabric

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// withTimeouts tightens the package I/O guards for a test and restores
// them afterwards.
func withTimeouts(t *testing.T, hello, dial time.Duration) {
	t.Helper()
	oldHello, oldDial := HelloTimeout, DialTimeout
	HelloTimeout, DialTimeout = hello, dial
	t.Cleanup(func() { HelloTimeout, DialTimeout = oldHello, oldDial })
}

// checkNoGoroutineGrowth asserts the goroutine count returns to the
// baseline, allowing teardown a moment to settle.
func checkNoGoroutineGrowth(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAcceptHelloDeadline: HelloTimeout bounds the hello and nothing
// after it. AcceptLink clears the read deadline it armed, so a worker
// that joined in time and then idles far past HelloTimeout before its
// first frame (a lease that starts late) is still read intact.
func TestAcceptHelloDeadline(t *testing.T) {
	withTimeouts(t, 100*time.Millisecond, DialTimeout)
	const idle = 300 * time.Millisecond // three HelloTimeouts
	ln, err := ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan *TCPLink, 1)
	go func() {
		w, err := DialStar(ln.Addr(), 7)
		if err != nil {
			t.Error(err)
		}
		dialed <- w
	}()
	m, _, err := ln.AcceptLink()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w := <-dialed
	if w == nil {
		t.FailNow()
	}
	defer w.Close()
	go func() {
		time.Sleep(idle)
		w.Send(3, []byte("late"))
	}()
	if tag, payload, err := m.Recv(); err != nil || tag != 3 || string(payload) != "late" {
		t.Fatalf("first frame %v after the hello: tag %d payload %q err %v", idle, tag, payload, err)
	}
}

// acceptHello dials a fresh StarListener, writes one correctly framed
// frame with the given tag and payload in place of the hello, and
// returns AcceptLink's rejection of it.
func acceptHello(t *testing.T, tag byte, hello []byte) error {
	t.Helper()
	ln, err := ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := newTCPConn(c, nil).write(tag, hello); err != nil {
		t.Fatal(err)
	}
	link, _, err := ln.AcceptLink()
	if err == nil {
		link.Close()
		t.Fatalf("AcceptLink admitted a tag-%d hello of %d bytes", tag, len(hello))
	}
	return err
}

// TestTCPTransportRejectsBadHello covers the handshake validation of
// the tcp transport: a correctly framed first frame that is not a star
// hello is rejected at accept time, not admitted as a worker.
func TestTCPTransportRejectsBadHello(t *testing.T) {
	err := acceptHello(t, starHello+1, encodeHello(42))
	if !strings.Contains(err.Error(), "bad star hello") {
		t.Fatalf("bad-tag error %q does not name the hello", err)
	}
}

// TestTCPTransportRejectsOldProtocol covers the version word added to
// the hello in protocol v2: a hello announcing another version, and a
// v1-era 4-byte hello (no version word), are rejected at accept time
// instead of misframed.
func TestTCPTransportRejectsOldProtocol(t *testing.T) {
	var other [helloLen]byte
	binary.LittleEndian.PutUint32(other[0:4], ProtocolVersion+1)
	binary.LittleEndian.PutUint32(other[4:8], 42)
	if err := acceptHello(t, starHello, other[:]); !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("version mismatch error %q does not mention the protocol", err)
	}
	var v1 [4]byte
	binary.LittleEndian.PutUint32(v1[:], 42)
	if err := acceptHello(t, starHello, v1[:]); !strings.Contains(err.Error(), "bad star hello") {
		t.Fatalf("v1 hello error %q does not name the hello", err)
	}
}

// TestStarHelloDeadline: a dialer that connects to a StarListener and
// never sends its hello must not wedge AcceptLink past HelloTimeout;
// the listener leaks nothing and keeps accepting well-behaved dialers
// afterwards.
func TestStarHelloDeadline(t *testing.T) {
	withTimeouts(t, 200*time.Millisecond, DialTimeout)
	baseline := runtime.NumGoroutine()
	ln, err := ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	wedged, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := ln.AcceptLink(); err == nil {
		t.Fatal("AcceptLink admitted a silent dialer")
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("AcceptLink error %v does not carry os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("AcceptLink took %v, far past the 200ms HelloTimeout", elapsed)
	}
	wedged.Close()

	// A proper dialer still joins.
	type dialRes struct {
		link *TCPLink
		err  error
	}
	ch := make(chan dialRes, 1)
	go func() {
		l, err := DialStar(ln.Addr(), 42)
		ch <- dialRes{l, err}
	}()
	link, pid, err := ln.AcceptLink()
	if err != nil {
		t.Fatalf("AcceptLink after a rejected dialer: %v", err)
	}
	if pid != 42 {
		t.Fatalf("announced pid %d, want 42", pid)
	}
	link.Close()
	res := <-ch
	if res.err != nil {
		t.Fatal(res.err)
	}
	res.link.Close()
	checkNoGoroutineGrowth(t, baseline)
}

// TestFrameCRCDetectsWireCorruption flips a byte of the raw TCP stream
// beneath the framing (FaultConn via StarListener.WrapConn) and
// asserts the CRC32C check rejects the frame as a FrameCorruptError
// and bumps the corrupt-frame counter.
func TestFrameCRCDetectsWireCorruption(t *testing.T) {
	ln, err := ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var fc *FaultConn
	// The hello frame occupies stream bytes [0, 17); corrupt a byte of
	// the next frame's payload.
	ln.WrapConn = func(c net.Conn) net.Conn {
		fc = &FaultConn{Conn: c, CorruptAt: []int64{30}}
		return fc
	}
	errCh := make(chan error, 1)
	go func() {
		link, err := DialStar(ln.Addr(), 0)
		if err != nil {
			errCh <- err
			return
		}
		defer link.Close()
		errCh <- link.Send(9, []byte("0123456789abcdef"))
	}()
	link, _, err := ln.AcceptLink()
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	before := CorruptFrames()
	_, _, err = link.Recv()
	var fce *FrameCorruptError
	if !errors.As(err, &fce) {
		t.Fatalf("Recv over a corrupted stream got %v, want FrameCorruptError", err)
	}
	if got := CorruptFrames(); got != before+1 {
		t.Fatalf("CorruptFrames went %d -> %d, want +1", before, got)
	}
	if fc.Flipped.Load() == 0 {
		t.Fatal("FaultConn never flipped the scheduled byte")
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestLinkRecvDeadline covers the TCPLink deadline behind dispatch
// guards, fleet probes and release drains over real workers: an armed
// deadline interrupts a Recv already blocked in the kernel with
// os.ErrDeadlineExceeded, the stream survives the timeout, and clearing
// restores unbounded waits.
func TestLinkRecvDeadline(t *testing.T) {
	ln, err := ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan *TCPLink, 1)
	go func() {
		w, err := DialStar(ln.Addr(), 0)
		if err != nil {
			t.Error(err)
		}
		dialed <- w
	}()
	m, _, err := ln.AcceptLink()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w := <-dialed
	defer w.Close()

	blocked := make(chan error, 1)
	go func() {
		_, _, err := m.Recv()
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Recv reach the kernel
	start := time.Now()
	if ok := SetLinkRecvDeadline(m, time.Now().Add(50*time.Millisecond)); !ok {
		t.Fatal("TCPLink rejected SetRecvDeadline")
	}
	if err := <-blocked; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("deadline expiry got %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Recv blocked %v past a 50ms deadline", elapsed)
	}

	// Cleared: Recv waits for a late frame again, read intact.
	SetLinkRecvDeadline(m, time.Time{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		w.Send(3, []byte("late"))
	}()
	if tag, payload, err := m.Recv(); err != nil || tag != 3 || string(payload) != "late" {
		t.Fatalf("Recv after clear: tag %d payload %q err %v", tag, payload, err)
	}
}

// TestChanRecvDeadline covers the same deadline on a LinkPair: expiry
// surfaces as os.ErrDeadlineExceeded, a queued frame still wins over a
// passed deadline (delivery-first), and clearing restores unbounded
// waits.
func TestChanRecvDeadline(t *testing.T) {
	m, w := LinkPair()
	defer m.Close()
	if ok := SetLinkRecvDeadline(m, time.Now().Add(50*time.Millisecond)); !ok {
		t.Fatal("chanLink rejected SetRecvDeadline")
	}
	start := time.Now()
	if _, _, err := m.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("deadline expiry got %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Recv blocked %v past a 50ms deadline", elapsed)
	}

	// Delivery-first: with a frame already queued, the expired deadline
	// must not eat it.
	if err := w.Send(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := m.Recv(); err != nil || tag != 7 || string(payload) != "x" {
		t.Fatalf("queued frame under an expired deadline: tag %d payload %q err %v", tag, payload, err)
	}

	// Cleared: Recv waits for a late frame again.
	SetLinkRecvDeadline(m, time.Time{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		w.Send(3, nil)
	}()
	if tag, _, err := m.Recv(); err != nil || tag != 3 {
		t.Fatalf("Recv after clear: tag %d, err %v", tag, err)
	}
}

// TestDialRetryGivesTypedTimeout: dialing a port nobody listens on
// fails with a DialTimeoutError after multiple backoff-spaced
// attempts.
func TestDialRetryGivesTypedTimeout(t *testing.T) {
	withTimeouts(t, HelloTimeout, 300*time.Millisecond)
	// Grab a port and close it so the dial is refused, not blackholed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = DialStar(addr, 0)
	var dte *DialTimeoutError
	if !errors.As(err, &dte) {
		t.Fatalf("DialStar to a dead port got %v, want DialTimeoutError", err)
	}
	if dte.Attempts < 2 {
		t.Fatalf("gave up after %d attempts, want retries", dte.Attempts)
	}
}

// TestDialRetrySurvivesLateListener: a worker dialing before the
// master's listener exists connects once it appears — the race the
// backoff loop exists for.
func TestDialRetrySurvivesLateListener(t *testing.T) {
	withTimeouts(t, HelloTimeout, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		link, err := DialStar(addr, 0)
		if err == nil {
			link.Close()
		}
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	star, err := ListenStar(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	// The accept is joined before the test returns: it reads HelloTimeout,
	// which withTimeouts' cleanup writes back.
	accepted := make(chan error, 1)
	go func() {
		link, _, err := star.AcceptLink()
		if err == nil {
			link.Close()
		}
		accepted <- err
	}()
	dialErr := <-done
	if dialErr != nil {
		star.Close() // nobody is coming: unblock the accept
	}
	acceptErr := <-accepted
	if dialErr != nil {
		t.Fatalf("DialStar with a late listener: %v", dialErr)
	}
	if acceptErr != nil {
		t.Fatalf("AcceptLink of the late dialer: %v", acceptErr)
	}
}

// TestRandomFaultPlanDeterministic: equal seeds build identical
// schedules; the first few seeds actually differ from each other.
func TestRandomFaultPlanDeterministic(t *testing.T) {
	distinct := 0
	for seed := int64(1); seed <= 8; seed++ {
		a, b := RandomFaultPlan(seed), RandomFaultPlan(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plans differ:\n%s\n%s", seed, a, b)
		}
		if !reflect.DeepEqual(a, RandomFaultPlan(seed+100)) {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("every generated plan is identical; the seed is ignored")
	}
}

// TestFaultLinkDrop: a dropped incoming frame is never delivered; the
// armed deadline turns the loss into a timeout instead of a hang.
func TestFaultLinkDrop(t *testing.T) {
	m, w := LinkPair()
	fl := InjectFaults(m, &FaultPlan{Recv: []Fault{{Class: FaultDrop, Frame: 1}}})
	defer fl.Close()
	if err := w.Send(5, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := fl.SetRecvDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fl.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Recv of a dropped frame got %v, want deadline expiry", err)
	}
	if fl.InjectStats().Count(FaultDrop) != 1 {
		t.Fatalf("drop counter %d, want 1", fl.InjectStats().Count(FaultDrop))
	}
	// The next frame passes.
	fl.SetRecvDeadline(time.Time{})
	if err := w.Send(6, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := fl.Recv(); err != nil || tag != 6 || string(payload) != "ok" {
		t.Fatalf("frame after the drop: tag %d payload %q err %v", tag, payload, err)
	}
}

// TestFaultTransportDropDelay: every worker's link carries its own
// schedule, the way the grid injects one plan per worker. A drop on
// one link turns into a deadline expiry there, a delay on the other
// holds its frame measurably, and each link counts only its own
// injections.
func TestFaultTransportDropDelay(t *testing.T) {
	m1, w1 := LinkPair()
	m2, w2 := LinkPair()
	f1 := InjectFaults(m1, &FaultPlan{Recv: []Fault{{Class: FaultDrop, Frame: 1}}})
	f2 := InjectFaults(m2, &FaultPlan{Recv: []Fault{{Class: FaultDelay, Frame: 1, Delay: 60 * time.Millisecond}}})
	defer f1.Close()
	defer f2.Close()
	if err := w1.Send(1, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Send(2, []byte("late")); err != nil {
		t.Fatal(err)
	}
	// Worker 1's only frame was dropped: a deadline-bounded Recv times out.
	f1.SetRecvDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := f1.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("dropped frame got %v, want deadline expiry", err)
	}
	// Worker 2's frame arrives, measurably late.
	start := time.Now()
	if tag, payload, err := f2.Recv(); err != nil || tag != 2 || string(payload) != "late" {
		t.Fatalf("delayed frame: tag %d payload %q err %v", tag, payload, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delay fault waited only %v", d)
	}
	for i, fl := range []*FaultLink{f1, f2} {
		if got := fl.InjectStats().Total(); got != 1 {
			t.Fatalf("link %d counted %d injections, want 1 (%s)", i+1, got, fl.InjectStats())
		}
	}
	if f1.InjectStats().Count(FaultDrop) != 1 || f2.InjectStats().Count(FaultDelay) != 1 {
		t.Fatalf("injections landed on the wrong link: %s / %s", f1.InjectStats(), f2.InjectStats())
	}
}

// TestFaultLinkCorruptAndSever: an incoming corrupt frame surfaces as
// the FrameCorruptError the CRC layer would raise; the sever threshold
// kills both ends like a vanished machine.
func TestFaultLinkCorruptAndSever(t *testing.T) {
	m, w := LinkPair()
	fl := InjectFaults(m, &FaultPlan{
		Recv:       []Fault{{Class: FaultCorrupt, Frame: 2}},
		SeverAfter: 4,
	})
	defer fl.Close()
	before := CorruptFrames()
	for i := 0; i < 2; i++ {
		if err := w.Send(byte(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tag, _, err := fl.Recv(); err != nil || tag != 0 {
		t.Fatalf("frame 1: tag %d err %v", tag, err)
	}
	var fce *FrameCorruptError
	if _, _, err := fl.Recv(); !errors.As(err, &fce) {
		t.Fatalf("frame 2 got %v, want FrameCorruptError", err)
	}
	if CorruptFrames() != before+1 {
		t.Fatal("corrupt-frame counter did not move")
	}
	// Frames 3 and 4 hit the sever threshold: the worker end dies too.
	for i := 0; i < 2; i++ {
		if err := w.Send(9, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tag, _, err := fl.Recv(); err != nil || tag != 9 {
		t.Fatalf("frame 3: tag %d err %v", tag, err)
	}
	if _, _, err := fl.Recv(); err == nil {
		t.Fatal("Recv across the sever threshold succeeded")
	}
	if err := w.Send(9, nil); err == nil {
		t.Fatal("worker end survived the sever")
	}
	if fl.InjectStats().Count(FaultSever) != 1 {
		t.Fatalf("sever counter %d, want 1", fl.InjectStats().Count(FaultSever))
	}
}
