package fabric

import (
	"errors"
	"net"
	"os"
	"reflect"
	"runtime"
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

// TestAcceptHelloDeadline: a dialer that connects to a fine-grain
// master and never sends its hello must not wedge Accept past
// HelloTimeout.
func TestAcceptHelloDeadline(t *testing.T) {
	withTimeouts(t, 200*time.Millisecond, DialTimeout)
	master, err := ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	c, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- master.Accept() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept admitted a silent dialer")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Accept error %v does not carry os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept still blocked long past HelloTimeout")
	}
}

// TestStarHelloDeadline: the same wedged-dialer scenario against the
// grid's StarListener — AcceptLink must fail the silent connection
// within HelloTimeout, leak nothing, and keep accepting well-behaved
// dialers afterwards.
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
	if AsFrameCorrupt(err) == nil {
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

// TestChanRecvDeadline covers the per-peer Recv deadline on the chan
// transport: expiry surfaces as a RankDeadError wrapping
// os.ErrDeadlineExceeded, a queued frame still wins over a passed
// deadline, and clearing restores unbounded waits.
func TestChanRecvDeadline(t *testing.T) {
	trs := NewChanTransports(2)
	defer trs[0].Close()

	if ok := SetRecvDeadline(trs[0], 1, time.Now().Add(50*time.Millisecond)); !ok {
		t.Fatal("ChanTransport rejected SetRecvDeadline")
	}
	start := time.Now()
	_, _, err := trs[0].Recv(1)
	rde := AsRankDead(err)
	if rde == nil || rde.Rank != 1 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("deadline expiry got %v, want RankDeadError{1, deadline exceeded}", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Recv blocked %v past a 50ms deadline", elapsed)
	}

	// Delivery-first: with a frame already queued, an expired deadline
	// must not eat it.
	if err := trs[1].Send(0, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for trs[0].Stats().MessagesRecv.Load() == 0 {
		tag, payload, err := trs[0].Recv(1)
		if err != nil {
			t.Fatalf("queued frame lost to an expired deadline: %v", err)
		}
		if tag != 7 || string(payload) != "x" {
			t.Fatalf("got tag %d payload %q", tag, payload)
		}
	}

	// Cleared deadline: Recv waits for a (late) frame again.
	SetRecvDeadline(trs[0], 1, time.Time{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		trs[1].Send(0, 8, nil)
	}()
	if tag, _, err := trs[0].Recv(1); err != nil || tag != 8 {
		t.Fatalf("Recv after clearing deadline: tag %d, err %v", tag, err)
	}
}

// TestLinkRecvDeadline covers the chanLink deadline used by fleet
// probes and release drains.
func TestLinkRecvDeadline(t *testing.T) {
	m, w := LinkPair()
	defer m.Close()
	if ok := SetLinkRecvDeadline(m, time.Now().Add(50*time.Millisecond)); !ok {
		t.Fatal("chanLink rejected SetRecvDeadline")
	}
	if _, _, err := m.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("deadline expiry got %v, want os.ErrDeadlineExceeded", err)
	}
	SetLinkRecvDeadline(m, time.Time{})
	if err := w.Send(3, nil); err != nil {
		t.Fatal(err)
	}
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
	if _, _, err := fl.Recv(); AsFrameCorrupt(err) == nil {
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

// TestFaultTransportDropDelay covers the Transport-level middleware:
// per-peer schedules, delays actually delaying, drops turning into
// deadline-typed RankDeadErrors.
func TestFaultTransportDropDelay(t *testing.T) {
	trs := NewChanTransports(3)
	defer trs[0].Close()
	ft := InjectTransportFaults(trs[0], map[int]*FaultPlan{
		1: {Recv: []Fault{{Class: FaultDrop, Frame: 1}}},
		2: {Recv: []Fault{{Class: FaultDelay, Frame: 1, Delay: 60 * time.Millisecond}}},
	})
	if err := trs[1].Send(0, 1, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := trs[2].Send(0, 2, []byte("late")); err != nil {
		t.Fatal(err)
	}
	// Peer 1's only frame was dropped: a deadline-bounded Recv times out.
	ft.SetRecvDeadline(1, time.Now().Add(50*time.Millisecond))
	if _, _, err := ft.Recv(1); AsRankDead(err) == nil {
		t.Fatalf("dropped frame got %v, want RankDeadError", err)
	}
	// Peer 2's frame arrives, measurably late.
	start := time.Now()
	tag, _, err := ft.Recv(2)
	if err != nil || tag != 2 {
		t.Fatalf("delayed frame: tag %d err %v", tag, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delay fault waited only %v", d)
	}
	if got := ft.InjectStats().Total(); got != 2 {
		t.Fatalf("%d injections counted, want 2 (%s)", got, ft.InjectStats())
	}
}
