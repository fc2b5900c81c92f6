package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"
)

// exerciseLink round-trips frames both ways over a master/worker link
// pair and checks close semantics kill both ends.
func exerciseLink(t *testing.T, master, worker Link) {
	t.Helper()
	if err := master.Send(3, []byte("job")); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := worker.Recv()
	if err != nil || tag != 3 || string(payload) != "job" {
		t.Fatalf("worker got (%d, %q, %v), want (3, job, nil)", tag, payload, err)
	}
	if err := worker.Send(4, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	tag, payload, err = master.Recv()
	if err != nil || tag != 4 || string(payload) != "partial" {
		t.Fatalf("master got (%d, %q, %v), want (4, partial, nil)", tag, payload, err)
	}
	// Sent-before-close frames are still delivered (drain-first).
	if err := master.Send(5, nil); err != nil {
		t.Fatal(err)
	}
	master.Close()
	if tag, _, err := worker.Recv(); err != nil || tag != 5 {
		t.Fatalf("post-close drain got (%d, %v), want (5, nil)", tag, err)
	}
	if _, _, err := worker.Recv(); err == nil {
		t.Fatal("Recv on killed link succeeded")
	}
	// Sends fail too — eventually, on TCP, where the kernel may buffer
	// writes until the peer's reset surfaces.
	for i := 0; ; i++ {
		if err := worker.Send(6, make([]byte, 1<<16)); err != nil {
			break
		}
		if i > 100 {
			t.Fatal("Send on killed link never failed")
		}
	}
}

func TestLinkPair(t *testing.T) {
	m, w := LinkPair()
	exerciseLink(t, m, w)
}

func TestTCPLinkAndStarListener(t *testing.T) {
	ln, err := ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var worker Link
	var dialErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		worker, dialErr = DialStar(ln.Addr(), 4242)
	}()
	master, pid, err := ln.AcceptLink()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if dialErr != nil {
		t.Fatal(dialErr)
	}
	if pid != 4242 {
		t.Fatalf("announced pid %d, want 4242", pid)
	}
	exerciseLink(t, master, worker)
}

// exerciseStar runs the shared conformance program over a master that
// holds one link per worker — the shape finegrain.Pool drives, rank r
// on masters[r-1]: a job frame to every worker with the replies read in
// rank order, then a frame longer than coalesceMax to every worker and
// a 128-byte reply cut from it. Every frame carries its rank, so a
// frame that crossed to another worker's link fails the check.
func exerciseStar(t *testing.T, masters, workers []Link) {
	t.Helper()
	big := func(r int) []byte { return bytes.Repeat([]byte{byte(r)}, 2*coalesceMax) }
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		r := i + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = func() error {
				tag, payload, err := w.Recv()
				if err != nil {
					return err
				}
				if tag != 7 || !bytes.Equal(payload, []byte{'j', byte(r)}) {
					return fmt.Errorf("worker %d got tag %d payload %q", r, tag, payload)
				}
				if err := w.Send(8, []byte{byte(r)}); err != nil {
					return err
				}
				tag, payload, err = w.Recv()
				if err != nil {
					return err
				}
				if tag != 9 || !bytes.Equal(payload, big(r)) {
					return fmt.Errorf("worker %d large frame: tag %d, %d bytes", r, tag, len(payload))
				}
				return w.Send(8, payload[:128])
			}()
		}()
	}

	for i, m := range masters {
		if err := m.Send(7, []byte{'j', byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range masters {
		if tag, payload, err := m.Recv(); err != nil || tag != 8 || !bytes.Equal(payload, []byte{byte(i + 1)}) {
			t.Fatalf("rank %d replied (%d, %v, %v), want (8, [%d], nil)", i+1, tag, payload, err, i+1)
		}
	}
	for i, m := range masters {
		if err := m.Send(9, big(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range masters {
		if tag, payload, err := m.Recv(); err != nil || tag != 8 || !bytes.Equal(payload, big(i + 1)[:128]) {
			t.Fatalf("rank %d large reply: tag %d, %d bytes, %v", i+1, tag, len(payload), err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}
}

// TestChanTransport runs the star conformance over the chan transport,
// one LinkPair per in-proc worker; killing one worker's pair leaves the
// other's untouched.
func TestChanTransport(t *testing.T) {
	masters, workers := make([]Link, 2), make([]Link, 2)
	for i := range masters {
		masters[i], workers[i] = LinkPair()
	}
	defer masters[1].Close()
	exerciseStar(t, masters, workers)

	masters[0].Close()
	if _, _, err := workers[0].Recv(); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Recv on a killed pair got %v, want ErrTransportClosed", err)
	}
	if err := masters[1].Send(1, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := workers[1].Recv(); err != nil || tag != 1 || string(payload) != "alive" {
		t.Fatalf("surviving pair got (%d, %q, %v)", tag, payload, err)
	}
}

// dialStarWorkers dials n workers into a fresh StarListener announcing
// pids 1..n and returns the master ends ordered by announced pid — the
// way the -fine tcp path turns arbitrary accept order into spawn-slot
// rank — and the worker ends in the same order.
func dialStarWorkers(t *testing.T, n int) (masters, workers []Link) {
	t.Helper()
	ln, err := ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	workers = make([]Link, n)
	dialErr := make([]error, n)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := DialStar(ln.Addr(), i+1)
			workers[i], dialErr[i] = w, err
		}()
	}
	type accepted struct {
		link Link
		pid  int
	}
	got := make([]accepted, n)
	for i := range got {
		l, pid, err := ln.AcceptLink()
		if err != nil {
			t.Fatal(err)
		}
		got[i] = accepted{l, pid}
	}
	wg.Wait()
	for _, err := range dialErr {
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(got, func(a, b int) bool { return got[a].pid < got[b].pid })
	masters = make([]Link, n)
	for i, a := range got {
		if a.pid != i+1 {
			t.Fatalf("accepted pids %v, want 1..%d", got, n)
		}
		masters[i] = a.link
	}
	t.Cleanup(func() {
		for i := range masters {
			masters[i].Close()
			workers[i].Close()
		}
	})
	return masters, workers
}

// TestTCPTransport runs the star conformance over the tcp transport:
// two workers dialing one StarListener, ranked by the pid they
// announced.
func TestTCPTransport(t *testing.T) {
	masters, workers := dialStarWorkers(t, 2)
	exerciseStar(t, masters, workers)
}

// TestTCPTransportRankDead pins what a master's link reports when a TCP
// worker vanishes mid-run: Recv fails with the peer's raw error, never
// ErrTransportClosed — that is reserved for the master's own Close —
// which finegrain.Pool types as that worker's RankDeadError; Sends fail
// too once the reset surfaces; a second worker's link carries traffic
// as before.
func TestTCPTransportRankDead(t *testing.T) {
	masters, workers := dialStarWorkers(t, 2)

	// Worker 1 "dies": its endpoint closes both directions, like a
	// killed process.
	workers[0].Close()
	_, _, err := masters[0].Recv()
	if err == nil || errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Recv from a dead worker got %v, want the peer's error", err)
	}
	// The first write after the peer reset may be buffered by the
	// kernel, so push until the error surfaces.
	for i := 0; ; i++ {
		err := masters[0].Send(9, make([]byte, 1<<16))
		if err != nil {
			if errors.Is(err, ErrTransportClosed) {
				t.Fatalf("Send to a dead worker got %v, want the peer's error", err)
			}
			break
		}
		if i > 100 {
			t.Fatal("Send to a dead worker never failed")
		}
	}
	// Worker 2 is untouched: traffic still flows.
	if err := masters[1].Send(7, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if tag, payload, err := workers[1].Recv(); err != nil || tag != 7 || string(payload) != "alive" {
		t.Fatalf("surviving worker got (%d, %q, %v)", tag, payload, err)
	}
	// The master's own Close is what reads as ErrTransportClosed.
	masters[0].Close()
	if _, _, err := masters[0].Recv(); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Recv after the master's own Close got %v, want ErrTransportClosed", err)
	}
}

// TestWorkerTransportMasterGone pins the worker-side view a serve loop
// exits on: a worker blocked in Recv when its master goes is released
// with an error, and its Sends fail — on a LinkPair whose master end
// closes, and on TCP when the master's process dies with a reset
// rather than the orderly close TestTCPLinkAndStarListener covers.
func TestWorkerTransportMasterGone(t *testing.T) {
	blockedRecv := func(w Link) <-chan error {
		ch := make(chan error, 1)
		go func() {
			_, _, err := w.Recv()
			ch <- err
		}()
		time.Sleep(20 * time.Millisecond) // let Recv block
		return ch
	}
	released := func(what string, ch <-chan error) error {
		t.Helper()
		select {
		case err := <-ch:
			if err == nil {
				t.Fatalf("%s: worker Recv succeeded after its master went", what)
			}
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: worker Recv still blocked after its master went", what)
			return nil
		}
	}

	m, w := LinkPair()
	ch := blockedRecv(w)
	m.Close()
	if err := released("LinkPair", ch); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("LinkPair: worker Recv got %v, want ErrTransportClosed", err)
	}
	if err := w.Send(1, nil); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("LinkPair: worker Send got %v, want ErrTransportClosed", err)
	}

	masters, workers := dialStarWorkers(t, 1)
	ch = blockedRecv(workers[0])
	raw := masters[0].(*TCPLink).raw.(*net.TCPConn)
	if err := raw.SetLinger(0); err != nil { // Close now sends a reset
		t.Fatal(err)
	}
	masters[0].Close()
	released("TCP", ch)
	for i := 0; ; i++ {
		if err := workers[0].Send(2, make([]byte, 1<<16)); err != nil {
			break
		}
		if i > 100 {
			t.Fatal("TCP: worker Send to a dead master never failed")
		}
	}
}
