package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------
// Abort-determinism regressions (Comm)
// ---------------------------------------------------------------------

// TestRecvDeliversMessageSentBeforeAbort is the regression test for the
// drain-first Recv fix: a message fully sent before a peer aborted the
// world must still be delivered — before the fix, Recv raced its mail
// and abort channels and could nondeterministically drop it. Once the
// queue is drained, Recv reports ErrAborted instead of blocking.
func TestRecvDeliversMessageSentBeforeAbort(t *testing.T) {
	boom := errors.New("boom")
	sent := make(chan struct{})
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			if err := c.Send(0, 42); err != nil {
				return err
			}
			close(sent)
			return boom // aborts the world mid-conversation
		}
		<-sent
		time.Sleep(20 * time.Millisecond) // let the abort land first
		v, err := c.Recv(1)
		if err != nil {
			return fmt.Errorf("Recv dropped a message sent before the abort: %v", err)
		}
		if v.(int) != 42 {
			return fmt.Errorf("Recv got %v, want 42", v)
		}
		// Queue drained, world aborted: deterministic ErrAborted.
		if _, err := c.Recv(1); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Recv after drain got %v, want ErrAborted", err)
		}
		// Sends into a dead world fail loudly instead of vanishing.
		if err := c.Send(1, 7); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Send after abort got %v, want ErrAborted", err)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the aborting rank's error", err)
	}
}

// TestCollectiveAfterAbortFails pins collective behaviour after a rank
// died: every collective unblocks with ErrAborted (never a stale slot
// read, never a hang).
func TestCollectiveAfterAbortFails(t *testing.T) {
	boom := errors.New("boom")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		// Both survivors: collectives must fail (rank 2 never arrives).
		if _, err := Gather(c, c.Rank()); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Gather got %v, want ErrAborted", err)
		}
		if err := c.Barrier(); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Barrier got %v, want ErrAborted", err)
		}
		dst := []float64{1, 2}
		if err := c.AllreduceSumFloats(dst, dst); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("AllreduceSumFloats got %v, want ErrAborted", err)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the aborting rank's error", err)
	}
}

// ---------------------------------------------------------------------
// Typed collectives
// ---------------------------------------------------------------------

func TestAllreduceSumFloats(t *testing.T) {
	const ranks = 4
	err := Run(ranks, func(c *Comm) error {
		src := []float64{float64(c.Rank()), 10 * float64(c.Rank()), 1}
		dst := make([]float64, 3)
		if err := c.AllreduceSumFloats(dst, src); err != nil {
			return err
		}
		want := []float64{0 + 1 + 2 + 3, 10 * (0 + 1 + 2 + 3), ranks}
		for i := range want {
			if dst[i] != want[i] {
				return fmt.Errorf("rank %d: dst[%d] = %g, want %g", c.Rank(), i, dst[i], want[i])
			}
		}
		// Aliased dst/src must work too (in-place reduce).
		inPlace := []float64{float64(c.Rank()), 10 * float64(c.Rank()), 1}
		if err := c.AllreduceSumFloats(inPlace, inPlace); err != nil {
			return err
		}
		for i := range want {
			if inPlace[i] != want[i] {
				return fmt.Errorf("rank %d aliased: [%d] = %g, want %g", c.Rank(), i, inPlace[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFloats(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		v := []float64{float64(c.Rank()), float64(c.Rank() * 2)}
		if err := c.BcastFloats(1, v); err != nil {
			return err
		}
		if v[0] != 1 || v[1] != 2 {
			return fmt.Errorf("rank %d: got %v, want [1 2]", c.Rank(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

// exerciseTransport runs the shared conformance program over any
// connected transport group: point-to-point frames, the broadcast +
// collect collectives with their counters, and large payloads.
func exerciseTransport(t *testing.T, master Transport, workers []Transport) {
	t.Helper()
	size := master.Size()
	var wg sync.WaitGroup
	errs := make([]error, size)
	for i, w := range workers {
		wg.Add(1)
		go func(rank int, tr Transport) {
			defer wg.Done()
			errs[rank] = func() error {
				tag, payload, err := tr.Recv(0)
				if err != nil {
					return err
				}
				if tag != 7 || !bytes.Equal(payload, []byte("job")) {
					return fmt.Errorf("worker %d got tag %d payload %q", rank, tag, payload)
				}
				if err := tr.Send(0, 8, []byte{byte(rank)}); err != nil {
					return err
				}
				// Large frame round trip.
				tag, payload, err = tr.Recv(0)
				if err != nil {
					return err
				}
				if tag != 9 || len(payload) != 1<<16 {
					return fmt.Errorf("worker %d large frame: tag %d, %d bytes", rank, tag, len(payload))
				}
				return tr.Send(0, 8, payload[:128])
			}()
		}(i+1, w)
	}

	if err := Broadcast(master, 7, []byte("job")); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(master, 8, 0xEE)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < size; r++ {
		if len(got[r]) != 1 || got[r][0] != byte(r) {
			t.Fatalf("collected %v from rank %d", got[r], r)
		}
	}
	big := bytes.Repeat([]byte{0xAB}, 1<<16)
	if err := Broadcast(master, 9, big); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(master, 8, 0xEE); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", r, err)
		}
	}
	st := master.Stats()
	if b := st.Broadcasts.Load(); b != 2 {
		t.Errorf("master counted %d broadcasts, want 2", b)
	}
	if r := st.Reductions.Load(); r != 2 {
		t.Errorf("master counted %d reductions, want 2", r)
	}
	if m := st.MessagesSent.Load(); m != int64(2*(size-1)) {
		t.Errorf("master sent %d messages, want %d", m, 2*(size-1))
	}
}

func TestChanTransport(t *testing.T) {
	trs := NewChanTransports(3)
	master := trs[0]
	exerciseTransport(t, master, []Transport{trs[1], trs[2]})

	// Close unblocks a pending Recv deterministically — after draining
	// buffered frames.
	if err := master.Send(1, 1, []byte("pending")); err != nil {
		t.Fatal(err)
	}
	master.Close()
	tag, payload, err := trs[1].Recv(0)
	if err != nil || tag != 1 || string(payload) != "pending" {
		t.Fatalf("drain-first after close: tag %d payload %q err %v", tag, payload, err)
	}
	if _, _, err := trs[1].Recv(0); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Recv on closed transport got %v, want ErrTransportClosed", err)
	}
	if err := trs[1].Send(0, 1, nil); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Send on closed transport got %v, want ErrTransportClosed", err)
	}
}

func TestTCPTransport(t *testing.T) {
	const size = 3
	master, err := ListenTCP("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	workers := make([]Transport, size-1)
	var dialWG sync.WaitGroup
	dialErr := make([]error, size-1)
	for r := 1; r < size; r++ {
		dialWG.Add(1)
		go func(r int) {
			defer dialWG.Done()
			w, err := DialTCP(master.Addr(), r, size)
			if err != nil {
				dialErr[r-1] = err
				return
			}
			workers[r-1] = w
		}(r)
	}
	if err := master.Accept(); err != nil {
		t.Fatal(err)
	}
	dialWG.Wait()
	for _, err := range dialErr {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	exerciseTransport(t, master, workers)

	// A closed master connection surfaces as ErrTransportClosed.
	master.Close()
	if _, _, err := workers[0].Recv(0); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Recv on closed TCP link got %v, want ErrTransportClosed", err)
	}
}

// TestTCPTransportRejectsBadHello covers the handshake validation.
func TestTCPTransportRejectsBadHello(t *testing.T) {
	master, err := ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	go func() {
		// A dialer claiming an out-of-range rank: a correctly framed
		// hello announcing rank 5 of a 2-rank world.
		c, err := net.Dial("tcp", master.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		tc := newTCPConn(c, nil)
		if err := tc.write(tcpHello, encodeHello(5)); err != nil {
			t.Error(err)
		}
		// Hold the connection open until the master rejects it.
		buf := make([]byte, 1)
		_, _ = c.Read(buf)
	}()
	if err := master.Accept(); err == nil {
		t.Fatal("Accept admitted an invalid hello")
	}
}

// TestTCPTransportRejectsOldProtocol covers the version word added to
// the hello in protocol v2: a v1-era hello (wrong version, wrong
// shape) must be rejected at accept time, not misframed.
func TestTCPTransportRejectsOldProtocol(t *testing.T) {
	master, err := ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	go func() {
		c, err := net.Dial("tcp", master.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		var hello [8]byte
		binary.LittleEndian.PutUint32(hello[0:4], ProtocolVersion+1)
		binary.LittleEndian.PutUint32(hello[4:8], 1)
		tc := newTCPConn(c, nil)
		if err := tc.write(tcpHello, hello[:]); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 1)
		_, _ = c.Read(buf)
	}()
	err = master.Accept()
	if err == nil {
		t.Fatal("Accept admitted a mismatched protocol version")
	}
	if !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("version mismatch error %q does not mention the protocol", err)
	}
}
