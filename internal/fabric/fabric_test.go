package fabric

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllRanksExecute(t *testing.T) {
	var count int32
	err := Run(8, func(c *Comm) error {
		atomic.AddInt32(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("%d ranks executed, want 8", count)
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]int32, 5)
	err := Run(5, func(c *Comm) error {
		if c.Size() != 5 {
			return fmt.Errorf("size = %d", c.Size())
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d executed %d times", r, n)
		}
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("accepted world size 0")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const p = 6
	var before, after int32
	err := Run(p, func(c *Comm) error {
		atomic.AddInt32(&before, 1)
		if err := c.Barrier(); err != nil {
			return err
		}
		// After the barrier, every rank must have incremented before.
		if got := atomic.LoadInt32(&before); got != p {
			return fmt.Errorf("rank %d passed barrier with before=%d", c.Rank(), got)
		}
		atomic.AddInt32(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != p {
		t.Fatalf("after = %d, want %d", after, p)
	}
}

func TestBarrierReusable(t *testing.T) {
	var sum int64
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			atomic.AddInt64(&sum, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 400 {
		t.Fatalf("sum = %d, want 400", sum)
	}
}

func TestBcast(t *testing.T) {
	results := make([]string, 7)
	err := Run(7, func(c *Comm) error {
		local := fmt.Sprintf("tree-from-rank-%d", c.Rank())
		got, err := Bcast(c, 3, local)
		if err != nil {
			return err
		}
		results[c.Rank()] = got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v != "tree-from-rank-3" {
			t.Fatalf("rank %d received %q", r, v)
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := Bcast(c, 5, 1)
		return err
	})
	if err == nil {
		t.Fatal("Bcast accepted invalid root")
	}
}

func TestGatherOrderedByRank(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		vals, err := Gather(c, c.Rank()*10)
		if err != nil {
			return err
		}
		for i, v := range vals {
			if v != i*10 {
				return fmt.Errorf("vals[%d] = %d", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMinLoc(t *testing.T) {
	// values: rank 0 → 5.0, rank 1 → 2.0, rank 2 → 2.0, rank 3 → 7.0
	// min is 2.0, held first by rank 1.
	vals := []float64{5, 2, 2, 7}
	err := Run(4, func(c *Comm) error {
		v, loc, err := c.AllreduceMinLoc(vals[c.Rank()])
		if err != nil {
			return err
		}
		if v != 2 || loc != 1 {
			return fmt.Errorf("rank %d got (%g, %d), want (2, 1)", c.Rank(), v, loc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxLoc(t *testing.T) {
	vals := []float64{-134170.79, -134160.23, -134154.49, -134200.0}
	err := Run(4, func(c *Comm) error {
		v, loc, err := c.AllreduceMaxLoc(vals[c.Rank()])
		if err != nil {
			return err
		}
		if v != -134154.49 || loc != 2 {
			return fmt.Errorf("got (%g, %d), want (-134154.49, 2)", v, loc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		s, err := c.AllreduceSum(float64(c.Rank()))
		if err != nil {
			return err
		}
		if s != 10 {
			return fmt.Errorf("sum = %g, want 10", s)
		}
		n, err := c.AllreduceSumInt(2)
		if err != nil {
			return err
		}
		if n != 10 {
			return fmt.Errorf("int sum = %d, want 10", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFIFO(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				if err := c.Send(1, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			v, err := c.Recv(0)
			if err != nil {
				return err
			}
			if v.(int) != i {
				return fmt.Errorf("received %v, want %d (FIFO violated)", v, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvPairsIsolated(t *testing.T) {
	// Messages from different senders must not interleave into the
	// wrong per-sender stream.
	err := Run(3, func(c *Comm) error {
		switch c.Rank() {
		case 0, 1:
			for i := 0; i < 20; i++ {
				if err := c.Send(2, c.Rank()*1000+i); err != nil {
					return err
				}
			}
			return nil
		default:
			for i := 0; i < 20; i++ {
				v, err := c.Recv(0)
				if err != nil {
					return err
				}
				if v.(int) != i {
					return fmt.Errorf("stream from rank 0 corrupted: %v", v)
				}
			}
			for i := 0; i < 20; i++ {
				v, err := c.Recv(1)
				if err != nil {
					return err
				}
				if v.(int) != 1000+i {
					return fmt.Errorf("stream from rank 1 corrupted: %v", v)
				}
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(9, "x")
		}
		return nil
	})
	if err == nil {
		t.Fatal("Send to invalid rank accepted")
	}
}

func TestErrorAbortsWorld(t *testing.T) {
	start := time.Now()
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return errors.New("simulated rank failure")
		}
		// Other ranks block on a barrier that can never complete; the
		// abort must unblock them.
		if err := c.Barrier(); err != nil {
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run swallowed rank failure")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("abort did not unblock barrier promptly")
	}
}

func TestPanicIsCaptured(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("Run swallowed rank panic")
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	start := time.Now()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("die early")
		}
		_, err := c.Recv(0) // nothing ever sent
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("abort did not unblock Recv promptly")
	}
}

func TestCollectivesDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		out := make([]float64, 6)
		err := Run(6, func(c *Comm) error {
			// Several rounds of collectives with rank-dependent values.
			v := float64(c.Rank()) * 1.5
			for round := 0; round < 10; round++ {
				sum, err := c.AllreduceSum(v)
				if err != nil {
					return err
				}
				v = sum/6 + float64(c.Rank())
			}
			out[c.Rank()] = v
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		for r := range got {
			if got[r] != first[r] {
				t.Fatalf("trial %d rank %d: %v != %v (nondeterministic collective)", trial, r, got[r], first[r])
			}
		}
	}
}

func TestManyRanks(t *testing.T) {
	// The paper's useful range tops out near 20 ranks (Table 2), but the
	// fabric itself should scale beyond that.
	err := Run(64, func(c *Comm) error {
		v, loc, err := c.AllreduceMinLoc(float64(64 - c.Rank()))
		if err != nil {
			return err
		}
		if v != 1 || loc != 63 {
			return fmt.Errorf("got (%g,%d)", v, loc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, p := range []int{2, 5, 10, 20} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			err := Run(p, func(c *Comm) error {
				for i := 0; i < b.N; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkBcast(b *testing.B) {
	err := Run(10, func(c *Comm) error {
		payload := "((a,b),(c,d));"
		for i := 0; i < b.N; i++ {
			if _, err := Bcast(c, 0, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

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
