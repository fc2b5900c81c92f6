package grid

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/finegrain"
)

// This file is the randomized chaos acceptance: N seeded fault
// schedules (drops, delays, corruption, severs, stragglers — see
// fabric.RandomFaultPlan) over both fleet transports, each run
// required to reproduce the fault-free reference bit-identically
// (consensus and trees exact, likelihoods at 1e-10) and to leak no
// goroutines. Every failure message carries the seed; re-running the
// named subtest replays the exact schedule.

// chaosTimeouts shrinks every recovery timeout so injected drops and
// stalls convert to RankDead in test time rather than production time.
func chaosTimeouts(t *testing.T) {
	t.Helper()
	oldDispatch := finegrain.DispatchTimeout
	oldRelease := finegrain.ReleaseTimeout
	oldProbe := ProbeTimeout
	finegrain.DispatchTimeout = 2 * time.Second
	finegrain.ReleaseTimeout = time.Second
	ProbeTimeout = time.Second
	t.Cleanup(func() {
		finegrain.DispatchTimeout = oldDispatch
		finegrain.ReleaseTimeout = oldRelease
		ProbeTimeout = oldProbe
	})
}

// checkGoroutines fails if the goroutine count has not returned to the
// baseline within a grace period — a leaked serve loop or accept loop
// survived the run.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGridChaosMatrix runs 8 seeded random fault schedules over the
// chan fleet and the same 8 over real TCP links.
func TestGridChaosMatrix(t *testing.T) {
	chaosTimeouts(t)
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 0, Config{Concurrency: 1})

	for _, mode := range []string{"chan", "tcp"} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				runChaosSchedule(t, a, want, mode, seed)
			})
		}
	}
}

func runChaosSchedule(t *testing.T, a *Analysis, want *Result, mode string, seed int64) {
	baseline := runtime.NumGoroutine()
	var trace bytes.Buffer
	tracer := NewTracer(&trace)
	fleet := NewFleet(tracer)

	// Each admitted worker gets its own deterministic schedule derived
	// from the run seed and its fleet id, injected on the master side of
	// its link — where probes, dispatches and release handshakes all
	// pass — so drops hit dispatch deadlines, corruption hits the
	// restripe path, and severs look like SIGKILL.
	var mu sync.Mutex
	plans := make(map[int]*fabric.FaultPlan)
	fleet.LinkWrapper = func(id int, l fabric.Link) fabric.Link {
		plan := fabric.RandomFaultPlan(seed*1000 + int64(id))
		mu.Lock()
		plans[id] = plan
		mu.Unlock()
		return fabric.InjectFaults(l, plan)
	}
	defer func() {
		if t.Failed() {
			mu.Lock()
			for id, p := range plans {
				t.Logf("worker %d schedule: %s", id, p)
			}
			mu.Unlock()
			t.Logf("replay: go test -run 'TestGridChaosMatrix/%s/seed=%d' ./internal/grid/", mode, seed)
		}
	}()

	const workers = 3
	var ln *fabric.StarListener
	switch mode {
	case "chan":
		fleet.SpawnLocal(workers)
	case "tcp":
		var err error
		ln, err = fabric.ListenStar("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fleet.AcceptFrom(ln)
		for i := 0; i < workers; i++ {
			go func() {
				link, err := fabric.DialStar(ln.Addr(), 0)
				if err != nil {
					return
				}
				defer link.Close()
				finegrain.ServeSessions(link)
			}()
		}
		if !fleet.WaitAlive(workers, 10*time.Second) {
			t.Fatal("workers never dialed in")
		}
	}
	fleet.StartHeartbeats(50 * time.Millisecond)

	g := New(Config{Concurrency: 2, Fleet: fleet, Tracer: tracer})
	got, err := a.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatalf("grid run (seed %d, %s): %v\ntrace:\n%s", seed, mode, err, trace.String())
	}
	fleet.StopHeartbeats()
	fleet.Shutdown()
	if ln != nil {
		ln.Close()
	}

	checkSameResult(t, got, want, fmt.Sprintf("%s seed %d", mode, seed))
	checkGoroutines(t, baseline)
}

// TestGridChaosWireCorruption drives real byte-level corruption under
// the framing layer of a TCP fleet: accepted connections are wrapped in
// a fabric.FaultConn that flips bytes at fixed stream offsets, so the
// per-frame CRC — not an injector shim — is what detects the damage.
// The run must still reproduce the reference, and the corrupt-frame
// counter must have moved.
func TestGridChaosWireCorruption(t *testing.T) {
	chaosTimeouts(t)
	a := testAnalysis(t)
	want, _ := runAnalysis(t, a, 0, Config{Concurrency: 1})

	baseline := runtime.NumGoroutine()
	before := fabric.CorruptFrames()
	var trace bytes.Buffer
	tracer := NewTracer(&trace)
	fleet := NewFleet(tracer)
	ln, err := fabric.ListenStar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt each worker's stream twice, past the hello (which occupies
	// the first 17 bytes) so admission succeeds and the damage lands in
	// live session traffic.
	ln.WrapConn = func(c net.Conn) net.Conn {
		return &fabric.FaultConn{Conn: c, CorruptAt: []int64{1 << 12, 1 << 14}}
	}
	fleet.AcceptFrom(ln)
	const workers = 3
	for i := 0; i < workers; i++ {
		go func() {
			link, err := fabric.DialStar(ln.Addr(), 0)
			if err != nil {
				return
			}
			defer link.Close()
			finegrain.ServeSessions(link)
		}()
	}
	if !fleet.WaitAlive(workers, 10*time.Second) {
		t.Fatal("workers never dialed in")
	}

	g := New(Config{Concurrency: 2, Fleet: fleet, Tracer: tracer})
	got, err := a.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatalf("grid run: %v\ntrace:\n%s", err, trace.String())
	}
	fleet.Shutdown()
	ln.Close()

	checkSameResult(t, got, want, "wire-corruption")
	if fabric.CorruptFrames() == before {
		t.Error("no frame ever failed its CRC — the FaultConn corrupted nothing")
	}
	checkGoroutines(t, baseline)
}
