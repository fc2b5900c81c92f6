package grid

import (
	"os/exec"
	"sync/atomic"
	"testing"
	"time"
)

// withFastRespawn shrinks the supervisor backoff for tests.
func withFastRespawn(t *testing.T) {
	t.Helper()
	restore := SetRespawnBackoff(5*time.Millisecond, 40*time.Millisecond)
	oldHealthy := respawnHealthy
	respawnHealthy = time.Second
	t.Cleanup(func() {
		restore()
		respawnHealthy = oldHealthy
	})
}

// TestSupervisorRespawnsKilledWorker pins the recovery loop: a
// SIGKILLed worker process is replaced after a backoff, and Stop both
// ends the respawning and reaps every live process.
func TestSupervisorRespawnsKilledWorker(t *testing.T) {
	withFastRespawn(t)

	var spawned atomic.Int64
	sup, err := NewSupervisor(2, func(slot int) (*exec.Cmd, error) {
		spawned.Add(1)
		cmd := exec.Command("sleep", "600")
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmd, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if got := spawned.Load(); got != 2 {
		t.Fatalf("initial population spawned %d processes, want 2", got)
	}

	// Murder slot 0's process the way a chaos run would.
	sup.mu.Lock()
	victim := sup.procs[0].Process
	sup.mu.Unlock()
	victim.Kill()

	deadline := time.Now().Add(5 * time.Second)
	for sup.Respawns() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("killed worker was never respawned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := spawned.Load(); got != 3 {
		t.Fatalf("spawned %d processes after one kill, want 3", got)
	}

	// Stop: no further spawns, every process reaped, watchers exited
	// (Stop's wg.Wait would hang otherwise).
	sup.Stop()
	n := spawned.Load()
	time.Sleep(100 * time.Millisecond)
	if got := spawned.Load(); got != n {
		t.Fatalf("supervisor spawned after Stop: %d -> %d", n, got)
	}
	if got := sup.Respawns(); got != 1 {
		t.Fatalf("Stop-killed workers counted as respawns: %d, want 1", got)
	}
}

// TestSupervisorStopDuringBackoff pins the shutdown race: Stop called
// while a slot sleeps through its respawn backoff must not let the
// slot repopulate itself behind the kill sweep (which would wedge
// Stop's wg.Wait forever).
func TestSupervisorStopDuringBackoff(t *testing.T) {
	withFastRespawn(t)
	respawnBackoffMin = 200 * time.Millisecond // long enough to land Stop inside

	sup, err := NewSupervisor(1, func(slot int) (*exec.Cmd, error) {
		return exec.Command("sleep", "600"), nil // supervisor starts it
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.mu.Lock()
	victim := sup.procs[0].Process
	sup.mu.Unlock()
	victim.Kill()
	time.Sleep(50 * time.Millisecond) // slot is now sleeping in backoff

	done := make(chan struct{})
	go func() {
		sup.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung — a backoff-sleeping slot respawned behind the kill sweep")
	}
}

// TestSupervisorStopInterruptsBackoff pins an orderly teardown's cost at
// nothing: with the backoff raised to seconds, a worker that exited on
// its own — it was told to shut down — holds Stop up neither when its
// slot is already sleeping the backoff (Stop wakes it) nor when the
// supervisor stopped respawning before the exit (no backoff is entered),
// and neither exit counts as a respawn.
func TestSupervisorStopInterruptsBackoff(t *testing.T) {
	defer SetRespawnBackoff(5*time.Second, 10*time.Second)()

	exitsAfter := func(d string) func(int) (*exec.Cmd, error) {
		return func(int) (*exec.Cmd, error) { return exec.Command("sleep", d), nil }
	}
	stopWithin := func(t *testing.T, sup *Supervisor, limit time.Duration) {
		t.Helper()
		start := time.Now()
		sup.Stop()
		if took := time.Since(start); took > limit {
			t.Errorf("Stop took %v with every worker already gone, want under %v", took, limit)
		}
		if got := sup.Respawns(); got != 0 {
			t.Errorf("an orderly exit counted as %d respawns", got)
		}
	}

	t.Run("exit first", func(t *testing.T) {
		sup, err := NewSupervisor(2, exitsAfter("0"))
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond) // both slots are in their backoff now
		stopWithin(t, sup, 100*time.Millisecond)
	})
	t.Run("stop respawning first", func(t *testing.T) {
		sup, err := NewSupervisor(2, exitsAfter("0.1"))
		if err != nil {
			t.Fatal(err)
		}
		sup.StopRespawning()
		time.Sleep(250 * time.Millisecond) // the workers leave on their own
		sup.mu.Lock()
		for slot, cmd := range sup.procs {
			if cmd != nil {
				t.Errorf("slot %d still holds a process after its worker exited", slot)
			}
		}
		sup.mu.Unlock()
		stopWithin(t, sup, 100*time.Millisecond)
	})
}
