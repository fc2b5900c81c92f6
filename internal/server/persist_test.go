package server

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentSubmitsAllPersisted submits N runs at once while a
// blocking run holds the only running slot, so all N stay queued. Every
// Submit writes the queue image; whichever write lands last must hold
// all N, so a server restarted over the same DataDir re-admits them.
// Run it under -race as well.
func TestConcurrentSubmitsAllPersisted(t *testing.T) {
	align := testAlignment(t)
	dataDir := t.TempDir()
	s, fleet := newTestServer(t, 0, Config{MaxRunning: 1, DataDir: dataDir})
	started, release := stubExecute(s)
	blocker, _, err := s.Submit(Submission{Alignment: align, Params: testParams(1), Tenant: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	if id := nextStarted(t, started); id != blocker.ID {
		t.Fatalf("started %s, want the blocker %s", id, blocker.ID)
	}
	defer close(release)

	const n = 8
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, _, err := s.Submit(Submission{Alignment: align, Params: testParams(int64(100 + i)), Tenant: "alice"})
			if err == nil {
				ids[i] = run.ID
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	s2, err := New(Config{Fleet: fleet, DataDir: dataDir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	for i, id := range ids {
		if _, ok := s2.Get(id); !ok {
			t.Errorf("restarted server lost acknowledged submit %d (%s)", i, id)
		}
	}
}

// TestPersistErrorReachesCaller makes the queue image's rename fail — a
// directory stands where queue.json goes — and checks that Submit, an
// identical resubmit and Cancel return the error instead of
// acknowledging a run a restart would not see. Once the obstruction is
// gone, the resubmit writes the image, so a restarted server re-admits
// the run.
func TestPersistErrorReachesCaller(t *testing.T) {
	align := testAlignment(t)
	dataDir := t.TempDir()
	s, fleet := newTestServer(t, 0, Config{MaxRunning: 1, DataDir: dataDir})
	started, release := stubExecute(s)
	defer close(release)
	if _, _, err := s.Submit(Submission{Alignment: align, Params: testParams(1), Tenant: "blocker"}); err != nil {
		t.Fatal(err)
	}
	nextStarted(t, started)
	queue := filepath.Join(dataDir, "queue.json")
	obstruct := func() {
		t.Helper()
		if err := os.Remove(queue); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(queue, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(queue, "keep"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	obstruct()

	sub := Submission{Alignment: align, Params: testParams(2), Tenant: "alice"}
	run, _, err := s.Submit(sub)
	if !errors.Is(err, errPersist) {
		t.Fatalf("Submit with an unwritable queue image returned %v, want a persist error", err)
	}
	if _, created, err := s.Submit(sub); created || !errors.Is(err, errPersist) {
		t.Fatalf("identical resubmit with an unwritable queue image returned created=%v, %v; want the dedup path and a persist error", created, err)
	}
	if err := os.RemoveAll(queue); err != nil {
		t.Fatal(err)
	}
	if _, created, err := s.Submit(sub); created || err != nil {
		t.Fatalf("identical resubmit once the queue image is writable returned created=%v, %v; want the dedup path and nil", created, err)
	}
	s2, err := New(Config{Fleet: fleet, DataDir: dataDir, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if _, ok := s2.Get(run.ID); !ok {
		t.Fatalf("restarted server lost the acknowledged resubmit %s", run.ID)
	}

	obstruct()
	if err := s.Cancel(run.ID); !errors.Is(err, errPersist) {
		t.Fatalf("Cancel with an unwritable queue image returned %v, want a persist error", err)
	}
}

// TestWriteDurableReplacesWhole: writeDurable leaves each file with its
// new content and nothing of the old — a shorter image does not keep the
// old tail — and no temp file, whether the renames succeed or a
// directory standing at one of the names makes the batch fail.
func TestWriteDurableReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	for _, batch := range []map[string][]byte{
		{"queue.json": []byte("a longer first image"), "blob": []byte("first blob")},
		{"queue.json": []byte("short")},
	} {
		if err := writeDurable(dir, batch); err != nil {
			t.Fatal(err)
		}
		for name, data := range batch {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != string(data) {
				t.Fatalf("%s holds %q (%v), want %q", name, got, err, data)
			}
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "blocked", "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeDurable(dir, map[string][]byte{"blocked": []byte("x"), "other": []byte("y")}); err == nil {
		t.Fatal("writeDurable over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("%s left behind", e.Name())
		}
	}
}
