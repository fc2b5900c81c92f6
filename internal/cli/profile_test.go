package cli

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the raxml binary: the
// -fine and -grid spawners re-execute os.Executable() in a worker mode,
// which under `go test` is this binary, so a copy started with a worker
// flag runs the tool instead of the tests.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if arg == "-fine-worker" || arg == "-grid-worker" {
			if err := Raxml(os.Args[1:], os.Stdout); err != nil {
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// checkProfile fails unless path holds what runtime/pprof writes: a
// complete gzip stream (its trailer checks out) that inflates to a
// profile message whose string table names the CPU sample types.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a gzip stream: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, name := range []string{"samples", "cpu", "nanoseconds"} {
		if !bytes.Contains(body, []byte(name)) {
			t.Fatalf("%s inflates to %d bytes with no %q in the string table: not a CPU profile", path, len(body), name)
		}
	}
}

// TestRaxmlProfilesSpawnedWorkers: a master run with -cpuprofile passes
// `-cpuprofile <file>.worker<slot>` to the worker processes it spawns —
// grid supervisor slots count from 0, -fine ranks from 1 — and every
// worker leaves a complete profile behind: a grid worker flushes it
// between the fleet's shutdown frame and the supervisor's kill, a -fine
// worker before the master reaps it.
func TestRaxmlProfilesSpawnedWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	align := writeTestAlignment(t, dir)

	var out bytes.Buffer
	gridProf := filepath.Join(dir, "grid.pprof")
	err := Raxml([]string{
		"-s", align, "-n", "gprof", "-N", "2", "-starts", "0", "-grid-batch", "2",
		"-grid", "1", "-grid-transport", "tcp", "-w", dir, "-p", "42", "-x", "99",
		"-cpuprofile", gridProf,
	}, &out)
	if err != nil {
		t.Fatalf("grid run: %v\n%s", err, out.String())
	}
	checkProfile(t, gridProf)
	checkProfile(t, gridProf+".worker0")

	out.Reset()
	fineProf := filepath.Join(dir, "fine.pprof")
	err = Raxml([]string{
		"-s", align, "-n", "fprof", "-w", dir, "-f", "d", "-N", "1", "-p", "5",
		"-fine", "-fine-transport", "tcp", "-R", "2", "-T", "1",
		"-cpuprofile", fineProf,
	}, &out)
	if err != nil {
		t.Fatalf("fine run: %v\n%s", err, out.String())
	}
	checkProfile(t, fineProf)
	checkProfile(t, fineProf+".worker1")
}
