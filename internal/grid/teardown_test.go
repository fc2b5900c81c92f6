package grid_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"raxml/internal/cli"
	"raxml/internal/grid"
	"raxml/internal/msa"
	"raxml/internal/seqgen"
)

// TestMain lets the test binary stand in for the raxml binary: the -grid
// spawner re-executes os.Executable() in worker mode, which under
// `go test` is this binary, so a copy started with the worker flag runs
// the tool instead of the tests.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if arg == "-grid-worker" {
			if err := cli.Raxml(os.Args[1:], os.Stdout); err != nil {
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// TestGridTCPExitsPromptly drives the tool's own teardown — the order
// cli.runGrid stops supervising, sends the shutdown frames and reaps —
// with the respawn backoff raised to 5 s: ten `-grid 1 -grid-transport
// tcp` runs each return within a second of their last trace event. A
// worker that obeys its shutdown frame while the supervisor still
// supervises is taken for a crash, and the run then ends a backoff late.
//
// It lives here and not beside cli's other -grid tests because the
// backoff is grid's own: only a test of this package can raise it
// (export_test.go), and an external one may import cli.
func TestGridTCPExitsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	defer grid.SetRespawnBackoff(5*time.Second, 10*time.Second)()

	dir := t.TempDir()
	a, _, err := seqgen.Generate(seqgen.Config{Taxa: 8, Chars: 250, Seed: 5, TreeScale: 0.5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	align := filepath.Join(dir, "test.phy")
	f, err := os.Create(align)
	if err != nil {
		t.Fatal(err)
	}
	if err := msa.WritePHYLIP(f, a); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for i := 0; i < 10; i++ {
		var out bytes.Buffer
		err := cli.Raxml([]string{
			"-s", align, "-n", "prompt", "-N", "2", "-starts", "0", "-grid-batch", "2",
			"-grid", "1", "-grid-transport", "tcp", "-w", dir, "-p", "42", "-x", "99",
		}, &out)
		returned := time.Now()
		if err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out.String())
		}
		trace, err := os.ReadFile(filepath.Join(dir, "RAxML_gridTrace.prompt.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(trace), []byte("\n"))
		var last struct {
			T time.Time `json:"t"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.T.IsZero() {
			t.Fatalf("run %d: last trace line %q carries no time: %v", i, lines[len(lines)-1], err)
		}
		if tail := returned.Sub(last.T); tail > time.Second {
			t.Errorf("run %d returned %v after its last trace event, want under 1s", i, tail)
		}
	}
}
