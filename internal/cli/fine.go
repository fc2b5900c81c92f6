package cli

import (
	"fmt"
	"io"
	"sort"

	"raxml/internal/fabric"
	"raxml/internal/grid"
)

// This file wires the distributed fine grain (-fine) into the raxml
// tool: -R ranks × -T threads serving ONE likelihood function. The R−1
// worker ranks are a fleet started the way -grid and -serve start
// theirs (startWorkers): goroutines of this process with
// -fine-transport chan, supervised copies of this binary dialing back
// over loopback TCP with tcp — the reproduction's mpirun. The run
// leases the whole fleet and hands its links to the ordinary -f d/-f e
// drivers, whose one rank stripes its engine over them.

// runFine runs body over the links of a fleet of ranks-1 workers,
// leased whole: links[r-1] is rank r, the worker spawned for it —
// spawn slot r, whose profile is <file>.worker<r> — whatever order the
// workers dialed in. The lease goes back to the fleet, and the fleet is
// torn down, before this returns.
func runFine(ranks int, transport string, spawn workerArgs, stdout io.Writer, body func(links []fabric.Link) error) error {
	fleet := grid.NewFleet(nil)
	spawn.firstSlot = 1
	stop, sup, err := startWorkers(fleet, ranks-1, transport, spawn, stdout)
	if err != nil {
		return err
	}
	defer stop()
	defer shutdownFleet(fleet, sup)
	ws := fleet.Lease("fine", ranks-1)
	defer fleet.Return(ws, nil)
	if len(ws) < ranks-1 {
		return fmt.Errorf("fine grain: %d of %d workers answered", len(ws), ranks-1)
	}
	if sup != nil {
		slot := func(w *grid.Worker) int { s, _ := sup.Slot(w.PID); return s }
		sort.Slice(ws, func(i, j int) bool { return slot(ws[i]) < slot(ws[j]) })
	}
	links := make([]fabric.Link, len(ws))
	for i, w := range ws {
		links[i] = w.Link()
	}
	return body(links)
}
