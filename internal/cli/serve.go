package cli

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"raxml/internal/grid"
	"raxml/internal/server"
)

// This file wires raxml-as-a-service (-serve) into the raxml tool: a
// long-running HTTP analysis server multiplexing submissions over one
// persistent grid fleet. The fleet is built exactly like -grid mode
// (-grid N ranks, -grid-transport chan|tcp, -T threads/rank); the
// service layer on top is internal/server. See docs/server.md.

// serveParams carries the -serve* flag values into runServe.
type serveParams struct {
	addr         string // HTTP listen address
	dataDir      string // blobs + persisted queue
	workers      int    // fleet size R (-grid)
	transport    string // chan or tcp (-grid-transport)
	threads      int    // threads per rank (-T)
	maxRunning   int    // concurrent runs server-wide
	maxPerTenant int    // concurrent runs per tenant
	spawn        workerArgs
}

// deriveRunName is the CLI side of server.DeriveRunID: the default -n
// when none is given, computed from the same content identity the
// server hashes into run IDs.
func deriveRunName(align, part []byte, model string, starts, bootstraps, batch int, bootstop bool, seedP, seedX int64) string {
	partHash := ""
	if len(part) > 0 {
		partHash = server.HashBytes(part)
	}
	return server.DeriveRunID(server.HashBytes(align), partHash, server.RunParams{
		Model:         model,
		Starts:        starts,
		Bootstraps:    bootstraps,
		Batch:         batch,
		Bootstop:      bootstop,
		SeedParsimony: seedP,
		SeedBootstrap: seedX,
	})
}

// offGridRunName folds into a derived run name what a -grid run does
// not read but every other run's outputs depend on: the analysis type
// (-f), the rank count (-R) and the fine-grain switch. Without it, runs
// of different analyses or shapes over one alignment derive one name
// and overwrite each other's files. A -grid run keeps the server's ID.
func offGridRunName(name, analysis string, ranks int, fine bool) string {
	return "r" + server.HashBytes([]byte(fmt.Sprintf("%s/f=%s/R=%d/fine=%v", name, analysis, ranks, fine)))[:12]
}

// runServe starts the analysis server and blocks until SIGINT/SIGTERM,
// then drains gracefully: stop admitting, cancel running grids at their
// next checkpoint boundary, persist the queue (with checkpoints) to the
// data directory, and shut the fleet down so no worker processes
// outlive the master.
func runServe(p serveParams, stdout io.Writer) error {
	if err := os.MkdirAll(p.dataDir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(p.dataDir, "fleetTrace.jsonl")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	defer traceFile.Close()
	tracer := grid.NewTracer(traceFile)

	fleet := grid.NewFleet(tracer)
	stop, sup, err := startWorkers(fleet, p.workers, p.transport, p.spawn, stdout)
	if err != nil {
		return err
	}
	defer stop()
	// A long-lived fleet needs the background liveness sweep: a worker
	// that dies while the queue is empty is evicted (and, under the
	// supervisor, replaced) long before the next submission leases it.
	fleet.StartHeartbeats(grid.DefaultHeartbeatInterval)

	s, err := server.New(server.Config{
		Fleet:               fleet,
		FleetTracer:         tracer,
		DataDir:             p.dataDir,
		MaxRunning:          p.maxRunning,
		MaxRunningPerTenant: p.maxPerTenant,
		ThreadsPerRank:      p.threads,
		Supervisor:          sup,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(stdout, "raxml server listening on http://%s (fleet: %d ranks x %d threads, %s; data: %s)\n",
		ln.Addr(), p.workers, p.threads, orChan(p.transport), p.dataDir)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig, ok := <-sigCh
		if !ok {
			return
		}
		fmt.Fprintf(stdout, "raxml server: %v — draining (queue persists to %s)\n", sig, p.dataDir)
		if err := s.Drain(); err != nil {
			fmt.Fprintf(stdout, "raxml server: drain: %v\n", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	err = httpSrv.Serve(ln)
	signal.Stop(sigCh)
	close(sigCh)
	<-drained
	shutdownFleet(fleet, sup)
	if err == http.ErrServerClosed {
		err = nil
	}
	fmt.Fprintf(stdout, "raxml server: stopped (fleet trace: %s)\n", tracePath)
	return err
}
