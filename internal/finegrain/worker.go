package finegrain

import (
	"errors"
	"fmt"

	"raxml/internal/fabric"
	"raxml/internal/likelihood"
	"raxml/internal/threads"
)

// ServeSessions runs a worker rank over its link to the master: an idle
// loop that the master leases into finegrain *sessions* and returns to
// between them. One worker process thus serves many coarse jobs over
// its lifetime, each with its own stripe and engine — and a
// `-fine` run is simply one lease (every state × frame cell:
// docs/hybrid-topology.md, "Session protocol"):
//
//	idle:    TagPing -> TagPong (the scheduler's liveness probe)
//	         TagRelease -> TagReleased (idempotent; stray release)
//	         TagInit -> build engine, enter session
//	         TagShutdown / broken link -> exit
//	session: TagJob -> execute, send TagPartial
//	         TagRelease -> send TagReleased, drop engine, back to idle
//	         TagShutdown / broken link -> exit
//
// Seen from a worker the master IS the world, so any link failure — the
// owner closing the link after its Release, a crashed master, a reset —
// ends the loop cleanly (nil).
//
// The release handshake is what makes worker reuse safe after a
// failure: the master discards every frame ahead of the TagReleased
// ack, so partials of an abandoned job can never be mistaken for the
// next session's traffic.
//
// A worker is stateless beyond its session engine: every job frame
// carries the node capacity, carries a tile-reset marker when the
// master re-attached a tree, and carries a model-sync block when model
// state changed, so a worker that just replays frames in order is
// always consistent with the master's planning. Clean job-level
// failures (ExecWireJob errors) are reported to the master as TagErr
// frames; protocol desync, decode failures and frames whose content
// only a mangled stream explains (likelihood.ErrWireDesync) instead
// close the link and die loudly, so the master sees a dead rank and
// restripes rather than trusting a corrupted stream.
func ServeSessions(l fabric.Link) error {
	for {
		tag, payload, err := l.Recv()
		if err != nil {
			return nil
		}
		switch tag {
		case TagShutdown:
			return nil
		case TagPing:
			if l.Send(TagPong, nil) != nil {
				return nil
			}
		case TagRelease:
			// Stray release of a lease that never got its init (the
			// master's pool construction failed partway): ack and stay
			// idle.
			if l.Send(TagReleased, nil) != nil {
				return nil
			}
		case TagInit:
			done, err := serveSession(l, payload)
			if err != nil || done {
				return err
			}
		default:
			// Protocol desync: the stream can no longer be trusted, so die
			// loudly — close the link (the master's next Recv fails and
			// restripes around this rank) instead of sending TagErr, which
			// would itself be an unexpected frame mid-protocol.
			l.Close()
			return fmt.Errorf("finegrain: idle worker got unexpected tag %d", tag)
		}
	}
}

// serveSession executes one lease: build the engine from the init
// payload, then serve job frames until the master releases the
// worker (done=false: back to the idle loop), shuts it down or goes
// away (done=true).
func serveSession(l fabric.Link, initPayload []byte) (done bool, err error) {
	init, err := likelihood.DecodeWorkerInit(initPayload)
	if err != nil {
		// A corrupt init frame means the stream is untrustworthy; die
		// loudly so the master restripes instead of trying to lease into
		// a desynced worker.
		l.Close()
		return true, fmt.Errorf("finegrain: worker init decode: %w", err)
	}
	eng, err := likelihood.BuildWorkerEngine(init)
	if err != nil {
		// Nothing of the lease can run: the same policy, or the master
		// would wait out its deadline for a partial that never comes.
		l.Close()
		return true, fmt.Errorf("finegrain: worker engine: %w", err)
	}
	if pool, ok := eng.Pool().(*threads.Pool); ok {
		defer pool.Close()
	}
	// Every frame decodes into the same WireJob, so the steady-state serve
	// loop reuses its entry/view/partial slabs instead of reallocating.
	var job likelihood.WireJob
	for {
		tag, payload, err := l.Recv()
		if err != nil {
			return true, nil
		}
		switch tag {
		case TagShutdown:
			return true, nil
		case TagRelease:
			return l.Send(TagReleased, nil) != nil, nil
		case TagPing:
			if l.Send(TagPong, nil) != nil {
				return true, nil
			}
		case TagJob:
			decErr := likelihood.DecodeWireJobInto(&job, payload)
			fabric.RecycleLink(l, payload)
			if decErr != nil {
				// Corrupt job frame: the stream is desynced, so close the
				// link rather than answering — the master's reduction sees a
				// dead rank and restripes. (TagErr is reserved for clean
				// job-level failures from ExecWireJob.)
				l.Close()
				return true, fmt.Errorf("finegrain: worker job decode: %w", decErr)
			}
			partial, err := eng.ExecWireJob(&job)
			if errors.Is(err, likelihood.ErrWireDesync) {
				// The frame decoded but names state the master cannot have
				// sent: the same policy as a frame that did not decode.
				l.Close()
				return true, fmt.Errorf("finegrain: worker job exec: %w", err)
			}
			if err != nil {
				_ = l.Send(TagErr, []byte(err.Error()))
				return true, fmt.Errorf("finegrain: worker job exec: %w", err)
			}
			if l.Send(TagPartial, partial) != nil {
				return true, nil
			}
		default:
			// Protocol desync mid-session: same policy as the idle loop —
			// close and die so the master restripes around this rank.
			l.Close()
			return true, fmt.Errorf("finegrain: worker got unexpected tag %d", tag)
		}
	}
}
