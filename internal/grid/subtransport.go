package grid

import (
	"fmt"
	"time"

	"raxml/internal/fabric"
)

// subTransport presents one job's leased links as a fabric.Transport so
// finegrain.NewPool builds a per-job pool over them unchanged: the job
// is rank 0 of a (k+1)-rank star whose rank r is links[r-1]. With zero
// links it is the degenerate 1-rank star — the job runs master-local,
// which is how jobs proceed when the free pool is empty.
//
// Every link failure is surfaced as a *fabric.RankDeadError carrying
// the job-local rank: the master never closes a leased link mid-job, so
// from inside a job ANY broken link means that worker died. The job
// runner recovers the resulting pool panic, maps the job-local rank
// back to the fleet worker, and re-stripes over survivors.
type subTransport struct {
	links []fabric.Link
	stats fabric.TransportStats
}

func newSubTransport(links []fabric.Link) *subTransport {
	return &subTransport{links: links}
}

func (s *subTransport) Rank() int                     { return 0 }
func (s *subTransport) Size() int                     { return len(s.links) + 1 }
func (s *subTransport) Stats() *fabric.TransportStats { return &s.stats }

func (s *subTransport) Send(to int, tag byte, payload []byte) error {
	if to < 1 || to > len(s.links) {
		return fmt.Errorf("grid: Send to rank %d of a %d-rank lease", to, s.Size())
	}
	if err := s.links[to-1].Send(tag, payload); err != nil {
		return &fabric.RankDeadError{Rank: to, Err: err}
	}
	s.stats.MessagesSent.Add(1)
	s.stats.BytesSent.Add(int64(len(payload)))
	return nil
}

func (s *subTransport) Recv(from int) (byte, []byte, error) {
	if from < 1 || from > len(s.links) {
		return 0, nil, fmt.Errorf("grid: Recv from rank %d of a %d-rank lease", from, s.Size())
	}
	tag, payload, err := s.links[from-1].Recv()
	if err != nil {
		return 0, nil, &fabric.RankDeadError{Rank: from, Err: err}
	}
	s.stats.MessagesRecv.Add(1)
	s.stats.BytesRecv.Add(int64(len(payload)))
	return tag, payload, nil
}

// SetRecvDeadline forwards the per-peer Recv deadline to the leased
// link (the fabric.PeerDeadliner contract), so finegrain's dispatch
// guard bounds waits on grid workers exactly as on fixed-world ranks.
// Expiry surfaces from Recv as a RankDeadError (the wrap above) whose
// chain contains os.ErrDeadlineExceeded — a stalled worker and a dead
// one take the same restripe path.
func (s *subTransport) SetRecvDeadline(peer int, at time.Time) error {
	if peer < 1 || peer > len(s.links) {
		return fmt.Errorf("grid: SetRecvDeadline on rank %d of a %d-rank lease", peer, s.Size())
	}
	if !fabric.SetLinkRecvDeadline(s.links[peer-1], at) {
		return fmt.Errorf("grid: link for rank %d has no deadline support", peer)
	}
	return nil
}

// Recycle hands a spent partial back to the free list of the leased link
// it arrived on (the fabric.Recycler contract), so a grid dispatch
// reuses its receive buffers exactly as a fixed-world one does.
func (s *subTransport) Recycle(from int, buf []byte) {
	if from >= 1 && from <= len(s.links) {
		fabric.RecycleLink(s.links[from-1], buf)
	}
}

// Close is a no-op: the fleet owns the links; a released lease returns
// them to the free pool intact.
func (s *subTransport) Close() error { return nil }
