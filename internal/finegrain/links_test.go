package finegrain

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/gtr"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
)

// linkShim forwards the optional link interfaces — the Recv deadline the
// dispatch guard arms, the free list Post recycles into — to the wrapped
// link, so a test wrapper that embeds it changes only what it overrides.
type linkShim struct{ fabric.Link }

func (s linkShim) SetRecvDeadline(at time.Time) error {
	if !fabric.SetLinkRecvDeadline(s.Link, at) {
		return errors.New("wrapped link has no receive deadline")
	}
	return nil
}

func (s linkShim) Recycle(buf []byte) { fabric.RecycleLink(s.Link, buf) }

// countingLink counts the frames and payload bytes crossing one master
// link, each direction apart: what a dispatch puts on one rank's wire.
type countingLink struct {
	linkShim
	sent, recvd, bytesSent, bytesRecvd atomic.Int64
}

func (l *countingLink) Send(tag byte, p []byte) error {
	l.sent.Add(1)
	l.bytesSent.Add(int64(len(p)))
	return l.Link.Send(tag, p)
}

func (l *countingLink) Recv() (byte, []byte, error) {
	tag, p, err := l.Link.Recv()
	if err == nil {
		l.recvd.Add(1)
		l.bytesRecvd.Add(int64(len(p)))
	}
	return tag, p, err
}

// wireCount is one link's counters at an instant.
type wireCount struct{ sent, recvd, bytesSent, bytesRecvd int64 }

func (l *countingLink) count() wireCount {
	return wireCount{l.sent.Load(), l.recvd.Load(), l.bytesSent.Load(), l.bytesRecvd.Load()}
}

// counted wraps every link in a countingLink.
func counted(links []fabric.Link) ([]fabric.Link, []*countingLink) {
	wrapped := make([]fabric.Link, len(links))
	cls := make([]*countingLink, len(links))
	for i, l := range links {
		cls[i] = &countingLink{linkShim: linkShim{l}}
		wrapped[i] = cls[i]
	}
	return wrapped, cls
}

// counts snapshots every link's counters, in rank order.
func counts(links []*countingLink) []wireCount {
	out := make([]wireCount, len(links))
	for i, l := range links {
		out[i] = l.count()
	}
	return out
}

// checkFrames asserts that since before every rank's link carried
// exactly sent frames out and recvd frames back.
func checkFrames(t testing.TB, what string, links []*countingLink, before []wireCount, sent, recvd int64) {
	t.Helper()
	for i, l := range links {
		now := l.count()
		if s, r := now.sent-before[i].sent, now.recvd-before[i].recvd; s != sent || r != recvd {
			t.Errorf("%s: rank %d's link carried %d frames out and %d back, want %d and %d", what, i+1, s, r, sent, recvd)
		}
	}
}

// serveRanks starts n workers, goroutines of this process each serving
// its end of a link — an in-proc LinkPair, or a loopback TCP link from
// ListenStar/DialStar — and returns the master ends in rank order. On
// cleanup the master ends are closed, which ends every worker, and a
// worker that exited with an error fails the test.
func serveRanks(t testing.TB, tcp bool, n int) []fabric.Link {
	t.Helper()
	links := make([]fabric.Link, n)
	served := make(chan error, n)
	if tcp {
		ln, err := fabric.ListenStar("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		for i := 0; i < n; i++ {
			go func() {
				l, err := fabric.DialStar(ln.Addr(), 0)
				if err != nil {
					served <- err
					return
				}
				defer l.Close()
				served <- ServeSessions(l)
			}()
		}
		for i := range links {
			l, _, err := ln.AcceptLink()
			if err != nil {
				t.Fatal(err)
			}
			links[i] = l
		}
	} else {
		for i := range links {
			m, w := fabric.LinkPair()
			links[i] = m
			go func() { served <- ServeSessions(w) }()
		}
	}
	t.Cleanup(func() {
		for _, l := range links {
			l.Close()
		}
		for range links {
			if err := <-served; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
	})
	return links
}

// newPool builds a master pool over links and an engine over the pool;
// the pool is released on cleanup, ahead of serveRanks' link teardown.
func newPool(t testing.TB, links []fabric.Link, pat *msa.Patterns, set *gtr.PartitionSet, threadsPerRank int) (*likelihood.Engine, *Pool) {
	t.Helper()
	pool, err := NewPool(links, pat, set, threadsPerRank)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Release() })
	eng, err := likelihood.NewPartitioned(pat, set, likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return eng, pool
}

// countedGrid is a pool over ranks-1 served workers whose links are
// counted: an engine, its pool and the master ends in rank order.
func countedGrid(t testing.TB, tcp bool, ranks, threadsPerRank int, pat *msa.Patterns, set *gtr.PartitionSet) (*likelihood.Engine, *Pool, []*countingLink) {
	t.Helper()
	links, cls := counted(serveRanks(t, tcp, ranks-1))
	eng, pool := newPool(t, links, pat, set, threadsPerRank)
	return eng, pool, cls
}
