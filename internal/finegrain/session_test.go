package finegrain

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"raxml/internal/fabric"
	"raxml/internal/likelihood"
	"raxml/internal/msa"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// frame is one (tag, payload) frame of a recorded session.
type frame struct {
	tag     byte
	payload []byte
}

// recordLink records every frame the master sends over the wrapped link.
type recordLink struct {
	linkShim
	mu   sync.Mutex
	sent []frame
}

func (l *recordLink) Send(tag byte, payload []byte) error {
	l.mu.Lock()
	l.sent = append(l.sent, frame{tag, append([]byte(nil), payload...)})
	l.mu.Unlock()
	return l.Link.Send(tag, payload)
}

// recordSession runs one real lease over a served worker of `taxa` taxa
// and returns the frames its master sent: the init, a full evaluation (a
// descriptor of taxa−2 entries), a branch optimization and site
// log-likelihoods, an insertion scan, a ping, and the release.
func recordSession(t testing.TB, cat bool, taxa, genes int) []frame {
	pat := makeData(t, taxa, 240, genes, 61)
	topo := tree.Random(pat.Names, rng.New(62))
	rec := &recordLink{linkShim: linkShim{serveRanks(t, false, 1)[0]}}
	pool, err := NewPool([]fabric.Link{rec}, pat, makeSet(t, pat, cat), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewPartitioned(pat, makeSet(t, pat, cat), likelihood.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachTree(topo); err != nil {
		t.Fatal(err)
	}
	eng.LogLikelihood()
	e := topo.Edges()[2]
	eng.OptimizeBranch(e.A, e.B)
	eng.SiteLogLikelihoods(nil)
	p, cands := pruneForScan(t, topo, 6)
	eng.EvaluateInsertions(p.Root, p.Attach, cands, nil)
	if err := rec.Send(TagPing, nil); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := rec.Recv(); err != nil || tag != TagPong {
		t.Fatalf("ping got (%d, %v)", tag, err)
	}
	if dead := pool.Release(); len(dead) > 0 {
		t.Fatalf("release reported ranks %v dead", dead)
	}
	return rec.sent
}

// encodeFrames is the fuzz input form of a frame sequence: per frame its
// tag, its payload length as a little-endian u16, the payload.
func encodeFrames(frames []frame) []byte {
	var b []byte
	for _, f := range frames {
		b = append(b, f.tag)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.payload)))
		b = append(b, f.payload...)
	}
	return b
}

// decodeFrames splits a fuzz input into frames; a length running past
// the input takes what is left.
func decodeFrames(b []byte) []frame {
	var out []frame
	for len(b) > 0 {
		f := frame{tag: b[0]}
		b = b[1:]
		if len(b) >= 2 {
			n := min(int(binary.LittleEndian.Uint16(b)), len(b)-2)
			f.payload, b = b[2:2+n], b[2+n:]
		} else {
			b = nil
		}
		out = append(out, f)
	}
	return out
}

// serve starts a worker on the far end of a fresh LinkPair and returns
// the master end and the channel ServeSessions' result arrives on. With
// exitCloses the worker's end closes when ServeSessions returns, as a
// worker process's does when it exits; without, the link stays open
// unless the worker closed it, as an in-proc worker's (Run) does.
func serve(exitCloses bool) (fabric.Link, chan error) {
	m, w := fabric.LinkPair()
	served := make(chan error, 1)
	go func() {
		served <- ServeSessions(w)
		if exitCloses {
			w.Close()
		}
	}()
	return m, served
}

// TestSessionProtocolTable drives every cell of the worker's session
// protocol table (docs/hybrid-topology.md, "Session protocol") into
// ServeSessions over a LinkPair: the state the worker is in, the frame it
// gets, the frame it answers with, and where it goes next — still idle,
// still in its session, exited (ServeSessions returns nil), failed (it
// returns an error) or dead (it also closed its link itself).
func TestSessionProtocolTable(t *testing.T) {
	session := recordSession(t, true, 8, 1)
	init, job := session[0].payload, session[1].payload
	if session[0].tag != TagInit || session[1].tag != TagJob {
		t.Fatalf("recorded session opens with tags %d, %d", session[0].tag, session[1].tag)
	}
	// A frame that decodes but whose views the job table refuses, and a
	// makenewz core frame whose factor block has no partition: the worker
	// cannot run either, but only the first one is a desync.
	desync := []byte{byte(threads.JobEvaluate), 0, 16, 0, 0, 0}
	desync = binary.LittleEndian.AppendUint64(desync, math.Float64bits(0.1))
	desync = append(desync, 0, 0, 0, 0, 0) // no views, no entries
	failing := []byte{byte(threads.JobMakenewzCore), 0, 16, 0, 0, 0}
	failing = binary.LittleEndian.AppendUint64(failing, math.Float64bits(0.1))
	failing = append(failing, 0, 0, 0, 0, 0, 0, 0, 0, 0) // no views, no factor partition, no entries
	// An init frame that decodes, over three taxa: no engine is built.
	threeTaxa := likelihood.EncodeWorkerInit(&likelihood.WorkerInit{
		Threads: 2, Stripe: threads.Range{Lo: 1, Hi: 2}, IsCAT: true, NCats: 1,
		Pat: msa.FromParts([]string{"a", "b", "c"}, [][]msa.State{{1, 2}, {2, 4}, {4, 8}}, []int{1, 1}, nil),
	})

	// Where a cell leaves the worker: still idle, still in its session,
	// exited cleanly (ServeSessions returns nil), failed (it returns the
	// job's error) or dead (it closed its link and returns an error).
	const (
		idle = iota
		inSession
		exits
		fails
		dies
	)
	type cell struct {
		state     int
		tag       byte
		payload   []byte
		breakLink bool // instead of a frame, the master end closes
		reply     byte // 0: no reply
		next      int
	}
	cells := map[string]cell{
		"idle ping":             {state: idle, tag: TagPing, reply: TagPong, next: idle},
		"idle stray release":    {state: idle, tag: TagRelease, reply: TagReleased, next: idle},
		"idle init":             {state: idle, tag: TagInit, payload: init, next: inSession},
		"idle corrupt init":     {state: idle, tag: TagInit, payload: []byte{1, 2, 3}, next: dies},
		"idle unbuildable init": {state: idle, tag: TagInit, payload: threeTaxa, next: dies},
		"idle shutdown":         {state: idle, tag: TagShutdown, next: exits},
		"idle broken link":      {state: idle, breakLink: true, next: exits},
		"idle job":              {state: idle, tag: TagJob, payload: job, next: dies},
		"idle partial":          {state: idle, tag: TagPartial, next: dies},
		"idle error":            {state: idle, tag: TagErr, payload: []byte("x"), next: dies},
		"idle released":         {state: idle, tag: TagReleased, next: dies},
		"idle pong":             {state: idle, tag: TagPong, next: dies},
		"idle unknown tag":      {state: idle, tag: 200, next: dies},
		"session job":           {state: inSession, tag: TagJob, payload: job, reply: TagPartial, next: inSession},
		"session corrupt job":   {state: inSession, tag: TagJob, payload: []byte{0xff}, next: dies},
		"session desync job":    {state: inSession, tag: TagJob, payload: desync, next: dies},
		"session failing job":   {state: inSession, tag: TagJob, payload: failing, reply: TagErr, next: fails},
		"session ping":          {state: inSession, tag: TagPing, reply: TagPong, next: inSession},
		"session release":       {state: inSession, tag: TagRelease, reply: TagReleased, next: idle},
		"session shutdown":      {state: inSession, tag: TagShutdown, next: exits},
		"session broken link":   {state: inSession, breakLink: true, next: exits},
		"session init":          {state: inSession, tag: TagInit, payload: init, next: dies},
		"session partial":       {state: inSession, tag: TagPartial, next: dies},
		"session error":         {state: inSession, tag: TagErr, payload: []byte("x"), next: dies},
		"session released":      {state: inSession, tag: TagReleased, next: dies},
		"session pong":          {state: inSession, tag: TagPong, next: dies},
		"session unknown tag":   {state: inSession, tag: 200, next: dies},
	}
	for name, c := range cells {
		t.Run(name, func(t *testing.T) {
			m, served := serve(false)
			defer m.Close()
			send := func(tag byte, payload []byte) {
				if err := m.Send(tag, payload); err != nil {
					t.Fatalf("send tag %d: %v", tag, err)
				}
			}
			expect := func(want byte) {
				if tag, _, err := m.Recv(); err != nil || tag != want {
					t.Fatalf("worker answered (%d, %v), want tag %d", tag, err, want)
				}
			}
			exit := func() error {
				select {
				case err := <-served:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("worker did not exit")
					return nil
				}
			}
			closed := func() {
				fabric.SetLinkRecvDeadline(m, time.Now().Add(10*time.Second))
				if tag, _, err := m.Recv(); !errors.Is(err, fabric.ErrTransportClosed) {
					t.Fatalf("worker answered (%d, %v) instead of closing its link", tag, err)
				}
				if exit() == nil {
					t.Fatal("worker closed its link without an error")
				}
			}
			if c.state == inSession {
				send(TagInit, init)
			}
			if c.breakLink {
				m.Close()
			} else {
				send(c.tag, c.payload)
			}
			if c.reply != 0 {
				expect(c.reply)
			}
			switch c.next {
			case idle, inSession:
				// A ping is answered in either state, a job only in a
				// session: an idle worker refuses it and dies.
				send(TagPing, nil)
				expect(TagPong)
				send(TagJob, job)
				if c.next == inSession {
					expect(TagPartial)
				} else {
					closed()
				}
			case exits:
				if err := exit(); err != nil {
					t.Fatalf("worker exited with %v, want nil", err)
				}
			case fails:
				if exit() == nil {
					t.Fatal("a failed job ended the worker without its error")
				}
			case dies:
				closed()
			}
		})
	}
}

// FuzzServeSessions feeds ServeSessions a sequence of frames (the
// encodeFrames form) over a LinkPair, then closes the master end: the
// worker must end — whatever the frames did to its state — without a
// panic and without a hang. The seeds are recorded real sessions, GAMMA
// on two partitions over 8 taxa and CAT on one over 70, whose full
// evaluation ships a 68-entry descriptor in one frame.
func FuzzServeSessions(f *testing.F) {
	f.Add(encodeFrames(recordSession(f, false, 8, 2)))
	f.Add(encodeFrames(recordSession(f, true, 70, 1)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, served := serve(true)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				if _, _, err := m.Recv(); err != nil {
					return
				}
			}
		}()
		// Sent from a goroutine of its own, so a worker that stops reading
		// fails the deadline below instead of blocking a Send.
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for _, fr := range decodeFrames(data) {
				if m.Send(fr.tag, fr.payload) != nil {
					break
				}
			}
			m.Close()
		}()
		select {
		case <-served:
		case <-time.After(20 * time.Second):
			m.Close()
			t.Fatal("ServeSessions did not end after its link closed")
		}
		<-sent
		<-drained
	})
}

// fakeWorker serves w: it answers the first frame tagged on with answer
// — which may send anything, close w or stay silent — and every later
// TagRelease with TagReleased, until its link closes.
func fakeWorker(w fabric.Link, on byte, answer func(w fabric.Link)) {
	for {
		tag, _, err := w.Recv()
		switch {
		case err != nil:
			return
		case tag == on && answer != nil:
			answer(w)
			answer = nil
		case tag == TagRelease:
			_ = w.Send(TagReleased, nil) // a closed link ends the loop at the next Recv
		}
	}
}

// TestMasterProtocolTable drives the master's rows of the session
// protocol table (docs/hybrid-topology.md, "Session protocol") over a
// LinkPair: every answer a rank can give a dispatch (Pool.Post, through
// RunRecovering), and every frame the release drain (ReleaseLink) can
// meet, from a scripted worker.
func TestMasterProtocolTable(t *testing.T) {
	pat := makeData(t, 8, 240, 1, 61)
	topo := tree.Random(pat.Names, rng.New(62))
	send := func(tag byte, payload []byte) func(fabric.Link) {
		return func(w fabric.Link) { _ = w.Send(tag, payload) }
	}
	// A partial with zero slots, nWide zero wide components and no
	// per-pattern block: one wide component is the shape of an
	// evaluation of this one-partition alignment.
	partial := func(nWide int) []byte {
		b := binary.LittleEndian.AppendUint32(make([]byte, 16), uint32(nWide))
		return binary.LittleEndian.AppendUint32(append(b, make([]byte, 8*nWide)...), 0)
	}
	silent := func(fabric.Link) {}
	closes := func(w fabric.Link) { w.Close() }
	shorten := func(t *testing.T, v *time.Duration) {
		was := *v
		*v = 50 * time.Millisecond
		t.Cleanup(func() { *v = was })
	}
	// start runs worker on the far end of a fresh LinkPair until the
	// master end closes, which the cleanup does.
	start := func(t *testing.T, worker func(fabric.Link)) fabric.Link {
		m, w := fabric.LinkPair()
		done := make(chan struct{})
		go func() {
			defer close(done)
			worker(w)
		}()
		t.Cleanup(func() {
			m.Close()
			<-done
		})
		return m
	}

	for name, c := range map[string]struct {
		answer           func(fabric.Link) // nil: a real worker answers
		deadline         bool
		rankDead, failed bool
	}{
		"partial of the job's shape":    {},
		"partial that does not decode":  {answer: send(TagPartial, []byte{1, 2, 3}), rankDead: true},
		"partial of another shape":      {answer: send(TagPartial, partial(0)), rankDead: true},
		"error":                         {answer: send(TagErr, []byte("job failed")), failed: true},
		"any other tag":                 {answer: send(TagPong, nil), rankDead: true},
		"link error":                    {answer: closes, rankDead: true},
		"no answer before the deadline": {answer: silent, deadline: true, rankDead: true},
	} {
		t.Run("fold/"+name, func(t *testing.T) {
			worker := func(w fabric.Link) { _ = ServeSessions(w) }
			if c.answer != nil {
				worker = func(w fabric.Link) { fakeWorker(w, TagJob, c.answer) }
			}
			if c.deadline {
				shorten(t, &DispatchTimeout)
			}
			set := makeSet(t, pat, true)
			eng, _ := newPool(t, []fabric.Link{start(t, worker)}, pat, set, 1)
			if err := eng.AttachTree(topo.Clone()); err != nil {
				t.Fatal(err)
			}
			err := RunRecovering(func(e *likelihood.Engine) error {
				e.LogLikelihood()
				return nil
			}, eng)
			var dead *fabric.RankDeadError
			switch isDead := errors.As(err, &dead); {
			case c.rankDead && (!isDead || dead.Rank != 1):
				t.Fatalf("dispatch returned %v, want rank 1 dead", err)
			case c.failed && (err == nil || isDead):
				t.Fatalf("dispatch returned %v, want the rank's own error", err)
			case !c.rankDead && !c.failed && err != nil:
				t.Fatalf("dispatch returned %v", err)
			}
		})
	}

	for name, c := range map[string]struct {
		answer  func(fabric.Link)
		timeout bool
		alive   bool
	}{
		"released": {answer: send(TagReleased, nil), alive: true},
		"stale frames, then released": {answer: func(w fabric.Link) {
			send(TagPartial, partial(1))(w)
			send(TagPong, nil)(w)
			send(TagReleased, nil)(w)
		}, alive: true},
		"more than 1024 stale frames": {answer: func(w fabric.Link) {
			for i := 0; i <= 1024 && w.Send(TagPartial, partial(1)) == nil; i++ {
			}
		}},
		"link error":                   {answer: closes},
		"no answer before the timeout": {answer: silent, timeout: true},
	} {
		t.Run("release/"+name, func(t *testing.T) {
			if c.timeout {
				shorten(t, &ReleaseTimeout)
			}
			m := start(t, func(w fabric.Link) { fakeWorker(w, TagRelease, c.answer) })
			if got := ReleaseLink(m); got != c.alive {
				t.Fatalf("ReleaseLink reported the worker alive: %v, want %v", got, c.alive)
			}
		})
	}
}
