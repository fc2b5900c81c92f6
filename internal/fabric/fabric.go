// Package fabric is the coarse-grained parallel substrate of this
// reproduction: an in-memory message-passing layer standing in for MPI.
//
// Go has no mature MPI bindings, and the paper's algorithm barely uses
// MPI anyway — its only noteworthy communications are one MPI_Barrier
// after the bootstrap stage and one best-tree broadcast at the end
// (Section 2.1). What matters for reproducing the paper is the *rank
// model*: p independent processes, each parsing its own input, seeding
// its own RNG (base + 10000·rank), working through its own share of
// searches, and synchronizing at exactly two points. This package
// provides that model: ranks are goroutines, point-to-point messages
// travel over per-pair channels, and collectives (Barrier, Bcast,
// Allreduce, Gather) are implemented with a two-phase shared-slot
// protocol guarded by a reusable, abort-aware barrier.
//
// Determinism: collective results are combined in rank order, so a
// fabric program's output is a pure function of its inputs and seeds,
// independent of goroutine scheduling — the property Section 2.4 of the
// paper demands of the hybrid code.
package fabric

import (
	"errors"
	"fmt"
	"sync"
)

// ErrAborted is returned from communication calls after any rank failed.
var ErrAborted = errors.New("fabric: world aborted")

// message is one point-to-point payload.
type message struct {
	payload any
}

// World owns the shared state of one rank group. Create with Run; a
// World is not reusable across Run invocations.
type World struct {
	size    int
	bar     *barrier
	slots   []any
	fslots  [][]float64      // typed slots for float-vector collectives
	mail    [][]chan message // mail[from][to]
	aborted chan struct{}
	once    sync.Once
}

// abort unblocks every rank waiting in a collective or Recv.
func (w *World) abort() {
	w.once.Do(func() {
		close(w.aborted)
		w.bar.abort()
	})
}

// Comm is one rank's endpoint to the world, analogous to an MPI
// communicator handle. It must only be used by the rank that received
// it.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.size }

// Run launches size ranks, each executing body concurrently with its own
// Comm, and waits for all to finish. If any rank returns an error or
// panics, the world is aborted (unblocking collectives) and Run returns
// the first error by rank index. Run is the analogue of mpirun.
func Run(size int, body func(c *Comm) error) error {
	if size < 1 {
		return fmt.Errorf("fabric: world size %d < 1", size)
	}
	w := &World{
		size:    size,
		bar:     newBarrier(size),
		slots:   make([]any, size),
		fslots:  make([][]float64, size),
		aborted: make(chan struct{}),
	}
	w.mail = make([][]chan message, size)
	for i := range w.mail {
		w.mail[i] = make([]chan message, size)
		for j := range w.mail[i] {
			w.mail[i][j] = make(chan message, 1024)
		}
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("fabric: rank %d panicked: %v", rank, rec)
					w.abort()
				}
			}()
			if err := body(&Comm{world: w, rank: rank}); err != nil {
				errs[rank] = fmt.Errorf("fabric: rank %d: %w", rank, err)
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Barrier blocks until all ranks have entered it: the MPI_Barrier the
// hybrid code issues after the bootstrap stage.
func (c *Comm) Barrier() error {
	return c.world.bar.wait()
}

// Send delivers a payload to rank `to`. It blocks only if the channel
// buffer is full, and unblocks with ErrAborted if the world fails.
// After the world has aborted, Send fails deterministically instead of
// quietly enqueueing into a world nobody will drain.
func (c *Comm) Send(to int, v any) error {
	if to < 0 || to >= c.world.size {
		return fmt.Errorf("fabric: Send to invalid rank %d", to)
	}
	select {
	case <-c.world.aborted:
		return ErrAborted
	default:
	}
	select {
	case c.world.mail[c.rank][to] <- message{payload: v}:
		return nil
	case <-c.world.aborted:
		return ErrAborted
	}
}

// Recv receives the next payload sent by rank `from` (FIFO per sender
// pair), blocking until one arrives.
//
// Abort semantics are delivery-first: a message that was fully sent
// before the world aborted is still delivered — only once the pair's
// queue is drained does Recv return ErrAborted. Without the drain-first
// check the select below races its two arms, so a receiver could
// nondeterministically lose a message its peer completed sending just
// before failing elsewhere — the "remote rank aborts mid-message"
// hazard. (A sender that aborts *between* the frames of a multi-part
// message still deterministically strands the receiver on ErrAborted
// at the missing frame, never on a stale queue entry.)
func (c *Comm) Recv(from int) (any, error) {
	if from < 0 || from >= c.world.size {
		return nil, fmt.Errorf("fabric: Recv from invalid rank %d", from)
	}
	select {
	case m := <-c.world.mail[from][c.rank]:
		return m.payload, nil
	default:
	}
	select {
	case m := <-c.world.mail[from][c.rank]:
		return m.payload, nil
	case <-c.world.aborted:
		return nil, ErrAborted
	}
}

// exchange runs the two-phase shared-slot collective protocol: every
// rank deposits contribute, all ranks observe all slots via read, then a
// second barrier protects the slots from the next collective.
func (c *Comm) exchange(contribute any, read func(slots []any)) error {
	w := c.world
	w.slots[c.rank] = contribute
	if err := w.bar.wait(); err != nil {
		return err
	}
	read(w.slots)
	return w.bar.wait()
}

// exchangeFloats is the typed-slot variant of exchange for float-vector
// collectives: payloads travel through a dedicated [][]float64 slot
// array, so the hot reduction path never boxes values into `any` (no
// per-call interface allocation, no type assertions on read-out).
func (c *Comm) exchangeFloats(contribute []float64, read func(slots [][]float64)) error {
	w := c.world
	w.fslots[c.rank] = contribute
	if err := w.bar.wait(); err != nil {
		return err
	}
	read(w.fslots)
	return w.bar.wait()
}

// AllreduceSumFloats sums the ranks' src vectors elementwise — in rank
// order, so the result is deterministic — into dst at every rank. All
// ranks must pass equal-length vectors; dst and src may alias. (The
// distributed likelihood reductions of internal/finegrain run over
// Link byte frames, not Comm; this is the coarse-grain vector
// collective — e.g. reducing per-rank statistic vectors.)
func (c *Comm) AllreduceSumFloats(dst, src []float64) error {
	n := len(src)
	if len(dst) != n {
		return fmt.Errorf("fabric: AllreduceSumFloats dst has %d entries, src %d", len(dst), n)
	}
	// Sum into private scratch and install only after the exit barrier:
	// dst may alias src, and src stays rank-visible through the slots
	// until every rank has left the collective — writing dst earlier
	// would corrupt slower ranks' reads.
	tmp := make([]float64, n)
	err := c.exchangeFloats(src, func(slots [][]float64) {
		for _, s := range slots {
			if len(s) != n {
				panic(fmt.Sprintf("fabric: AllreduceSumFloats rank vectors disagree: %d vs %d entries", len(s), n))
			}
			for i, v := range s {
				tmp[i] += v
			}
		}
	})
	if err != nil {
		return err
	}
	copy(dst, tmp)
	return nil
}

// BcastFloats distributes root's vector to every rank's dst (equal
// lengths everywhere) without boxing; root's dst is left unchanged.
func (c *Comm) BcastFloats(root int, dst []float64) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("fabric: BcastFloats from invalid root %d", root)
	}
	return c.exchangeFloats(dst, func(slots [][]float64) {
		if c.rank == root {
			return
		}
		if len(slots[root]) != len(dst) {
			panic(fmt.Sprintf("fabric: BcastFloats root vector has %d entries, dst %d", len(slots[root]), len(dst)))
		}
		copy(dst, slots[root])
	})
}

// Bcast distributes root's value to all ranks: the MPI_Bcast that ships
// the winning thorough-search tree to everyone at the end of a
// comprehensive analysis. Every rank passes its local v; the root's v is
// returned everywhere.
func Bcast[T any](c *Comm, root int, v T) (T, error) {
	var out T
	if root < 0 || root >= c.Size() {
		return out, fmt.Errorf("fabric: Bcast from invalid root %d", root)
	}
	err := c.exchange(v, func(slots []any) {
		out = slots[root].(T)
	})
	return out, err
}

// Gather collects every rank's value, in rank order, at all ranks
// (an MPI_Allgather; the paper's code gathers final scores to pick the
// winner).
func Gather[T any](c *Comm, v T) ([]T, error) {
	var out []T
	err := c.exchange(v, func(slots []any) {
		out = make([]T, len(slots))
		for i, s := range slots {
			out[i] = s.(T)
		}
	})
	return out, err
}

// allreduceLoc runs a scalar loc-reduction over the typed float slots:
// every rank contributes one value, all ranks learn the winning value
// and the lowest rank holding it. No `any` boxing on the way.
func (c *Comm) allreduceLoc(v float64, better func(x, best float64) bool) (float64, int, error) {
	contribute := [1]float64{v}
	best, loc := 0.0, -1
	err := c.exchangeFloats(contribute[:], func(slots [][]float64) {
		for i, s := range slots {
			if loc < 0 || better(s[0], best) {
				best, loc = s[0], i
			}
		}
	})
	if err != nil {
		return 0, -1, err
	}
	return best, loc, nil
}

// AllreduceMinLoc returns the minimum value across ranks and the lowest
// rank holding it — MPI_MINLOC, used to select the best (lowest negative
// log-likelihood) thorough search deterministically.
func (c *Comm) AllreduceMinLoc(v float64) (float64, int, error) {
	return c.allreduceLoc(v, func(x, best float64) bool { return x < best })
}

// AllreduceMaxLoc is AllreduceMinLoc for maxima (highest log-likelihood).
func (c *Comm) AllreduceMaxLoc(v float64) (float64, int, error) {
	return c.allreduceLoc(v, func(x, best float64) bool { return x > best })
}

// AllreduceSum returns the sum of v across ranks (deterministic rank
// order), over the typed float slots.
func (c *Comm) AllreduceSum(v float64) (float64, error) {
	dst := [1]float64{v}
	if err := c.AllreduceSumFloats(dst[:], dst[:]); err != nil {
		return 0, err
	}
	return dst[0], nil
}

// AllreduceSumInt returns the integer sum of v across ranks.
func (c *Comm) AllreduceSumInt(v int) (int, error) {
	vals, err := Gather(c, v)
	if err != nil {
		return 0, err
	}
	s := 0
	for _, x := range vals {
		s += x
	}
	return s, nil
}

// barrier is a reusable, generation-counted, abort-aware barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	waiting int
	gen     uint64
	dead    bool
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return ErrAborted
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.size {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && !b.dead {
		b.cond.Wait()
	}
	if b.dead {
		return ErrAborted
	}
	return nil
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.dead = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
