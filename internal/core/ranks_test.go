package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForkRanksRunsEveryRank counts the rank bodies that run: one per
// rank, and forkRanks returns only after all of them.
func TestForkRanksRunsEveryRank(t *testing.T) {
	var count atomic.Int32
	if err := forkRanks(8, func(r int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("%d ranks executed, want 8", count.Load())
	}
}

// TestForkRanksRunsEachRankOnce checks that every rank index in [0, n)
// is handed to exactly one body.
func TestForkRanksRunsEachRankOnce(t *testing.T) {
	seen := make([]atomic.Int32, 5)
	if err := forkRanks(len(seen), func(r int) error {
		seen[r].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if n := seen[r].Load(); n != 1 {
			t.Fatalf("rank %d executed %d times", r, n)
		}
	}
}

// TestForkRanksResultsInRankOrder makes every rank wait for the next one
// to finish, so the ranks finish in reverse order, and checks that each
// rank's result sits in its own slot.
func TestForkRanksResultsInRankOrder(t *testing.T) {
	const n = 6
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	out := make([]int, n)
	var mu sync.Mutex
	var finished []int
	err := forkRanks(n, func(r int) error {
		<-done[r+1]
		out[r] += 100 + r
		mu.Lock()
		finished = append(finished, r)
		mu.Unlock()
		close(done[r])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range n {
		if out[r] != 100+r {
			t.Errorf("slot %d holds %d, want %d", r, out[r], 100+r)
		}
		if finished[r] != n-1-r {
			t.Fatalf("finish order %v, want ranks in reverse", finished)
		}
	}
}

// TestForkRanksManyRanks forks well past the paper's useful range of
// about 20 ranks and folds the rank-indexed results after the join: the
// MAXLOC fold over 64 ranks finds the last rank's score.
func TestForkRanksManyRanks(t *testing.T) {
	const n = 64
	ranks := make([]*analysisRank, n)
	if err := forkRanks(n, func(r int) error {
		ranks[r] = &analysisRank{rep: RankReport{ThoroughScore: -float64(n - r)}}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := bestRank(ranks); got != n-1 {
		t.Fatalf("rank %d wins, want %d", got, n-1)
	}
}

// TestForkRanksLowestErrorWins fails ranks 1 and 3, rank 3 first: the
// error returned is rank 1's, and the healthy ranks still run to the end.
func TestForkRanksLowestErrorWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	rank3Failed := make(chan struct{})
	var healthy atomic.Int32
	err := forkRanks(4, func(r int) error {
		switch r {
		case 1:
			<-rank3Failed
			return errLow
		case 3:
			defer close(rank3Failed)
			return errHigh
		}
		healthy.Add(1)
		return nil
	})
	if !errors.Is(err, errLow) || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error %v, want rank 1's", err)
	}
	if healthy.Load() != 2 {
		t.Fatalf("%d healthy ranks finished, want 2", healthy.Load())
	}
}

// TestForkRanksPanicNamesRank turns a panicking rank into an error that
// names it instead of a crash.
func TestForkRanksPanicNamesRank(t *testing.T) {
	err := forkRanks(3, func(r int) error {
		if r == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 panicked: boom") {
		t.Fatalf("error %v, want rank 2's panic", err)
	}
}

// TestRunPhasesJoinWaitsForEveryRank runs a comprehensive run's shape
// with a join (GlobalFastSort): join runs once, after every first phase
// and before any second phase.
func TestRunPhasesJoinWaitsForEveryRank(t *testing.T) {
	const n = 6
	var firsts, joins, seconds atomic.Int32
	join := func() error {
		if firsts.Load() != n || seconds.Load() != 0 {
			t.Errorf("join ran after %d first phases and %d second phases", firsts.Load(), seconds.Load())
		}
		joins.Add(1)
		return nil
	}
	first := func(r int) error { firsts.Add(1); return nil }
	second := func(r int) error {
		if joins.Load() != 1 {
			t.Errorf("rank %d began its second phase before the join", r)
		}
		seconds.Add(1)
		return nil
	}
	if err := runPhases(n, first, join, second); err != nil {
		t.Fatal(err)
	}
	if joins.Load() != 1 || seconds.Load() != n {
		t.Fatalf("%d joins and %d second phases, want 1 and %d", joins.Load(), seconds.Load(), n)
	}
}

// TestRunPhasesFailureSkipsJoin fails one rank's first phase: with a
// join, the failing rank's error is returned and neither the join nor
// any second-phase work starts.
func TestRunPhasesFailureSkipsJoin(t *testing.T) {
	const n = 3
	errFirst := errors.New("first")
	var joins, seconds atomic.Int32
	failing := func(r int) error {
		if r == 2 {
			return errFirst
		}
		return nil
	}
	join := func() error { joins.Add(1); return nil }
	second := func(r int) error { seconds.Add(1); return nil }
	if err := runPhases(n, failing, join, second); !errors.Is(err, errFirst) {
		t.Fatalf("error %v, want the first phase's", err)
	}
	if joins.Load() != 0 || seconds.Load() != 0 {
		t.Fatalf("a first-phase failure started %d joins and %d second phases", joins.Load(), seconds.Load())
	}
}

// TestRunPhasesWithoutJoin runs the shape without a join: ranks do not
// wait for each other, so a healthy rank runs its second phase although
// another rank's first phase failed.
func TestRunPhasesWithoutJoin(t *testing.T) {
	const n = 3
	errFirst := errors.New("first")
	var seconds atomic.Int32
	failing := func(r int) error {
		if r == 1 {
			return errFirst
		}
		return nil
	}
	second := func(r int) error { seconds.Add(1); return nil }
	if err := runPhases(n, failing, nil, second); !errors.Is(err, errFirst) {
		t.Fatalf("error %v, want the first phase's", err)
	}
	if seconds.Load() != n-1 {
		t.Fatalf("without a join %d healthy ranks ran their second phase, want %d", seconds.Load(), n-1)
	}
}

// TestBestRankTiesToLowerRank pins the MAXLOC fold: the highest thorough
// score wins, and of two equal scores the lower rank's.
func TestBestRankTiesToLowerRank(t *testing.T) {
	for _, tc := range []struct {
		scores []float64
		want   int
	}{
		{[]float64{-5}, 0},
		{[]float64{-5, -3, -3, -4}, 1},
		{[]float64{-2, -3, -2}, 0},
		{[]float64{-9, -8, -7}, 2},
	} {
		ranks := make([]*analysisRank, len(tc.scores))
		for i, s := range tc.scores {
			ranks[i] = &analysisRank{rep: RankReport{ThoroughScore: s}}
		}
		if got := bestRank(ranks); got != tc.want {
			t.Errorf("scores %v: rank %d wins, want %d", tc.scores, got, tc.want)
		}
	}
}
