package threads

import (
	"testing"
)

// TestWideSlots covers the variable-width reduction storage behind
// one-dispatch per-partition evaluate reductions: per-worker rows,
// deterministic worker-order sums, growth, and row isolation.
func TestWideSlots(t *testing.T) {
	p := NewPool(4, 64)
	defer p.Close()
	p.EnsureWide(3)
	if p.wideWidth != 3 {
		t.Fatalf("wide width = %d, want 3", p.wideWidth)
	}
	p.ParallelFor(func(w int, r Range) {
		ws := p.WideSlot(w)
		for i := range ws {
			ws[i] = float64((w + 1) * (i + 1))
		}
	})
	for i := 0; i < 3; i++ {
		want := 0.0
		for w := 0; w < p.Workers(); w++ {
			want += float64((w + 1) * (i + 1))
		}
		if got := p.SumWide(i); got != want {
			t.Fatalf("SumWide(%d) = %g, want %g", i, got, want)
		}
	}
	// Growing reallocates; shrinking requests are no-ops.
	p.EnsureWide(2)
	if p.wideWidth != 3 {
		t.Fatalf("EnsureWide(2) shrank width to %d", p.wideWidth)
	}
	p.EnsureWide(10)
	if p.wideWidth != 10 {
		t.Fatalf("EnsureWide(10) gave width %d", p.wideWidth)
	}
	p.ParallelFor(func(w int, r Range) {
		ws := p.WideSlot(w)
		if len(ws) != 10 {
			t.Errorf("worker %d wide row has %d entries, want 10", w, len(ws))
		}
		for i := range ws {
			ws[i] = 1
		}
	})
	if got := p.SumWide(9); got != float64(p.Workers()) {
		t.Fatalf("SumWide(9) = %g, want %d", got, p.Workers())
	}
}

// TestNewPoolStripe covers the stripe-bounded constructor used by the
// distributed pool's local crews: global indices, full coverage of
// [lo, hi), nothing outside it.
func TestNewPoolStripe(t *testing.T) {
	p := NewPoolStripeEven(3, 40, 90)
	defer p.Close()
	ranges := p.Ranges()
	if lo := ranges[0].Lo; lo != 40 {
		t.Fatalf("first range starts at %d, want 40", lo)
	}
	if hi := ranges[len(ranges)-1].Hi; hi != 90 {
		t.Fatalf("last range ends at %d, want 90", hi)
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo != ranges[i-1].Hi {
			t.Fatalf("ranges not contiguous: %v", ranges)
		}
	}
	// Jobs must cover exactly the stripe.
	covered := make([]bool, 100)
	p.ParallelFor(func(w int, r Range) {
		for k := r.Lo; k < r.Hi; k++ {
			covered[k] = true
		}
	})
	for k, c := range covered {
		if inStripe := k >= 40 && k < 90; c != inStripe {
			t.Fatalf("pattern %d covered=%v, want %v", k, c, inStripe)
		}
	}
	// Workers clamp to the stripe width, not the full axis.
	narrow := NewPoolStripeEven(64, 10, 14)
	defer narrow.Close()
	if narrow.Workers() != 4 {
		t.Fatalf("narrow stripe pool has %d workers, want 4", narrow.Workers())
	}
}

// TestNewPoolStripeEven: the by-count stripe constructor cuts [lo, hi)
// exactly as NewPool cuts [0, hi−lo), shifted to global indices, and
// clamps its workers to the stripe width.
func TestNewPoolStripeEven(t *testing.T) {
	for _, tc := range []struct{ workers, lo, hi int }{{3, 40, 90}, {2, 7, 8}, {64, 10, 14}, {4, 0, 101}} {
		p := NewPoolStripeEven(tc.workers, tc.lo, tc.hi)
		ref := NewPool(tc.workers, tc.hi-tc.lo)
		if p.Workers() != ref.Workers() {
			t.Fatalf("%+v: %d workers, NewPool has %d", tc, p.Workers(), ref.Workers())
		}
		for i, r := range ref.Ranges() {
			if got := p.Ranges()[i]; got != (Range{r.Lo + tc.lo, r.Hi + tc.lo}) {
				t.Fatalf("%+v: range %d is %v, NewPool's shifted is [%d, %d)", tc, i, got, r.Lo+tc.lo, r.Hi+tc.lo)
			}
		}
		p.Close()
		ref.Close()
	}
}

// TestAlignBoundariesStandalone pins the exported boundary snapping
// against the Pool method it was extracted from.
func TestAlignBoundariesStandalone(t *testing.T) {
	standalone := SplitEven(330, 4)
	AlignBoundaries(standalone, 16, nil)

	p := NewPool(4, 330)
	defer p.Close()
	p.AlignRangesAt(16, nil)
	viaPool := p.Ranges()

	for i := range standalone {
		if standalone[i] != viaPool[i] {
			t.Fatalf("range %d: standalone %v vs pool %v", i, standalone[i], viaPool[i])
		}
	}
	for i := 0; i < len(standalone)-1; i++ {
		if standalone[i].Hi%16 != 0 {
			t.Fatalf("boundary %d at %d not snapped", i, standalone[i].Hi)
		}
	}
}
