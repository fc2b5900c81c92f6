package likelihood

import (
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/rng"
	"raxml/internal/tree"
)

// fullInvalidateSide is invalidateSide without its stop at views that
// are stale already: the walk over the whole side of the edge, on a copy
// of the engine's validity flags. It returns how many stale views it
// walked past, each a place where invalidateSide stops.
func fullInvalidateSide(tr *tree.Tree, valid []bool, from, acrossTo int) (stale int) {
	st := [][2]int{{from, acrossTo}}
	for len(st) > 0 {
		node, parent := st[len(st)-1][0], st[len(st)-1][1]
		st = st[:len(st)-1]
		for slot, nb := range tr.Nodes[node].Neighbors {
			if nb < 0 || nb == parent {
				continue
			}
			if !valid[node*3+slot] {
				stale++
			}
			valid[node*3+slot] = false
			st = append(st, [2]int{nb, node})
		}
	}
	return stale
}

// TestInvalidationWalkStopsAtStaleViews drives an engine through random
// lazy-SPR edits — prune, plug back, plug and revert, as search.sprPass
// makes them — and branch-length edits, with evaluations at random edges
// and insertion scans between them that leave some views fresh and
// others stale, and requires the invalidations of every edit to leave
// exactly the validity flags the full walks over the edit's sides leave:
// the walk may stop at a stale view only because everything beyond it is
// stale too. The comparison is per edit, not per call: until an edit's
// last invalidation, the views at the nodes it rewired hold flags of the
// old topology, so one call's walk may stop at one of them, short of
// views the next call marks.
func TestInvalidationWalkStopsAtStaleViews(t *testing.T) {
	r := rng.New(777)
	pat := randomPatterns(t, r, 24, 80)
	tr := tree.Random(pat.Names, r)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	e.LogLikelihood()
	edits, stopped := 0, 0
	var ref []bool
	// invalidate runs one edit's invalidations on the engine and the full
	// walks on ref: InvalidateEdge for a pair of nodes, InvalidateNode for
	// a single one.
	invalidate := func(step int, what string, calls ...[]int) {
		t.Helper()
		ref = append(ref[:0], e.valid...)
		for _, c := range calls {
			if len(c) == 2 {
				stopped += fullInvalidateSide(tr, ref, c[0], c[1]) + fullInvalidateSide(tr, ref, c[1], c[0])
				e.InvalidateEdge(c[0], c[1])
				continue
			}
			v := c[0]
			for slot, nb := range tr.Nodes[v].Neighbors {
				ref[v*3+slot] = false
				if nb >= 0 {
					stopped += fullInvalidateSide(tr, ref, nb, v)
				}
			}
			e.InvalidateNode(v)
		}
		edits++
		for i := range ref {
			if e.valid[i] != ref[i] {
				t.Fatalf("step %d, %s: view (%d, %d) left valid %v, by the full walks %v", step, what, i/3, i%3, e.valid[i], ref[i])
			}
		}
	}
	evaluate := func() {
		edges := tr.Edges()
		for k := r.Intn(3); k >= 0; k-- {
			ed := edges[r.Intn(len(edges))]
			e.EvaluateEdge(ed.A, ed.B)
		}
	}
	for step := 0; step < 400; step++ {
		evaluate()
		edges := tr.Edges()
		ed := edges[r.Intn(len(edges))]
		if r.Intn(3) == 0 {
			tr.SetEdgeLength(ed.A, ed.B, tr.EdgeLength(ed.A, ed.B)*(0.5+r.Float64()))
			invalidate(step, "branch length", []int{ed.A, ed.B})
			continue
		}
		if tr.Nodes[ed.B].IsTip() {
			continue
		}
		p, err := tr.DanglingPrune(ed.A, ed.B)
		if err != nil {
			continue
		}
		invalidate(step, "prune", []int{p.OrigA, p.OrigB}, []int{p.Attach})
		cands := tr.AppendRegraftCandidates(nil, p, 1+r.Intn(6))
		e.EvaluateInsertions(p.Root, p.Attach, cands, nil)
		if r.Intn(3) == 0 {
			tr.PlugBack(p)
			invalidate(step, "plug back", []int{p.Attach})
			continue
		}
		cand := cands[r.Intn(len(cands))]
		if err := tr.Plug(p, cand); err != nil {
			t.Fatal(err)
		}
		invalidate(step, "plug", []int{p.Attach})
		evaluate()
		if r.Intn(2) == 0 {
			continue // accepted
		}
		tr.UnplugKeepDangling(p, cand)
		tr.PlugBack(p)
		invalidate(step, "revert", []int{cand.A, cand.B}, []int{p.Attach})
	}
	if stopped == 0 {
		t.Fatalf("%d edits met no stale view: the test exercised only the full walk", edits)
	}
	t.Logf("%d edits; the full walks passed %d stale views", edits, stopped)
}
