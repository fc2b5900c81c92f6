package tree

import (
	"strings"
	"testing"
	"testing/quick"

	"raxml/internal/rng"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "t" + itoa(i)
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestRandomTreeValid(t *testing.T) {
	for _, n := range []int{4, 5, 8, 16, 50, 125} {
		tr := Random(names(n), rng.New(int64(n)))
		if err := tr.Validate(); err != nil {
			t.Fatalf("Random(%d taxa): %v", n, err)
		}
		if got := len(tr.Edges()); got != 2*n-3 {
			t.Fatalf("Random(%d taxa): %d edges, want %d", n, got, 2*n-3)
		}
	}
}

func TestRandomTreeReproducible(t *testing.T) {
	a := Random(names(20), rng.New(42))
	b := Random(names(20), rng.New(42))
	d, err := RobinsonFoulds(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("same seed gave different topologies (RF=%d)", d)
	}
}

func TestRandomTreesDiffer(t *testing.T) {
	a := Random(names(20), rng.New(1))
	b := Random(names(20), rng.New(2))
	d, _ := RobinsonFoulds(a, b)
	if d == 0 {
		t.Fatal("different seeds gave identical 20-taxon topologies (suspicious)")
	}
}

func TestCaterpillarAndBalanced(t *testing.T) {
	for _, n := range []int{4, 7, 16, 33} {
		if err := Caterpillar(names(n)).Validate(); err != nil {
			t.Errorf("Caterpillar(%d): %v", n, err)
		}
		if err := Balanced(names(n)).Validate(); err != nil {
			t.Errorf("Balanced(%d): %v", n, err)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := Random(names(10), rng.New(3))
	cl := tr.Clone()
	e := tr.Edges()[0]
	tr.SetEdgeLength(e.A, e.B, 1.234)
	if cl.EdgeLength(e.A, e.B) == 1.234 {
		t.Fatal("clone shares branch lengths with original")
	}
}

func TestNewickRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(30)
		tr := Random(names(n), r)
		s, err := FormatNewick(tr, nil)
		if err != nil {
			return false
		}
		back, err := ParseNewick(s, tr.TaxonNames)
		if err != nil {
			return false
		}
		d, err := RobinsonFoulds(tr, back)
		return err == nil && d == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNewickBranchLengthsPreserved(t *testing.T) {
	tr := Random(names(8), rng.New(5))
	s, _ := FormatNewick(tr, nil)
	back, err := ParseNewick(s, tr.TaxonNames)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tr.TotalLength() - back.TotalLength(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("total length changed across roundtrip: %g vs %g", tr.TotalLength(), back.TotalLength())
	}
}

func TestParseNewickRootedInput(t *testing.T) {
	// Bifurcating root must be silently unrooted.
	s := "((t0:0.1,t1:0.1):0.05,(t2:0.1,t3:0.1):0.05);"
	tr, err := ParseNewick(s, names(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseNewickQuotedNames(t *testing.T) {
	taxa := []string{"odd name", "x(y)", "plain", "d'Arc"}
	tr := Random(taxa, rng.New(1))
	s, err := FormatNewick(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseNewick(s, taxa)
	if err != nil {
		t.Fatalf("quoted-name roundtrip: %v\n%s", err, s)
	}
	if d, _ := RobinsonFoulds(tr, back); d != 0 {
		t.Fatal("quoted-name roundtrip changed topology")
	}
}

func TestParseNewickErrors(t *testing.T) {
	taxa := names(4)
	bad := []string{
		"",
		"t0;",
		"(t0,t1,t2,t3,t4);",           // multifurcation beyond root trifurcation handled? 4 children -> error
		"((t0,t1),(t2,t9));",          // unknown taxon
		"((t0,t1),(t2,t2));",          // duplicate taxon
		"((t0,t1),(t2));",             // degree-1 internal
		"((t0,t1),(t2,t3)); trailing", // trailing garbage
		"((t0,t1),(t2,t3)",            // unbalanced
		"((t0:a,t1),(t2,t3));",        // bad number
		"((t0,t1),(t2,t3),(t0,t1));",  // reuse
	}
	for _, s := range bad {
		if _, err := ParseNewick(s, taxa); err == nil {
			t.Errorf("ParseNewick accepted %q", s)
		}
	}
}

func TestParseNewickMissingTaxon(t *testing.T) {
	if _, err := ParseNewick("((t0,t1),t2,t3);", names(5)); err == nil {
		t.Error("accepted tree missing taxon t4")
	}
}

func TestParseMultiNewick(t *testing.T) {
	taxa := names(6)
	a := Random(taxa, rng.New(1))
	b := Random(taxa, rng.New(2))
	na, _ := FormatNewick(a, nil)
	nb, _ := FormatNewick(b, nil)
	trees, err := ParseMultiNewick(na+"\n\n"+nb+"\n", taxa)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("%d trees parsed, want 2", len(trees))
	}
	if d, _ := RobinsonFoulds(trees[0], a); d != 0 {
		t.Fatal("first tree corrupted")
	}
	if d, _ := RobinsonFoulds(trees[1], b); d != 0 {
		t.Fatal("second tree corrupted")
	}
	if _, err := ParseMultiNewick("", taxa); err == nil {
		t.Error("empty multi-newick accepted")
	}
	if _, err := ParseMultiNewick(na+"\nnot a tree\n", taxa); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestSubtreeTips(t *testing.T) {
	//     t0   t2
	//       \ /
	//  i4 -- i5      built by hand below
	tr := New(names(4))
	i4 := tr.NewInternal()
	i5 := tr.NewInternal()
	tr.Connect(i4, 0, 0.1)
	tr.Connect(i4, 1, 0.1)
	tr.Connect(i5, 2, 0.1)
	tr.Connect(i5, 3, 0.1)
	tr.Connect(i4, i5, 0.2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tips := tr.SubtreeTips(i4, i5)
	if len(tips) != 2 || tips[0] != 0 || tips[1] != 1 {
		t.Fatalf("SubtreeTips = %v, want [0 1]", tips)
	}
	tips = tr.SubtreeTips(i5, i4)
	if len(tips) != 2 || tips[0] != 2 || tips[1] != 3 {
		t.Fatalf("SubtreeTips = %v, want [2 3]", tips)
	}
}

func TestBipartitionCanonical(t *testing.T) {
	// The same split expressed from both sides must be equal.
	a := NewBipartition(6, []int{0, 1, 2})
	b := NewBipartition(6, []int{3, 4, 5})
	if a.Key() != b.Key() {
		t.Fatal("complementary sides should canonicalize to the same key")
	}
	if a.Contains(0) {
		t.Fatal("canonical side must not contain taxon 0")
	}
}

func TestBipartitionTrivial(t *testing.T) {
	if !NewBipartition(6, []int{5}).IsTrivial() {
		t.Error("singleton split should be trivial")
	}
	if !NewBipartition(6, []int{0}).IsTrivial() {
		t.Error("complement-of-singleton split should be trivial")
	}
	if NewBipartition(6, []int{4, 5}).IsTrivial() {
		t.Error("2-vs-4 split should be non-trivial")
	}
}

func TestBipartitionsCount(t *testing.T) {
	prop := func(seed int64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(20)
		tr := Random(names(n), r)
		return len(tr.Bipartitions()) == n-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRobinsonFouldsAxioms(t *testing.T) {
	r := rng.New(77)
	n := 12
	a := Random(names(n), r)
	b := Random(names(n), r)
	c := Random(names(n), r)

	dAA, _ := RobinsonFoulds(a, a)
	if dAA != 0 {
		t.Fatalf("RF(a,a) = %d, want 0", dAA)
	}
	dAB, _ := RobinsonFoulds(a, b)
	dBA, _ := RobinsonFoulds(b, a)
	if dAB != dBA {
		t.Fatalf("RF not symmetric: %d vs %d", dAB, dBA)
	}
	dBC, _ := RobinsonFoulds(b, c)
	dAC, _ := RobinsonFoulds(a, c)
	if dAC > dAB+dBC {
		t.Fatalf("RF violates triangle inequality: %d > %d + %d", dAC, dAB, dBC)
	}
	if dAB > MaxRFDistance(n) {
		t.Fatalf("RF %d exceeds max %d", dAB, MaxRFDistance(n))
	}
}

func TestRobinsonFouldsMismatchedTaxa(t *testing.T) {
	a := Random(names(5), rng.New(1))
	b := Random(names(6), rng.New(1))
	if _, err := RobinsonFoulds(a, b); err == nil {
		t.Error("RF accepted trees over different taxon sets")
	}
}

func TestInsertRemoveTipInverse(t *testing.T) {
	r := rng.New(13)
	tr := Random(names(10), r)
	before, _ := FormatNewick(tr, nil)
	// Remove tip 7 and re-insert on the same edge.
	att := tr.Nodes[7].Neighbors[0]
	var rest []int
	for _, v := range tr.Nodes[att].Neighbors {
		if v >= 0 && v != 7 {
			rest = append(rest, v)
		}
	}
	tr.RemoveTip(7)
	if err := validateIncomplete(tr, 9); err != nil {
		t.Fatalf("after RemoveTip: %v", err)
	}
	e := Edge{rest[0], rest[1]}
	if e.A > e.B {
		e.A, e.B = e.B, e.A
	}
	tr.InsertTipOnEdge(7, e, 0.1)
	if err := tr.Validate(); err != nil {
		t.Fatalf("after re-insert: %v", err)
	}
	after, _ := FormatNewick(tr, nil)
	ta, _ := ParseNewick(before, tr.TaxonNames)
	tb, _ := ParseNewick(after, tr.TaxonNames)
	if d, _ := RobinsonFoulds(ta, tb); d != 0 {
		t.Fatal("remove+insert on same edge changed topology")
	}
}

// validateIncomplete checks tree invariants while some taxa are detached
// (used mid-stepwise-addition).
func validateIncomplete(t *Tree, attachedTips int) error {
	count := 0
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if !n.InUse || !n.IsTip() || n.Degree() == 0 {
			continue
		}
		count++
	}
	if count != attachedTips {
		return errCount{count, attachedTips}
	}
	return nil
}

type errCount [2]int

func (e errCount) Error() string {
	return "attached tips: got " + itoa(e[0]) + ", want " + itoa(e[1])
}

func TestSPRUndo(t *testing.T) {
	prop := func(seed int64) bool {
		r := rng.New(seed)
		n := 6 + r.Intn(20)
		tr := Random(names(n), r)
		orig, _ := FormatNewick(tr, nil)

		// pick a random internal edge's subtree to prune
		edges := tr.Edges()
		var root, attach int
		found := false
		for _, e := range edges {
			if !tr.Nodes[e.B].IsTip() {
				root, attach = e.A, e.B
				found = true
				break
			}
			if !tr.Nodes[e.A].IsTip() {
				root, attach = e.B, e.A
				found = true
				break
			}
		}
		if !found {
			return true
		}
		p, err := tr.DanglingPrune(root, attach)
		if err != nil {
			return true // not all prunes are legal; fine
		}
		cands := tr.AppendRegraftCandidates(nil, p, 3)
		e := cands[r.Intn(len(cands))]
		if err := tr.Plug(p, e); err != nil {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		tr.UnplugKeepDangling(p, e)
		tr.PlugBack(p)
		if err := tr.Validate(); err != nil {
			return false
		}
		back, _ := FormatNewick(tr, nil)
		ta, _ := ParseNewick(orig, tr.TaxonNames)
		tb, _ := ParseNewick(back, tr.TaxonNames)
		d, _ := RobinsonFoulds(ta, tb)
		return d == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRegraftCandidatesRadius(t *testing.T) {
	tr := Caterpillar(names(12))
	// prune tip 0's subtree (its attachment edge is at one end of the chain)
	att := tr.Nodes[0].Neighbors[0]
	p, err := tr.DanglingPrune(0, att)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.PlugBack(p)
	small := tr.AppendRegraftCandidates(nil, p, 1)
	large := tr.AppendRegraftCandidates(nil, p, 8)
	if len(small) >= len(large) {
		t.Fatalf("radius 1 found %d candidates, radius 8 found %d; want strictly more at larger radius",
			len(small), len(large))
	}
	// Every edge but the dangling pendant one is in the main component.
	all := tr.AppendRegraftCandidates(nil, p, 1000)
	if want := len(tr.Edges()) - 1; len(all) != want {
		t.Fatalf("unbounded radius found %d candidates, want all %d edges of the main component", len(all), want)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	tr := Random(names(15), rng.New(8))
	e1 := tr.Edges()
	e2 := tr.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Edges() order not deterministic")
		}
	}
}

func TestScaleBranchLengths(t *testing.T) {
	tr := Random(names(6), rng.New(2))
	before := tr.TotalLength()
	tr.ScaleBranchLengths(2)
	after := tr.TotalLength()
	if after < before*1.9 || after > before*2.1 {
		t.Fatalf("scaling by 2: total length %g -> %g", before, after)
	}
}

func TestSupportAnnotatedNewick(t *testing.T) {
	tr := Random(names(6), rng.New(4))
	sup := map[Edge]int{}
	for e := range tr.Bipartitions() {
		sup[e] = 87
	}
	s, err := FormatNewick(tr, sup)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, ")87:") {
		t.Fatalf("support values missing from Newick output: %s", s)
	}
}

func TestTallySplitsIDsFollowKeyOrder(t *testing.T) {
	trees := []*Tree{Random(names(9), rng.New(1)), Random(names(9), rng.New(2)), Random(names(9), rng.New(1))}
	s, err := TallySplits(trees)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id < len(s.Bips); id++ {
		if s.Bips[id-1].Key() >= s.Bips[id].Key() {
			t.Fatalf("split %d does not follow split %d in key order", id, id-1)
		}
	}
	total := 0
	for i, ids := range s.Trees {
		if len(ids) != 9-3 {
			t.Fatalf("replicate %d keeps %d split ids, want %d", i, len(ids), 9-3)
		}
		for _, id := range ids {
			if _, ok := trees[i].BipartitionSet()[s.Bips[id].Key()]; !ok {
				t.Fatalf("replicate %d lists split %d, which it does not contain", i, id)
			}
		}
		total += len(ids)
	}
	sum := 0
	for _, c := range s.Counts {
		sum += c
	}
	if sum != total {
		t.Fatalf("counts sum to %d, replicates list %d split ids", sum, total)
	}
	if _, err := TallySplits([]*Tree{trees[0], Random(names(8), rng.New(1))}); err == nil {
		t.Fatal("tallied replicates over different taxon sets")
	}
}

func TestComputeSelfSupport(t *testing.T) {
	// Identical replicates → 100% everywhere.
	ref := Random(names(10), rng.New(1))
	v, err := Support(ref, []*Tree{ref.Clone(), ref.Clone(), ref.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 10-3 {
		t.Fatalf("%d supported edges, want %d", len(v), 10-3)
	}
	for e, pct := range v {
		if pct != 100 {
			t.Fatalf("edge %v: support %d%%, want 100%%", e, pct)
		}
	}
}

func TestComputeZeroSupportForForeignSplits(t *testing.T) {
	// A split no replicate contains scores 0.
	ref := Caterpillar(names(8))
	reps := []*Tree{Random(names(8), rng.New(101)), Random(names(8), rng.New(202))}
	v, err := Support(ref, reps)
	if err != nil {
		t.Fatal(err)
	}
	for e, bp := range ref.Bipartitions() {
		found := false
		for _, r := range reps {
			_, ok := r.BipartitionSet()[bp.Key()]
			found = found || ok
		}
		if !found && v[e] != 0 {
			t.Fatalf("edge %v: support %d%% for a split no replicate has", e, v[e])
		}
	}
}

func TestComputeFractional(t *testing.T) {
	// Half matching, half not: support in [50, 100], rounded half up.
	ref := Random(names(6), rng.New(3))
	reps := []*Tree{ref.Clone(), ref.Clone(), Random(names(6), rng.New(999)), Random(names(6), rng.New(998))}
	v, err := Support(ref, reps)
	if err != nil {
		t.Fatal(err)
	}
	for _, pct := range v {
		if pct < 50 || pct > 100 {
			t.Fatalf("support %d%% outside [50,100] when half the replicates match", pct)
		}
	}
	one, err := Support(ref, []*Tree{ref.Clone(), ref.Clone(), Caterpillar(names(6))})
	if err != nil {
		t.Fatal(err)
	}
	for _, pct := range one {
		if pct != 67 && pct != 100 {
			t.Fatalf("support %d%% over 3 replicates, want 67 or 100", pct)
		}
	}
}

func TestAnnotate(t *testing.T) {
	ref := Random(names(6), rng.New(6))
	v, err := Support(ref, []*Tree{ref.Clone(), ref.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FormatNewick(ref, v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, ")100:") {
		t.Fatalf("annotation missing from %s", s)
	}
}

func BenchmarkNewickRoundTrip(b *testing.B) {
	tr := Random(names(218), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := FormatNewick(tr, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseNewick(s, tr.TaxonNames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipartitions(b *testing.B) {
	tr := Random(names(218), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Bipartitions()
	}
}
