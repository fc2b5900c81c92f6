package likelihood

import (
	"math"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/rng"
	"raxml/internal/threads"
	"raxml/internal/tree"
)

// TestPartitionLogLikelihoodsOneDispatch is the regression test for the
// widened (per-partition) evaluate reduction: the per-partition
// components must come back from a single JobEvaluate dispatch — no
// follow-up site-likelihood pass — and agree with the weighted
// site-log-likelihood sums they replaced.
func TestPartitionLogLikelihoodsOneDispatch(t *testing.T) {
	r := rng.New(321)
	pat := randomPatterns(t, r, 10, 240)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 3)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}

	// Stale tree: the one dispatch covers refresh + evaluate + split.
	d0 := e.DispatchCount()
	comps := e.PartitionLogLikelihoods(nil)
	if d := e.DispatchCount() - d0; d != 1 {
		t.Fatalf("PartitionLogLikelihoods on a stale tree cost %d dispatches, want 1", d)
	}

	// Cross-check against the site-log-likelihood definition.
	site := e.SiteLogLikelihoods(nil)
	for i := 0; i < e.NumPartitions(); i++ {
		pr := e.PartitionRange(i)
		want := 0.0
		for k := pr.Lo; k < pr.Hi; k++ {
			want += float64(e.Weights()[k]) * site[k]
		}
		if math.Abs(comps[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("partition %d: wide-slot component %.12f vs site-LL sum %.12f", i, comps[i], want)
		}
	}

	// The components sum to the total.
	total := e.LogLikelihood()
	sum := 0.0
	for _, c := range comps {
		sum += c
	}
	if math.Abs(sum-total) > 1e-9*math.Abs(total) {
		t.Fatalf("component sum %.12f vs LogLikelihood %.12f", sum, total)
	}
}

// TestWireJobRoundTrip pins the job-frame codec: a prepared descriptor
// plus job metadata must decode to exactly what was encoded, including
// the optional model block and reset marker.
func TestWireJobRoundTrip(t *testing.T) {
	r := rng.New(77)
	pat := randomPatterns(t, r, 8, 120)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}

	// Build a real evaluate job (stale tree: non-empty descriptor).
	a := 0
	b := e.tree.Nodes[0].Neighbors[0]
	slotA := e.slotOf(a, b)
	slotB := e.slotOf(b, a)
	e.beginTraversal()
	e.queueTraversal(a, slotA)
	e.queueTraversal(b, slotB)
	e.prepareTraversal()
	e.travLo, e.travHi = 0, len(e.trav)
	e.setEdgeJob(a, slotA, b, slotB, 0.125)

	frame := e.EncodeWireJob(threads.JobEvaluate, true, true)
	job, err := DecodeWireJob(frame)
	if err != nil {
		t.Fatal(err)
	}
	if job.Code != threads.JobEvaluate || !job.Reset || job.Model == nil {
		t.Fatalf("header mismatch: code %d reset %v model %v", job.Code, job.Reset, job.Model != nil)
	}
	if job.MaxNode != tr.MaxNodeID() {
		t.Fatalf("MaxNode %d, want %d", job.MaxNode, tr.MaxNodeID())
	}
	if job.T != 0.125 {
		t.Fatalf("branch length %g, want 0.125", job.T)
	}
	if job.NViews != 2 {
		t.Fatalf("NViews %d, want 2", job.NViews)
	}
	if len(job.Entries) != len(e.trav) {
		t.Fatalf("%d entries, want %d", len(job.Entries), len(e.trav))
	}
	for i, we := range job.Entries {
		pub := e.trav[i].pub
		if int(we.Node) != pub.Node || int(we.Slot) != pub.Slot ||
			int(we.C1) != pub.C1 || int(we.C2) != pub.C2 ||
			we.Len1 != pub.Len1 || we.Len2 != pub.Len2 {
			t.Fatalf("entry %d: %+v vs %+v", i, we, pub)
		}
		if (we.C1Tax >= 0) != e.trav[i].left.tip || (we.C2Tax >= 0) != e.trav[i].right.tip {
			t.Fatalf("entry %d tip flags mismatch", i)
		}
	}
	m := job.Model
	if len(m.Weights) != pat.NumPatterns() {
		t.Fatalf("model block ships %d weights, want %d", len(m.Weights), pat.NumPatterns())
	}
	if !m.IsCAT || len(m.Parts) != 1 {
		t.Fatalf("model block: IsCAT %v parts %d", m.IsCAT, len(m.Parts))
	}
	if m.Parts[0].Rates != e.Model().Rates || m.Parts[0].Freqs != e.Model().Freqs {
		t.Fatal("model block parameters differ from engine model")
	}

	// Without the flags, neither block is present.
	frame2 := e.EncodeWireJob(threads.JobEvaluate, false, false)
	job2, err := DecodeWireJob(append([]byte(nil), frame2...))
	if err != nil {
		t.Fatal(err)
	}
	if job2.Model != nil || job2.Reset {
		t.Fatal("flagless frame decoded with model/reset present")
	}

	// Truncations must error, not panic or misread.
	for _, cut := range []int{1, 7, len(frame) / 2, len(frame) - 1} {
		if _, err := DecodeWireJob(frame[:cut]); err == nil {
			t.Fatalf("truncated frame (%d bytes) decoded without error", cut)
		}
	}
}

// TestWireMakenewzCoreRoundTrip pins the two makenewz frames. The
// JobMakenewzCore frame's per-iteration factor block must round-trip
// exactly and carry no views and no descriptor entries; the
// JobMakenewzSetup frame carries the two endpoint views, the same
// factor block (its job ends with the core reduction) and the refresh
// descriptor; no other job code carries factors. It also bounds the
// core frame's size — the whole point of the sumtable scheme is that a
// Newton iteration ships ~12·Σcats float64, not P matrices or a model
// block.
func TestWireMakenewzCoreRoundTrip(t *testing.T) {
	r := rng.New(88)
	pat := randomPatterns(t, r, 8, 150)
	gam, err := gtr.NewGamma(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, pat, gtr.Default(), gam, 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}
	a := 0
	b := tr.Nodes[0].Neighbors[0]
	slotA := e.slotOf(a, b)
	slotB := e.slotOf(b, a)
	e.makenewzSetup(a, slotA, b, slotB, 0.25)
	e.makenewzCore(0.25)

	frame := e.EncodeWireJob(threads.JobMakenewzCore, false, false)
	if len(frame) > 512 {
		t.Fatalf("core frame is %d bytes; a per-iteration frame must stay matrix- and model-free", len(frame))
	}
	job, err := DecodeWireJob(frame)
	if err != nil {
		t.Fatal(err)
	}
	if job.Code != threads.JobMakenewzCore || job.NViews != 0 || len(job.Entries) != 0 || job.Model != nil {
		t.Fatalf("core frame decoded: code %d, %d views, %d entries, model %v",
			job.Code, job.NViews, len(job.Entries), job.Model != nil)
	}
	f := job.Factors
	if f == nil || len(f.Cats) != 1 || f.Cats[0] != 4 {
		t.Fatalf("factor block: %+v", f)
	}
	for i := 0; i < 16; i++ {
		if f.Exp[i] != e.mkzExp[i] || f.D1[i] != e.mkzD1[i] || f.D2[i] != e.mkzD2[i] {
			t.Fatalf("factor %d mismatch: (%g,%g,%g) vs (%g,%g,%g)",
				i, f.Exp[i], f.D1[i], f.D2[i], e.mkzExp[i], e.mkzD1[i], e.mkzD2[i])
		}
	}
	for _, cut := range []int{3, len(frame) / 2, len(frame) - 1} {
		if _, err := DecodeWireJob(frame[:cut]); err == nil {
			t.Fatalf("truncated core frame (%d bytes) decoded without error", cut)
		}
	}

	// The setup frame: 2 views, factors present, and whatever went stale
	// behind the views as its descriptor.
	e.InvalidateAll()
	e.makenewzSetup(a, slotA, b, slotB, 0.25)
	setup := e.EncodeWireJob(threads.JobMakenewzSetup, false, false)
	sj, err := DecodeWireJob(setup)
	if err != nil {
		t.Fatal(err)
	}
	if sj.NViews != 2 || sj.T != 0.25 || len(sj.Entries) != len(e.trav) || len(sj.Entries) == 0 {
		t.Fatalf("setup frame: %d views, t=%g, %d entries for a %d-entry descriptor",
			sj.NViews, sj.T, len(sj.Entries), len(e.trav))
	}
	sf := sj.Factors
	if sf == nil || len(sf.Cats) != 1 || sf.Cats[0] != 4 {
		t.Fatalf("setup frame factor block: %+v", sf)
	}
	for i := 0; i < 16; i++ {
		if sf.Exp[i] != f.Exp[i] || sf.D1[i] != f.D1[i] || sf.D2[i] != f.D2[i] {
			t.Fatalf("setup factor %d differs from the core frame's at the same length", i)
		}
	}

	// No other job code carries a factor block.
	e.setEdgeJob(a, slotA, b, slotB, 0.25)
	ej, err := DecodeWireJob(e.EncodeWireJob(threads.JobEvaluate, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if ej.Factors != nil {
		t.Fatal("evaluate frame decoded with a factor block")
	}
}

// TestWirePartialRoundTrip pins the partial codec.
func TestWirePartialRoundTrip(t *testing.T) {
	var b []byte
	b = appendF64(b, -123.5)
	b = appendF64(b, 4.25)
	b = appendU32(b, 2)
	b = appendF64(b, -100)
	b = appendF64(b, -23.5)
	b = appendF64s(b, []float64{1, 2, 3})
	p, err := DecodeWirePartial(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots != [2]float64{-123.5, 4.25} {
		t.Fatalf("slots %v", p.Slots)
	}
	if len(p.Wide) != 2 || p.Wide[0] != -100 || p.Wide[1] != -23.5 {
		t.Fatalf("wide %v", p.Wide)
	}
	vec := make([]float64, p.VecLen())
	decodeF64Block(vec, p.Vec)
	if len(vec) != 3 || vec[2] != 3 {
		t.Fatalf("vec %v", vec)
	}
	if _, err := DecodeWirePartial(b[:9]); err == nil {
		t.Fatal("truncated partial decoded without error")
	}
}

// TestWireRowsCrossBitExact: the bulk float codec moves bit patterns,
// not values — NaN payloads, signed zeros, infinities and subnormals
// all arrive as they left, through a partial's per-pattern block and
// through the counted-slice form.
func TestWireRowsCrossBitExact(t *testing.T) {
	bits := []uint64{
		0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // quiet, negative, signalling NaN
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x8000000000000000, 0, 1, 0x000fffffffffffff, // -0, +0, subnormals
		math.Float64bits(-1234.5e-300), math.Float64bits(math.MaxFloat64),
	}
	rows := make([]float64, len(bits))
	for i, b := range bits {
		rows[i] = math.Float64frombits(b)
	}
	var b []byte
	b = appendF64(b, 0)
	b = appendF64(b, 0)
	b = appendU32(b, 0)
	b = appendF64s(b, rows)
	p, err := DecodeWirePartial(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.VecLen() != len(rows) {
		t.Fatalf("block of %d values decoded as %d", len(rows), p.VecLen())
	}
	got := make([]float64, len(rows))
	decodeF64Block(got, p.Vec)
	r := &wireReader{b: appendF64s(nil, rows)}
	counted := r.f64s()
	if r.err != nil || len(counted) != len(rows) {
		t.Fatalf("counted slice: %d values, err %v", len(counted), r.err)
	}
	for i, want := range bits {
		if g := math.Float64bits(got[i]); g != want {
			t.Errorf("block value %d: %016x crossed as %016x", i, want, g)
		}
		if g := math.Float64bits(counted[i]); g != want {
			t.Errorf("counted value %d: %016x crossed as %016x", i, want, g)
		}
	}
}

// TestWorkerInitRoundTrip pins the init codec over a partitioned slice.
func TestWorkerInitRoundTrip(t *testing.T) {
	r := rng.New(5)
	pat := randomPatterns(t, r, 6, 200)
	sp, partIndex, clipOff := pat.Slice(48, 176)
	in := &WorkerInit{
		Rank: 2, Ranks: 4, Threads: 3,
		Geom: WorkerGeom{
			StripeLo: 48, StripeHi: 176, MasterParts: pat.NumParts(),
			PartMap: partIndex, ClipOff: clipOff,
		},
		Pat: sp, IsCAT: true, NCats: 1,
	}
	out, err := DecodeWorkerInit(EncodeWorkerInit(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rank != 2 || out.Ranks != 4 || out.Threads != 3 {
		t.Fatalf("header: %+v", out)
	}
	if out.Geom.StripeLo != 48 || out.Geom.StripeHi != 176 {
		t.Fatalf("stripe: %+v", out.Geom)
	}
	if out.Pat.NumTaxa() != pat.NumTaxa() || out.Pat.NumPatterns() != 128 {
		t.Fatalf("stripe patterns: %d taxa, %d patterns", out.Pat.NumTaxa(), out.Pat.NumPatterns())
	}
	for i := range out.Pat.Data {
		for k, s := range out.Pat.Data[i] {
			if s != pat.Data[i][48+k] {
				t.Fatalf("taxon %d pattern %d: %v vs %v", i, k, s, pat.Data[i][48+k])
			}
		}
	}
	for k, w := range out.Pat.Weights {
		if w != pat.Weights[48+k] {
			t.Fatalf("weight %d: %d vs %d", k, w, pat.Weights[48+k])
		}
	}
}

// TestWireJobDeltaRefs pins the delta-descriptor codec: re-encoding an
// unchanged descriptor replaces every 49-byte full entry with a 9-byte
// (node, slot) ref against the master's ship cache, the refs decode
// with the Ref flag set and the right identity, and a reset (or model)
// flag clears the cache so the next frame ships full entries again.
func TestWireJobDeltaRefs(t *testing.T) {
	r := rng.New(78)
	pat := randomPatterns(t, r, 8, 120)
	e := newEngine(t, pat, gtr.Default(), gtr.NewUniform(pat.NumPatterns()), 1)
	tr := tree.Random(pat.Names, r)
	if err := e.AttachTree(tr); err != nil {
		t.Fatal(err)
	}

	plan := func() {
		a := 0
		b := e.tree.Nodes[0].Neighbors[0]
		e.beginTraversal()
		e.queueTraversal(a, e.slotOf(a, b))
		e.queueTraversal(b, e.slotOf(b, a))
		e.prepareTraversal()
		e.travLo, e.travHi = 0, len(e.trav)
	}

	plan()
	n := len(e.trav)
	if n == 0 {
		t.Fatal("stale tree produced an empty descriptor")
	}
	full := append([]byte(nil), e.EncodeWireJob(threads.JobNewview, false, true)...)

	// Same plan again: every entry is unchanged, so the frame must
	// shrink by the full-vs-ref per-entry difference exactly.
	e.InvalidateAll() // marks every view stale; flags below keep the ship cache warm
	plan()
	if len(e.trav) != n {
		t.Fatalf("replanned descriptor has %d entries, want %d", len(e.trav), n)
	}
	delta := append([]byte(nil), e.EncodeWireJob(threads.JobNewview, false, false)...)
	if want := len(full) - n*40; len(delta) != want {
		t.Fatalf("delta frame is %d bytes, want %d (%d entries at 9 instead of 49 bytes)",
			len(delta), want, n)
	}
	job, err := DecodeWireJob(delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Entries) != n {
		t.Fatalf("delta frame decoded %d entries, want %d", len(job.Entries), n)
	}
	fullJob, err := DecodeWireJob(full)
	if err != nil {
		t.Fatal(err)
	}
	for i, we := range job.Entries {
		if !we.Ref {
			t.Fatalf("entry %d decoded as full, want ref", i)
		}
		if we.Node != fullJob.Entries[i].Node || we.Slot != fullJob.Entries[i].Slot {
			t.Fatalf("ref %d is (%d,%d), full shipped (%d,%d)",
				i, we.Node, we.Slot, fullJob.Entries[i].Node, fullJob.Entries[i].Slot)
		}
	}

	// A reset flag clears the ship cache: the same entries go full again.
	e.InvalidateAll()
	plan()
	again := e.EncodeWireJob(threads.JobNewview, false, true)
	if len(again) != len(full) {
		t.Fatalf("post-reset frame is %d bytes, want %d (refs must not survive a reset)",
			len(again), len(full))
	}
	againJob, err := DecodeWireJob(again)
	if err != nil {
		t.Fatal(err)
	}
	for i, we := range againJob.Entries {
		if we.Ref {
			t.Fatalf("entry %d still shipped as ref after reset", i)
		}
	}
}
