package likelihood

import (
	"math"
	"reflect"
	"testing"

	"raxml/internal/gtr"
	"raxml/internal/msa"
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
		want := 0.0
		for k := e.parts[i].lo; k < e.parts[i].hi; k++ {
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
// plus job metadata must decode to exactly what was encoded, field for
// field, including the optional model block and reset marker. The tree
// has 70 taxa, so the full traversal is a descriptor of 68 entries: one
// frame whose every entry ships whole, wireEntryBytes of it.
func TestWireJobRoundTrip(t *testing.T) {
	r := rng.New(77)
	pat := randomPatterns(t, r, 70, 120)
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
	if len(e.trav) < 64 {
		t.Fatalf("full traversal of %d taxa has %d entries, want at least 64", pat.NumTaxa(), len(e.trav))
	}

	frame := e.EncodeWireJob(threads.JobEvaluate, true, true)
	job, err := decodeWireJob(frame)
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
	if job.NViews != 2 || job.Views != e.jobWire {
		t.Fatalf("views %d %+v, want 2 %+v", job.NViews, job.Views, e.jobWire)
	}
	if len(job.Entries) != len(e.trav) {
		t.Fatalf("%d entries, want %d", len(job.Entries), len(e.trav))
	}
	taxon := func(c travChild) int32 {
		if c.tip {
			return int32(c.taxon)
		}
		return -1
	}
	for i, got := range job.Entries {
		ent := &e.trav[i]
		p := ent.pub
		want := WireEntry{
			Node: int32(p.Node), Slot: int32(p.Slot),
			C1: int32(p.C1), C1Slot: int32(p.C1Slot), C1Tax: taxon(ent.left),
			C2: int32(p.C2), C2Slot: int32(p.C2Slot), C2Tax: taxon(ent.right),
			Len1: p.Len1, Len2: p.Len2,
		}
		if got != want {
			t.Fatalf("entry %d: %+v, want %+v", i, got, want)
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
	job2, err := decodeWireJob(append([]byte(nil), frame2...))
	if err != nil {
		t.Fatal(err)
	}
	if job2.Model != nil || job2.Reset {
		t.Fatal("flagless frame decoded with model/reset present")
	}
	if want := 1 + 1 + 4 + 8 + 1 + 2*wireViewBytes + 4 + len(e.trav)*wireEntryBytes; len(frame2) != want {
		t.Fatalf("flagless frame is %d bytes, want %d (%d whole entries)", len(frame2), want, len(e.trav))
	}

	// Truncations must error, not panic or misread.
	for _, cut := range []int{1, 7, len(frame) / 2, len(frame) - 1} {
		if _, err := decodeWireJob(frame[:cut]); err == nil {
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
	job, err := decodeWireJob(frame)
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
		if _, err := decodeWireJob(frame[:cut]); err == nil {
			t.Fatalf("truncated core frame (%d bytes) decoded without error", cut)
		}
	}

	// The setup frame: 2 views, factors present, and whatever went stale
	// behind the views as its descriptor.
	e.InvalidateAll()
	e.makenewzSetup(a, slotA, b, slotB, 0.25)
	setup := e.EncodeWireJob(threads.JobMakenewzSetup, false, false)
	sj, err := decodeWireJob(setup)
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
	ej, err := decodeWireJob(e.EncodeWireJob(threads.JobEvaluate, false, false))
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
	p := &WirePartial{}
	if err := DecodeWirePartialInto(p, b); err != nil {
		t.Fatal(err)
	}
	if p.Slots != [2]float64{-123.5, 4.25} {
		t.Fatalf("slots %v", p.Slots)
	}
	if len(p.Wide) != 2 || p.Wide[0] != -100 || p.Wide[1] != -23.5 {
		t.Fatalf("wide %v", p.Wide)
	}
	vec := make([]float64, len(p.Vec)/8)
	decodeF64Block(vec, p.Vec)
	if len(vec) != 3 || vec[2] != 3 {
		t.Fatalf("vec %v", vec)
	}
	if err := DecodeWirePartialInto(&WirePartial{}, b[:9]); err == nil {
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
	p := &WirePartial{}
	if err := DecodeWirePartialInto(p, b); err != nil {
		t.Fatal(err)
	}
	if len(p.Vec)/8 != len(rows) {
		t.Fatalf("block of %d values decoded as %d", len(rows), len(p.Vec)/8)
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

// TestWorkerInitRoundTrip pins the init codec over a partitioned
// alignment: the whole pattern set, its partitions and the stripe cross.
func TestWorkerInitRoundTrip(t *testing.T) {
	pat, err := msa.CompressPartitioned(randomAlignment(t, rng.New(5), 6, 300), msa.ContiguousPartitions(300, 3))
	if err != nil {
		t.Fatal(err)
	}
	in := &WorkerInit{Threads: 3, Stripe: threads.Range{Lo: 48, Hi: 176}, Pat: pat, IsCAT: true, NCats: 1}
	out, err := DecodeWorkerInit(EncodeWorkerInit(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Threads != 3 || out.Stripe != in.Stripe || !out.IsCAT || out.NCats != 1 {
		t.Fatalf("header: %+v", out)
	}
	if !reflect.DeepEqual(out.Pat.PartRanges(), pat.PartRanges()) || pat.NumParts() != 3 {
		t.Fatalf("partitions %v crossed as %v", pat.PartRanges(), out.Pat.PartRanges())
	}
	if !reflect.DeepEqual(out.Pat.Names, pat.Names) || !reflect.DeepEqual(out.Pat.Data, pat.Data) || !reflect.DeepEqual(out.Pat.Weights, pat.Weights) {
		t.Fatal("the pattern set did not cross whole")
	}
}

// decodeWireJob decodes a job frame into a fresh WireJob.
func decodeWireJob(buf []byte) (*WireJob, error) {
	j := &WireJob{}
	if err := DecodeWireJobInto(j, buf); err != nil {
		return nil, err
	}
	return j, nil
}
