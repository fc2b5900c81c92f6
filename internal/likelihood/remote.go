package likelihood

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"raxml/internal/gtr"
	"raxml/internal/msa"
	"raxml/internal/threads"
)

// This file is the wire half of the distributed (finegrain) dispatcher:
// the compact binary codec for traversal-descriptor jobs and the
// worker-mode execution path that replays them on a remote rank's
// engine. It reproduces RAxML's _FINE_GRAIN_MPI design
// (genericParallelization.c): the master plans exactly as for threads —
// one traversal descriptor, one job code — and the remote workers are
// just more crew members. A worker rank builds the master's engine —
// the whole alignment, every partition in the master's numbering —
// over a crew that covers its stripe only, so every index on the wire
// means the same on both sides and only the stripe's patterns are ever
// laid out in its arena.
//
// What goes on the wire is deliberately *symbolic*, not resolved:
// descriptor entries carry (node, slot) directed-edge ids, tip taxa and
// branch lengths — never arena offsets, P matrices or lookup tables.
// Arena offsets differ per rank (each rank's CLV arena covers only its
// stripe, with its own tile size and binding order), and matrices/LUTs
// are cheap to rebuild but expensive to ship: one GAMMA entry's
// matrices alone are 2·4·16 float64 = 1 KiB, versus 48 bytes for the
// symbolic entry. Every rank therefore rebuilds P matrices and tip
// lookup tables locally from shipped model parameters + branch lengths,
// which keeps a job frame at ~50 bytes per descriptor entry and makes
// the broadcast cost topology-bound, not pattern-bound.
//
// Model state (GTR parameters, rate treatments, pattern weights) ships
// only when the engine's model epoch has moved since the dispatcher's
// last broadcast — branch-length-only iterations (the Newton hot loop)
// ship nothing but the branch length, the factor block and the empty
// descriptor.

// ErrWireDesync marks an ExecWireJob failure that only a mangled or
// desynchronized stream can cause: a frame that decoded, yet names state
// the master's own engine would have refused (a rate category outside
// the shipped category rates, a node, slot, taxon or view count outside
// the init frame's taxa and the job code). A worker treats it like a
// frame that did not decode — it closes its link and dies, so the master
// sees a dead rank and restripes — where a plain error is the job's own
// failure and is reported back as such.
var ErrWireDesync = errors.New("likelihood: wire stream desynchronized")

// WireView is the symbolic form of one job view (an endpoint of the
// edge being evaluated, or one corner of an insertion scan): a tip
// taxon, or an internal directed CLV named by (node, slot).
type WireView struct {
	Tip        bool
	Taxon      int32
	Node, Slot int32
}

// WireCand is one candidate of an insertion-scan frame: the two
// endpoint views of the insertion edge and its length.
type WireCand struct {
	X, Y WireView
	T    float64
}

// Encoded sizes: a view is a flag byte and three int32, a scan
// candidate two views and its f64 edge length.
const (
	wireViewBytes = 1 + 3*4
	wireCandBytes = 2*wireViewBytes + 8
)

// WireEntry is one traversal-descriptor entry with tip children
// resolved to taxa: compute directed CLV (Node, Slot) from children
// (C1, C1Slot) and (C2, C2Slot) across branches Len1/Len2. A
// non-negative CxTaxon marks a tip child (the remote rank has no tree
// to look it up in). Every entry ships whole, wireEntryBytes of it.
type WireEntry struct {
	Node, Slot        int32
	C1, C1Slot, C1Tax int32
	C2, C2Slot, C2Tax int32
	Len1, Len2        float64
}

// wireEntryBytes is the encoded size of a WireEntry: eight int32 and two
// f64.
const wireEntryBytes = 8*4 + 2*8

// WireModel is the model-sync block: full per-partition model state
// plus the active pattern weights over the whole pattern axis. It is
// rank-independent — the same block is broadcast to every rank, and each
// rank installs it whole — so a model change still costs exactly one
// broadcast.
type WireModel struct {
	Weights []int // the whole pattern axis
	IsCAT   bool
	Parts   []WireModelPart
}

// WireModelPart is one partition's model state.
type WireModelPart struct {
	Rates [6]float64
	Freqs [4]float64
	// CatRates/CatAssign are the CAT treatment (assignments indexed
	// partition-locally over the whole partition);
	// GammaRates/GammaProbs the GAMMA treatment.
	CatRates, GammaRates, GammaProbs []float64
	CatAssign                        []int
}

// WireJob is one decoded job frame: the code's views, payload (Cands or
// Factors) and branch length T, as jobTable has them.
type WireJob struct {
	Code    threads.JobCode
	MaxNode int
	Reset   bool
	// Gather asks the rank to answer a JobMakenewzSetup with its stripe's
	// sumtable rows (jobFlagGather): the master then evaluates every
	// derivative of the branch itself.
	Gather  bool
	Model   *WireModel
	T       float64
	NViews  int
	Views   [2]WireView
	Cands   []WireCand
	Factors *WireFactors
	Entries []WireEntry
}

// WireFactors is the makenewz codes' payload (the setup job ends with
// the core reduction at the starting length): per partition, the
// matrix-category count and the three eigen exponential factor blocks
// (4 float64 per category each, for the likelihood and the first- and
// second-derivative weights — gtr.Model.ExpEigen's output). This is the
// *whole* per-Newton-iteration wire payload of the distributed core
// job: ~100 bytes per 4-category partition, no P matrices, no model
// block. Every rank computes its sumtable stripe from its own CLVs
// during JobMakenewzSetup; whether the stripe then stays there (and
// each Newton iteration ships one of these blocks) or rides home once
// on the setup partial (and no core frame is ever sent) is the
// dispatcher's choice — see Engine.makenewzDerivatives. A worker rank
// copies the blocks into its factor scratch (applyWireFactors): its
// partitions and their matrix offsets are the master's.
type WireFactors struct {
	Cats        []int     // per partition matrix-category count
	Exp, D1, D2 []float64 // concatenated blocks, 4·Cats[i] each, partition order
}

// WirePartial is one rank's decoded reduction partial: the two fixed
// reduction slots, then the wide components and the per-pattern block in
// the job code's shape (partialShape).
//
// Vec stays in wire form (little-endian float64) and ALIASES the frame
// it was decoded from: the master decodes it exactly once, straight into
// its destination (AbsorbRemoteVec), so it is valid only until that
// frame's buffer is recycled.
type WirePartial struct {
	Slots [2]float64
	Wide  []float64
	Vec   []byte
}

// WireMaster is what a distributed Dispatcher requires of its runner:
// the planning engine must encode the job in flight (EncodeWireJob),
// complete its deferred P-fill once the frame has left (FillTravChunk)
// and absorb remote partials. *Engine implements it.
type WireMaster interface {
	threads.JobRunner
	EncodeWireJob(code threads.JobCode, includeModel, reset bool) []byte
	FillTravChunk()
	WireEpochs() (model, topo uint64)
	// WirePartialLen returns how many wide components and how many
	// per-pattern float64 the partial of the rank owning `stripe` must
	// carry for the job in flight; the dispatcher treats any other count
	// as a desynchronized stream.
	WirePartialLen(code threads.JobCode, stripe threads.Range) (wide, vec int)
	// AbsorbRemoteVec lands a rank's per-pattern block (wire form) at its
	// stripe's place in the job's destination.
	AbsorbRemoteVec(code threads.JobCode, stripeLo int, vec []byte)
}

// WirePartialLen implements WireMaster from the code's partial shape:
// one wide component per partition or per scan candidate; one
// log-likelihood per pattern of the stripe, or one sumtable row per live
// pattern of it when the master gathers the rows. The rank's tile axis is
// the stripe's live patterns under the same weights, so the master's tile
// map counts them.
func (e *Engine) WirePartialLen(code threads.JobCode, stripe threads.Range) (wide, vec int) {
	switch jobTable[code].partial {
	case partialParts:
		return len(e.parts), 0
	case partialCands:
		return len(e.scanCands), 0
	case partialSites:
		return 0, stripe.Len()
	case partialRows:
		if e.gatherSumtable {
			lo, hi := e.tileSpan(stripe)
			return 0, (hi - lo) * e.nCat * 4
		}
	}
	return 0, 0
}

// WireEpochs returns the engine's model and topology epochs; a
// distributed dispatcher ships a model block (respectively a tile
// reset) when they moved since its last broadcast.
func (e *Engine) WireEpochs() (model, topo uint64) { return e.modelEpoch, e.topoEpoch }

// ModelBlocksEncoded returns how many job frames this (master) engine
// has encoded with a model-sync block — the wire cost of model
// mutations, which topology edits must not add to.
func (e *Engine) ModelBlocksEncoded() int64 { return e.modelBlocks }

// wireViewOf builds the symbolic form of the view (node, slot).
func (e *Engine) wireViewOf(node, slot int) WireView {
	n := &e.tree.Nodes[node]
	if n.IsTip() {
		return WireView{Tip: true, Taxon: int32(n.Taxon)}
	}
	return WireView{Node: int32(node), Slot: int32(slot)}
}

// ---------------------------------------------------------------------
// Byte-level helpers (little-endian, length-prefixed slices)
// ---------------------------------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendF64s(b []byte, vs []float64) []byte {
	return appendF64Block(appendU32(b, uint32(len(vs))), vs)
}

// appendF64Block appends vs in wire form with no count: the buffer grows
// once and the values are stored in place, which is what lets a 25 KB
// sumtable stripe cost about what the wire charges for it.
func appendF64Block(b []byte, vs []float64) []byte {
	off := len(b)
	b = slices.Grow(b, 8*len(vs))[:off+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[off+8*i:off+8*i+8], math.Float64bits(v))
	}
	return b
}

// decodeF64Block fills dst from the first 8·len(dst) bytes of raw.
func decodeF64Block(dst []float64, raw []byte) {
	raw = raw[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i : 8*i+8]))
	}
}

func appendInts(b []byte, vs []int) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI32(b, int32(v))
	}
	return b
}

func appendView(b []byte, v WireView) []byte {
	b = appendBool(b, v.Tip)
	b = appendI32(b, v.Taxon)
	b = appendI32(b, v.Node)
	return appendI32(b, v.Slot)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// wireReader consumes a frame; the first malformed read poisons it and
// every subsequent read returns zeros, so decoders check Err once.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("likelihood: truncated wire frame at offset %d of %d", r.off, len(r.b))
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) bool() bool { return r.u8() != 0 }

func (r *wireReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) i32() int32 { return int32(r.u32()) }

func (r *wireReader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *wireReader) view() WireView {
	return WireView{Tip: r.bool(), Taxon: r.i32(), Node: r.i32(), Slot: r.i32()}
}

func (r *wireReader) f64s() []float64 {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > (len(r.b)-r.off)/8 {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	r.f64Block(out)
	return out
}

// f64Block fills dst from the next 8·len(dst) bytes.
func (r *wireReader) f64Block(dst []float64) {
	raw := r.bytes(8 * len(dst))
	if raw != nil {
		decodeF64Block(dst, raw)
	}
}

// bytes returns the next n bytes of the frame without copying them.
func (r *wireReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	raw := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return raw
}

func (r *wireReader) ints() []int {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > (len(r.b)-r.off)/4 {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.i32())
	}
	return out
}

func (r *wireReader) string() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// ---------------------------------------------------------------------
// Job frames (master encode, worker decode + execute)
// ---------------------------------------------------------------------

const (
	jobFlagModel byte = 1 << iota
	jobFlagReset
	// jobFlagGather rides a JobMakenewzSetup frame whose master wants the
	// rank's sumtable rows back on the partial. Per frame, like the other
	// two: a worker keeps no gathering state of its own.
	jobFlagGather
)

// EncodeWireJob encodes the job in flight — job code, flags, node
// capacity, optionally a model-sync block, the branch length, the code's
// views and payload (jobTable) and every entry of the prepared descriptor
// window — into a frame the same engine decodes with DecodeWireJobInto on a
// remote rank. Must be called between the master's prepareTraversal and
// the job's completion. The returned buffer is reused by the next call.
func (e *Engine) EncodeWireJob(code threads.JobCode, includeModel, reset bool) []byte {
	if includeModel {
		e.modelBlocks++
	}
	s := &jobTable[code]
	b := e.wireBuf[:0]
	b = append(b, byte(code))
	var flags byte
	if includeModel {
		flags |= jobFlagModel
	}
	if reset {
		flags |= jobFlagReset
	}
	if s.partial == partialRows && e.gatherSumtable {
		flags |= jobFlagGather
	}
	b = append(b, flags)
	b = appendU32(b, uint32(e.tree.MaxNodeID()))
	if includeModel {
		b = e.appendWireModel(b)
	}
	b = appendF64(b, e.jobT)
	b = append(b, byte(s.views))
	for _, v := range e.jobWire[:s.views] {
		b = appendView(b, v)
	}
	switch s.payload {
	case payloadCands:
		b = appendU32(b, uint32(len(e.scanCands)))
		for i := range e.scanCands {
			c := &e.scanCands[i].wire
			b = appendView(b, c.X)
			b = appendView(b, c.Y)
			b = appendF64(b, c.T)
		}
	case payloadFactors:
		b = e.appendWireFactors(b)
	}
	window := e.trav[e.travLo:e.travHi]
	b = appendU32(b, uint32(len(window)))
	for i := range window {
		ent := &window[i]
		p := &ent.pub
		c1Tax, c2Tax := int32(-1), int32(-1)
		if ent.left.tip {
			c1Tax = int32(ent.left.taxon)
		}
		if ent.right.tip {
			c2Tax = int32(ent.right.taxon)
		}
		b = appendI32(b, int32(p.Node))
		b = appendI32(b, int32(p.Slot))
		b = appendI32(b, int32(p.C1))
		b = appendI32(b, int32(p.C1Slot))
		b = appendI32(b, c1Tax)
		b = appendI32(b, int32(p.C2))
		b = appendI32(b, int32(p.C2Slot))
		b = appendI32(b, c2Tax)
		b = appendF64(b, p.Len1)
		b = appendF64(b, p.Len2)
	}
	e.wireBuf = b
	return b
}

// appendWireModel appends the model-sync block: active weights over the
// full pattern axis plus every partition's parameters and rate
// treatment (CAT assignments partition-local over the full span).
func (e *Engine) appendWireModel(b []byte) []byte {
	b = appendInts(b, e.weights)
	b = appendBool(b, e.isCAT)
	b = appendU32(b, uint32(len(e.parts)))
	for i := range e.parts {
		ps := &e.parts[i]
		for _, v := range ps.model.Rates {
			b = appendF64(b, v)
		}
		for _, v := range ps.model.Freqs {
			b = appendF64(b, v)
		}
		b = appendF64s(b, ps.rates.Rates)
		b = appendF64s(b, ps.rates.Probs)
		b = appendInts(b, ps.rates.PatternCategory)
	}
	return b
}

// appendWireFactors appends the makenewz factor block: every
// partition's category count followed by its Exp/D1/D2 blocks from the
// factor scratch makenewzFactors just filled.
func (e *Engine) appendWireFactors(b []byte) []byte {
	b = appendU32(b, uint32(len(e.parts)))
	for i := range e.parts {
		ps := &e.parts[i]
		nc := ps.rates.NumCats()
		b = appendU32(b, uint32(nc))
		lo, hi := ps.pOff*4, (ps.pOff+nc)*4
		b = appendF64Block(b, e.mkzExp[lo:hi])
		b = appendF64Block(b, e.mkzD1[lo:hi])
		b = appendF64Block(b, e.mkzD2[lo:hi])
	}
	return b
}

func decodeWireFactors(r *wireReader, reuse *WireFactors) *WireFactors {
	np := int(r.u32())
	if r.err != nil || np < 0 || np > 1<<20 {
		r.fail()
		return nil
	}
	// Every remaining byte is at most factor payload, so len/24 bounds
	// the total category·4 count — pre-size the blocks once instead of
	// append-growing on the per-Newton-iteration hot path. A reused
	// block keeps its slabs, making the steady-state Newton iteration
	// allocation-free on the worker too.
	f := reuse
	if f == nil {
		capHint := (len(r.b) - r.off) / 24
		f = &WireFactors{
			Exp: make([]float64, 0, capHint),
			D1:  make([]float64, 0, capHint),
			D2:  make([]float64, 0, capHint),
		}
	}
	f.Cats = resize(f.Cats, np)
	f.Exp = f.Exp[:0]
	f.D1 = f.D1[:0]
	f.D2 = f.D2[:0]
	for i := 0; i < np; i++ {
		nc := int(r.u32())
		if r.err != nil || nc < 0 || nc > (len(r.b)-r.off)/(3*4*8) {
			r.fail()
			return f
		}
		f.Cats[i] = nc
		at := len(f.Exp)
		f.Exp = slices.Grow(f.Exp, nc*4)[:at+nc*4]
		f.D1 = slices.Grow(f.D1, nc*4)[:at+nc*4]
		f.D2 = slices.Grow(f.D2, nc*4)[:at+nc*4]
		r.f64Block(f.Exp[at:])
		r.f64Block(f.D1[at:])
		r.f64Block(f.D2[at:])
	}
	return f
}

// applyWireFactors installs a shipped factor block into the worker
// engine's factor scratch. The block is laid out as the master's scratch
// and the worker's partitions are the master's, so it lands whole once
// every partition's category count matches. Must run after ensureP
// (pOff offsets fresh).
func (e *Engine) applyWireFactors(f *WireFactors) error {
	if f == nil {
		return fmt.Errorf("likelihood: makenewz frame without factor block")
	}
	if len(f.Cats) != len(e.parts) {
		return fmt.Errorf("likelihood: factor block has %d partitions, expected %d", len(f.Cats), len(e.parts))
	}
	for i := range e.parts {
		if nc := e.parts[i].rates.NumCats(); f.Cats[i] != nc {
			return fmt.Errorf("likelihood: factor block partition %d carries %d categories, the engine has %d",
				i, f.Cats[i], nc)
		}
	}
	e.ensureFactorScratch()
	copy(e.mkzExp, f.Exp)
	copy(e.mkzD1, f.D1)
	copy(e.mkzD2, f.D2)
	return nil
}

// DecodeWireJobInto decodes a job frame into j, reusing j's entry and
// factor slabs — the worker-side half of the allocation-free dispatch
// path. The decode copies everything out of buf; the caller may recycle
// buf the moment this returns.
func DecodeWireJobInto(j *WireJob, buf []byte) error {
	r := &wireReader{b: buf}
	j.Code = threads.JobCode(r.u8())
	flags := r.u8()
	j.Reset = flags&jobFlagReset != 0
	j.Gather = flags&jobFlagGather != 0
	s := jobOf(j.Code)
	switch {
	case r.err != nil:
		return r.err
	case s == nil:
		return fmt.Errorf("likelihood: job frame of unknown code %d", j.Code)
	case j.Gather && s.partial != partialRows:
		return fmt.Errorf("likelihood: job frame of code %d asks for sumtable rows", j.Code)
	}
	j.MaxNode = int(r.u32())
	j.Model = nil
	if flags&jobFlagModel != 0 {
		j.Model = decodeWireModel(r)
	}
	j.T = r.f64()
	j.NViews = int(r.u8())
	if j.NViews > len(j.Views) {
		return fmt.Errorf("likelihood: job frame has %d views", j.NViews)
	}
	for i := 0; i < j.NViews; i++ {
		j.Views[i] = r.view()
	}
	j.Cands = j.Cands[:0]
	reuse := j.Factors
	j.Factors = nil
	switch s.payload {
	case payloadCands:
		// The remaining bytes bound a hostile count before anything is
		// allocated for it.
		n := int(r.u32())
		if r.err == nil && (n < 0 || n > (len(r.b)-r.off)/wireCandBytes) {
			r.fail()
		}
		if r.err == nil {
			j.Cands = slices.Grow(j.Cands, n)
			for i := 0; i < n; i++ {
				j.Cands = append(j.Cands, WireCand{X: r.view(), Y: r.view(), T: r.f64()})
			}
		}
	case payloadFactors:
		j.Factors = decodeWireFactors(r, reuse)
	}
	// The remaining bytes bound the entry count before anything is sized
	// from it.
	n := int(r.u32())
	j.Entries = j.Entries[:0]
	if r.err == nil && (n < 0 || n > (len(r.b)-r.off)/wireEntryBytes) {
		r.fail()
	}
	if r.err == nil {
		j.Entries = slices.Grow(j.Entries, n)
		for i := 0; i < n; i++ {
			j.Entries = append(j.Entries, WireEntry{
				Node: r.i32(), Slot: r.i32(),
				C1: r.i32(), C1Slot: r.i32(), C1Tax: r.i32(),
				C2: r.i32(), C2Slot: r.i32(), C2Tax: r.i32(),
				Len1: r.f64(), Len2: r.f64(),
			})
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("likelihood: job frame has %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

func decodeWireModel(r *wireReader) *WireModel {
	m := &WireModel{}
	m.Weights = r.ints()
	m.IsCAT = r.bool()
	n := int(r.u32())
	if r.err != nil || n < 0 || n > 1<<20 {
		r.fail()
		return m
	}
	m.Parts = make([]WireModelPart, n)
	for i := range m.Parts {
		p := &m.Parts[i]
		for k := 0; k < 6; k++ {
			p.Rates[k] = r.f64()
		}
		for k := 0; k < 4; k++ {
			p.Freqs[k] = r.f64()
		}
		rates := r.f64s()
		probs := r.f64s()
		assign := r.ints()
		if m.IsCAT {
			p.CatRates, p.CatAssign = rates, assign
		} else {
			p.GammaRates, p.GammaProbs = rates, probs
		}
	}
	return m
}

// ---------------------------------------------------------------------
// Worker-mode engine operations
// ---------------------------------------------------------------------

// ApplyWireModel installs a model-sync block onto a worker engine: its
// weights and partitions are the master's, so every vector installs
// whole, and every partition's rate treatment is checked and installed.
func (e *Engine) ApplyWireModel(m *WireModel) error {
	if len(m.Parts) != len(e.parts) {
		return fmt.Errorf("likelihood: model block has %d partitions, expected %d", len(m.Parts), len(e.parts))
	}
	if len(m.Weights) != e.nPatterns {
		return fmt.Errorf("likelihood: model block weights cover %d patterns, the axis has %d", len(m.Weights), e.nPatterns)
	}
	e.installWeights(m.Weights)
	for li := range e.parts {
		ps := &e.parts[li]
		wp := &m.Parts[li]
		// No kernel here reads the eigensystem of a partition outside the
		// stripe, so it is not decomposed; a block that makes the
		// partition visited (new weights, installed above) installs it.
		if ps.visited() {
			if err := ps.model.SetParams(wp.Rates, wp.Freqs); err != nil {
				return fmt.Errorf("likelihood: model sync partition %d: %v", li, err)
			}
		}
		var rc gtr.RateCategories
		if m.IsCAT {
			if !ps.rates.IsCAT() {
				return fmt.Errorf("likelihood: model sync partition %d: CAT block for GAMMA engine", li)
			}
			rc = gtr.RateCategories{Rates: wp.CatRates, PatternCategory: wp.CatAssign}
		} else {
			if ps.rates.IsCAT() {
				return fmt.Errorf("likelihood: model sync partition %d: GAMMA block for CAT engine", li)
			}
			if len(wp.GammaRates) != e.nCat || len(wp.GammaProbs) != e.nCat {
				return fmt.Errorf("%w: model sync partition %d: %d GAMMA rates and %d probabilities for %d categories",
					ErrWireDesync, li, len(wp.GammaRates), len(wp.GammaProbs), e.nCat)
			}
			rc = gtr.RateCategories{Rates: wp.GammaRates, Probs: wp.GammaProbs}
		}
		// The master validated its own treatment when it installed it, so
		// a block this rejects was mangled on the way: a desync.
		if err := ps.installRates(rc); err != nil {
			return fmt.Errorf("%w: model sync partition %d: %v", ErrWireDesync, li, err)
		}
	}
	e.ensureP()
	// The worker-side mirror of InvalidateAll's bump: the memo's blocks
	// were built under the previous model.
	e.modelEpoch++
	return nil
}

// prepareWireTraversal is the worker-mode planner: it lays a shipped
// descriptor window out as the master's own (tip children from the
// frame, not from a tree) and plans it with prepareTraversal — tiles bound
// in the rank's arena in entry order, exactly as the master binds its own,
// and every entry's transition matrices and tip lookup tables rebuilt from
// its branch lengths through the memo, the worker-side P rebuild that
// keeps job frames small.
func (e *Engine) prepareWireTraversal(entries []WireEntry) {
	e.beginTraversal()
	for i := range entries {
		we := &entries[i]
		ent := travEntry{pub: TraversalEntry{
			Node: int(we.Node), Slot: int(we.Slot),
			C1: int(we.C1), C1Slot: int(we.C1Slot),
			C2: int(we.C2), C2Slot: int(we.C2Slot),
			Len1: we.Len1, Len2: we.Len2,
		}}
		if we.C1Tax >= 0 {
			ent.left = travChild{tip: true, taxon: int(we.C1Tax)}
		}
		if we.C2Tax >= 0 {
			ent.right = travChild{tip: true, taxon: int(we.C2Tax)}
		}
		e.trav = append(e.trav, ent)
	}
	e.prepareTraversal()
	e.travLo, e.travHi = 0, len(e.trav)
}

// wireChildView materializes a symbolic view against the local arena.
func (e *Engine) wireChildView(v WireView) childView {
	if v.Tip {
		return childView{tip: true, vec: e.tipVecOf(int(v.Taxon)), stride: 4}
	}
	off := e.clvOffset(int(v.Node), int(v.Slot))
	so := e.scaleOffset(int(v.Node), int(v.Slot))
	return childView{
		vec:    e.arena[off : off+e.tileFloats : off+e.tileFloats],
		scale:  e.scaleArena[so : so+e.tileScale : so+e.tileScale],
		stride: e.nCat * 4,
	}
}

// checkWireJob refuses, as ErrWireDesync, a decoded job this engine
// cannot hold although the master's would: a code outside the job
// table, a view count other than the code's, a node capacity beyond the
// 2·taxa nodes a tree over the init frame's taxa has, or a slot or
// taxon outside them in an entry, a view or a candidate, or a node there
// that is not an internal node below the capacity: internal nodes have
// the ids [taxa, 2·taxa−2), so every directed view a frame can name is
// one of the 3·(taxa−2) the engine reserved tiles for.
func (e *Engine) checkWireJob(job *WireJob, s *jobSpec) error {
	taxa := e.pat.NumTaxa()
	nodes := min(job.MaxNode, 2*taxa-2)
	taxon := func(tax int32) bool { return tax >= 0 && int(tax) < taxa }
	edge := func(node, slot int32) bool { return int(node) >= taxa && int(node) < nodes && slot >= 0 && slot < 3 }
	child := func(tax, node, slot int32) bool { return taxon(tax) || tax < 0 && edge(node, slot) }
	view := func(v WireView) bool { return v.Tip && taxon(v.Taxon) || !v.Tip && edge(v.Node, v.Slot) }
	ok := s != nil && job.NViews == s.views && job.MaxNode <= 2*taxa
	for i := 0; ok && i < job.NViews; i++ {
		ok = view(job.Views[i])
	}
	for i := 0; ok && i < len(job.Cands); i++ {
		ok = view(job.Cands[i].X) && view(job.Cands[i].Y)
	}
	for i := 0; ok && i < len(job.Entries); i++ {
		we := &job.Entries[i]
		ok = edge(we.Node, we.Slot) && child(we.C1Tax, we.C1, we.C1Slot) && child(we.C2Tax, we.C2, we.C2Slot)
	}
	if !ok {
		return fmt.Errorf("%w: job code %d, %d views, %d nodes over %d taxa: a view count, node, slot or taxon out of range",
			ErrWireDesync, job.Code, job.NViews, job.MaxNode, taxa)
	}
	return nil
}

// ExecWireJob replays one decoded job frame on a worker engine: check
// its ids (checkWireJob), apply reset/model state, resolve the
// descriptor locally, install the code's payload, run the code's prep —
// the matrices the master built, rebuilt from the shipped branch length
// — run the job over the local thread crew (one local barrier crossing)
// and return the encoded reduction partial in the code's shape
// (WirePartialLen over the rank's span): an evaluation's wide components
// by partition, a scan's by candidate, the site-LL vector over the
// stripe, a gathered setup's sumtable rows.
func (e *Engine) ExecWireJob(job *WireJob) ([]byte, error) {
	s := jobOf(job.Code)
	if err := e.checkWireJob(job, s); err != nil {
		return nil, err
	}
	if job.Reset {
		// The worker-side mirror of AttachTree: the master's next
		// descriptors name a fresh topology, so stale bindings must not
		// leak values across trees.
		e.releaseTiles()
		clear(e.valid)
	}
	if job.Model != nil {
		if err := e.ApplyWireModel(job.Model); err != nil {
			return nil, err
		}
	}
	e.prepareWireTraversal(job.Entries)
	e.ensureP()
	e.jobWire, e.jobT, e.gatherSumtable = job.Views, job.T, job.Gather
	switch s.payload {
	case payloadCands:
		e.sizeScanCands(len(job.Cands))
		for i, c := range job.Cands {
			e.scanCands[i].wire = c
		}
	case payloadFactors:
		// Setup fills this rank's sumtable stripe from its own CLVs and
		// core reads it back; only the tiny factor block arrives.
		if err := e.applyWireFactors(job.Factors); err != nil {
			return nil, err
		}
	}
	e.prepJob(s)
	if s.partial == partialSites {
		e.wireSiteLL = resize(e.wireSiteLL, e.nPatterns)
		e.jobDst = e.wireSiteLL
	}
	e.pool.Post(e, job.Code)

	// Encode the partial: fixed slots, the wide block, the per-pattern
	// block, in the counts the master expects of this rank's stripe.
	b := e.wirePartialBuf[:0]
	s0, s1 := e.pool.SumSlots2(0, 1)
	b = appendF64(appendF64(b, s0), s1)
	wide, vec := e.WirePartialLen(job.Code, e.span)
	b = appendU32(b, uint32(wide))
	for i := 0; i < wide; i++ {
		b = appendF64(b, e.pool.SumWide(i))
	}
	b = appendU32(b, uint32(vec))
	switch {
	case s.partial == partialSites:
		b = appendF64Block(b, e.jobDst[e.span.Lo:e.span.Hi])
		e.jobDst = nil
	case job.Gather:
		// The rows of the stripe's live patterns in pattern order: each
		// partition's segment without its line padding, so the block is
		// exactly tileN·nCat·4 float64 whatever either side's tile
		// geometry.
		st := e.nCat * 4
		for i := range e.parts {
			ps := &e.parts[i]
			b = appendF64Block(b, e.sumtable[ps.fOff:ps.fOff+(ps.thi-ps.tlo)*st])
		}
	}
	e.wirePartialBuf = b
	return b, nil
}

// DecodeWirePartialInto decodes a reduction partial into p, reusing its
// Wide slab — the master-side half of the allocation-free fold. Slots
// and Wide are copied out of buf; Vec aliases it (see WirePartial), so
// the caller recycles buf only after absorbing the block. Counts are
// bounded by the bytes that remain before anything is sized from them.
func DecodeWirePartialInto(p *WirePartial, buf []byte) error {
	r := &wireReader{b: buf}
	p.Slots[0] = r.f64()
	p.Slots[1] = r.f64()
	nw := int(r.u32())
	p.Wide = p.Wide[:0]
	if r.err == nil && (nw < 0 || nw > (len(r.b)-r.off)/8) {
		r.fail()
	}
	if r.err == nil {
		p.Wide = slices.Grow(p.Wide, nw)[:nw]
		r.f64Block(p.Wide)
	}
	nv := int(r.u32())
	p.Vec = nil
	if r.err == nil && (nv < 0 || nv > (len(r.b)-r.off)/8) {
		r.fail()
	}
	if r.err == nil {
		p.Vec = r.bytes(8 * nv)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("likelihood: partial frame has %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// AbsorbRemoteVec implements WireMaster: it decodes a remote rank's
// per-pattern block straight into the destination of the job in flight —
// the site-LL output of a JobSiteLL, the master's own full-axis sumtable
// arena for a gathered JobMakenewzSetup — at the place of the stripe
// starting at (alignment-axis) pattern stripeLo. Called by a distributed
// Dispatcher from inside Post, which has checked the block against
// WirePartialLen.
func (e *Engine) AbsorbRemoteVec(code threads.JobCode, stripeLo int, vec []byte) {
	if jobTable[code].partial == partialSites {
		decodeF64Block(e.jobDst[stripeLo:stripeLo+len(vec)/8], vec)
		return
	}
	// Sumtable rows arrive dense in pattern order, one per live pattern;
	// the arena is tile-shaped, so a stripe spanning a partition boundary
	// lands in two segments with the line padding between them skipped.
	st := e.nCat * 4
	tlo, _ := e.tileSpan(threads.Range{Lo: stripeLo, Hi: stripeLo})
	thi := tlo + len(vec)/(8*st)
	for pi := range e.parts {
		ps, lo, hi, ok := e.tileChunk(pi, tlo, thi)
		if ok {
			base := ps.fOff - ps.tlo*st
			decodeF64Block(e.sumtable[base+lo*st:base+hi*st], vec[(lo-tlo)*st*8:])
		}
	}
}

// ---------------------------------------------------------------------
// Worker init
// ---------------------------------------------------------------------

// WorkerInit is everything a remote rank needs to build its engine: the
// master's whole pattern set and the stripe of it the rank computes, the
// rate treatment *shape* (real parameters arrive with the first job's
// model block), and the local thread count.
type WorkerInit struct {
	Threads int
	Stripe  threads.Range
	Pat     *msa.Patterns
	IsCAT   bool
	NCats   int // CLV width: 1 for CAT, GammaCats for GAMMA
}

// EncodeWorkerInit encodes the init frame.
func EncodeWorkerInit(w *WorkerInit) []byte {
	var b []byte
	b = appendI32(b, int32(w.Threads))
	b = appendI32(b, int32(w.Stripe.Lo))
	b = appendI32(b, int32(w.Stripe.Hi))
	b = appendBool(b, w.IsCAT)
	b = appendI32(b, int32(w.NCats))

	p := w.Pat
	b = appendU32(b, uint32(len(p.Names)))
	for _, n := range p.Names {
		b = appendString(b, n)
	}
	b = appendU32(b, uint32(p.NumPatterns()))
	for _, row := range p.Data {
		for _, s := range row {
			b = append(b, byte(s))
		}
	}
	b = appendInts(b, p.Weights)
	parts := p.PartRanges()
	b = appendU32(b, uint32(len(parts)))
	for _, pr := range parts {
		b = appendString(b, pr.Name)
		b = appendI32(b, int32(pr.Lo))
		b = appendI32(b, int32(pr.Hi))
	}
	return b
}

// DecodeWorkerInit decodes an init frame.
func DecodeWorkerInit(buf []byte) (*WorkerInit, error) {
	r := &wireReader{b: buf}
	w := &WorkerInit{}
	w.Threads = int(r.i32())
	w.Stripe = threads.Range{Lo: int(r.i32()), Hi: int(r.i32())}
	w.IsCAT = r.bool()
	w.NCats = int(r.i32())

	nTaxa := int(r.u32())
	if r.err != nil || nTaxa < 0 || nTaxa > (len(r.b)-r.off)/4 {
		r.fail()
		return nil, r.err
	}
	names := make([]string, nTaxa)
	for i := range names {
		names[i] = r.string()
	}
	nPat := int(r.u32())
	if r.err != nil || nPat < 0 || r.off+nTaxa*nPat > len(r.b) {
		r.fail()
		return nil, r.err
	}
	data := make([][]msa.State, nTaxa)
	for i := range data {
		row := make([]msa.State, nPat)
		for k := range row {
			row[k] = msa.State(r.b[r.off])
			r.off++
			// A state is a 4-bit ambiguity code; the tip lookup tables the
			// newview kernels index by it hold sixteen blocks.
			if row[k] > msa.Gap {
				return nil, fmt.Errorf("likelihood: init frame taxon %d pattern %d carries state code %d", i, k, row[k])
			}
		}
		data[i] = row
	}
	weights := r.ints()
	nParts := int(r.u32())
	if r.err != nil || nParts < 0 || nParts > 1<<20 {
		r.fail()
		return nil, r.err
	}
	var parts []msa.PartRange
	for i := 0; i < nParts; i++ {
		parts = append(parts, msa.PartRange{Name: r.string(), Lo: int(r.i32()), Hi: int(r.i32())})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("likelihood: init frame has %d trailing bytes", len(r.b)-r.off)
	}
	// The engine is built from the frame, so it must describe what it
	// carries — weights and partitions tiling the patterns, a non-empty
	// stripe inside them — at the CLV width of its rate treatment.
	width := GammaCats
	if w.IsCAT {
		width = 1
	}
	if w.NCats != width {
		return nil, fmt.Errorf("likelihood: init frame has %d CLV categories, its rate treatment has %d", w.NCats, width)
	}
	w.Pat = msa.FromParts(names, data, weights, parts)
	s, lo := w.Stripe, 0
	ok := len(weights) == nPat && 0 <= s.Lo && s.Lo < s.Hi && s.Hi <= nPat
	for _, pr := range w.Pat.PartRanges() {
		ok = ok && pr.Lo == lo && pr.Hi > lo
		lo = pr.Hi
	}
	if !ok || lo != nPat {
		return nil, fmt.Errorf("likelihood: init frame does not describe a stripe of its %d patterns", nPat)
	}
	return w, nil
}

// BuildWorkerEngine constructs a remote rank's engine from its init
// frame the way the master builds its own — NewPartitioned over the whole
// pattern set with every partition, placeholder default models and
// treatment shapes (the first job's model block overwrites them) — over a
// thread crew that covers the rank's stripe only, in alignment-axis
// indices. The crew's ranges are the engine's span, so its tiles are laid
// out over the stripe alone. The stripe is cut over the threads by
// pattern count, as the stripes were cut over the ranks; the engine snaps
// the cuts relative to the partition starts clipped to the stripe.
func BuildWorkerEngine(w *WorkerInit) (*Engine, error) {
	ranges := w.Pat.PartRanges()
	set := gtr.NewPartitionSet(len(ranges))
	for i, pr := range ranges {
		if w.IsCAT {
			set.Rates[i] = gtr.NewUniform(pr.Len())
		} else {
			g, err := gtr.NewGamma(1.0, w.NCats)
			if err != nil {
				return nil, err
			}
			set.Rates[i] = g
		}
	}
	pool := threads.NewPoolStripeEven(w.Threads, w.Stripe.Lo, w.Stripe.Hi)
	eng, err := NewPartitioned(w.Pat, set, Config{Pool: pool})
	if err != nil {
		pool.Close() // no engine owns the crew's goroutines
	}
	return eng, err
}
