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
// stripe engine. It reproduces RAxML's _FINE_GRAIN_MPI design
// (genericParallelization.c): the master plans exactly as for threads —
// one traversal descriptor, one job code — and the remote workers are
// just more crew members whose "shared memory" is a stripe of the
// pattern axis they own outright.
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
// the shipped category rates). A worker treats it like a frame that did
// not decode — it closes its transport and dies, so the master sees a
// dead rank and restripes — where a plain error is the job's own failure
// and is reported back as such.
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
// to look it up in). Ref marks a delta reference: only (Node, Slot)
// crossed the wire and the rest of the entry — children, lengths, and
// the rebuilt P matrices/LUTs — comes from the receiving rank's edge
// cache, keyed by the same directed edge.
type WireEntry struct {
	Node, Slot        int32
	C1, C1Slot, C1Tax int32
	C2, C2Slot, C2Tax int32
	Len1, Len2        float64
	Ref               bool
}

// wireEdgeCache is one directed edge's slot in a worker engine's
// delta-descriptor cache: the last entry shipped full for the edge plus
// the P matrices (pL then pR, e.totalCats categories each) and tip LUTs
// rebuilt from it. A ref entry replays all of it without recomputation
// — bit-identical, since the cached matrices were produced by the exact
// code a full entry would run. The cache lives until a frame carries a
// model block or tile reset (ExecWireJob clears it on the same flags
// that clear the master's ship cache).
type wireEdgeCache struct {
	ok         bool
	ent        WireEntry
	p          [][16]float64
	lutL, lutR []float64
}

// Descriptor entry kinds on the wire (first byte of every entry).
const (
	wireEntFull byte = 0 // full 48-byte entry follows
	wireEntRef  byte = 1 // 8-byte (node, slot) ref into the edge cache
)

// WireModel is the model-sync block: full per-partition model state
// plus the active pattern weights over the master's full pattern axis.
// It is rank-independent — the same block is broadcast to every rank,
// and each rank slices the per-pattern vectors down to its stripe — so
// a model change still costs exactly one broadcast.
type WireModel struct {
	Weights []int // full master pattern axis
	IsCAT   bool
	Parts   []WireModelPart
}

// WireModelPart is one partition's model state.
type WireModelPart struct {
	Rates [6]float64
	Freqs [4]float64
	// CatRates/CatAssign are the CAT treatment (assignments indexed
	// partition-locally over the master's full partition span);
	// GammaRates/GammaProbs the GAMMA treatment.
	CatRates, GammaRates, GammaProbs []float64
	CatAssign                        []int
}

// WireJob is one decoded job frame. T is the job's branch length: the
// edge of an edge job, the pendant branch of an insertion scan. Views
// are the two endpoint views of an edge job, or the subtree view of a
// scan, whose candidates are in Cands.
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

// WireFactors is the makenewz factor payload, carried by every
// JobMakenewzCore frame and by the JobMakenewzSetup frame (whose job
// ends with the core reduction at the starting length): per MASTER
// partition, the matrix-category count and the three eigen exponential
// factor blocks (4 float64 per category each, for the likelihood and the
// first- and second-derivative weights — gtr.Model.ExpEigen's output).
// This is the *whole* per-Newton-iteration wire payload of the
// distributed core job: ~100 bytes per 4-category partition, no P
// matrices, no model block. Every rank computes its sumtable stripe from
// its own CLVs during JobMakenewzSetup; whether the stripe then stays
// there (and each Newton iteration ships one of these blocks) or rides
// home once on the setup partial (and no core frame is ever sent) is the
// dispatcher's choice — see Engine.makenewzDerivatives. A worker rank
// copies the blocks of its own partitions into its local factor
// scratch (applyWireFactors), re-indexed by the init-time geometry.
type WireFactors struct {
	Cats        []int     // per master partition matrix-category count
	Exp, D1, D2 []float64 // concatenated blocks, 4·Cats[i] each, master order
}

// WirePartial is one rank's decoded reduction partial: the two fixed
// reduction slots, the wide components (JobEvaluate: one per MASTER
// partition; JobInsertScan: one per candidate; none otherwise), and the
// per-pattern block — the site-log-likelihood stripe of a JobSiteLL, the
// sumtable rows (nCat·4 per pattern, stripe pattern order, no segment
// padding) of a gathered JobMakenewzSetup, empty otherwise.
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

// VecLen returns the number of float64 in the per-pattern block.
func (p *WirePartial) VecLen() int { return len(p.Vec) / 8 }

// WorkerGeom is the stripe geometry a worker rank holds from its init
// frame and applies to every job.
type WorkerGeom struct {
	// StripeLo/StripeHi is the rank's stripe on the master pattern axis.
	StripeLo, StripeHi int
	// MasterParts is the master's partition count (width of Wide).
	MasterParts int
	// PartMap maps local partition index -> master partition index.
	PartMap []int
	// ClipOff is the local partition's pattern offset inside its master
	// partition (for slicing partition-local per-pattern vectors).
	ClipOff []int
}

// WireMaster is what a distributed Dispatcher requires of its runner:
// the planning engine must encode the job in flight — as one frame
// (EncodeWireJob) or as a header plus chunked entry ranges interleaved
// with the deferred P-fill (WireJobHeader / WireJobEntries /
// FillTravChunk / WireJobFrame) — and absorb remote partials. *Engine
// implements it.
type WireMaster interface {
	threads.JobRunner
	EncodeWireJob(code threads.JobCode, includeModel, reset bool) []byte
	// WireJobHeader starts a frame: job code, flags, capacity, optional
	// model block, views, factor block and the entry count. Returns the
	// header bytes and the number of descriptor entries to follow.
	WireJobHeader(code threads.JobCode, includeModel, reset bool) (header []byte, entries int)
	// WireJobEntries appends the window-relative entry range [lo, hi) in
	// delta form and returns exactly the appended bytes. Appended ranges
	// accumulate: WireJobFrame returns the whole frame so far.
	WireJobEntries(lo, hi int) []byte
	// WireJobFrame returns the complete frame encoded so far (header
	// plus every appended entry range).
	WireJobFrame() []byte
	// FillTravChunk completes the deferred P-matrix/LUT fill for the
	// window-relative entry range [lo, hi); idempotent per entry.
	FillTravChunk(lo, hi int)
	WireEpochs() (model, topo uint64)
	// WireWideLen returns how many wide components every rank's partial
	// of the job in flight must carry; the dispatcher treats any other
	// count as a desynchronized stream.
	WireWideLen(code threads.JobCode) int
	// WireVecLen returns how many per-pattern float64 the partial of a
	// rank owning `patterns` patterns must carry for the job in flight;
	// again any other count is a desynchronized stream.
	WireVecLen(code threads.JobCode, patterns int) int
	// AbsorbRemoteVec lands a rank's per-pattern block (wire form) at its
	// stripe's place in the job's destination.
	AbsorbRemoteVec(code threads.JobCode, stripeLo int, vec []byte)
}

// WireWideLen implements WireMaster: one wide component per partition
// for an evaluation, one per candidate for an insertion scan.
func (e *Engine) WireWideLen(code threads.JobCode) int {
	switch code {
	case threads.JobEvaluate:
		return len(e.parts)
	case threads.JobInsertScan:
		return len(e.scanCands)
	}
	return 0
}

// WireVecLen implements WireMaster: one log-likelihood per pattern for a
// site-LL job, one sumtable row per pattern for a makenewz setup whose
// rows the master gathers, nothing otherwise.
func (e *Engine) WireVecLen(code threads.JobCode, patterns int) int {
	switch {
	case code == threads.JobSiteLL:
		return patterns
	case code == threads.JobMakenewzSetup && e.gatherSumtable:
		return patterns * e.nCat * 4
	}
	return 0
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

// EncodeWireJob encodes the job in flight — the prepared descriptor
// window, the job's views and branch lengths, optionally a model-sync
// block and a tile-reset marker — into a frame the same engine decodes
// with DecodeWireJob on a remote rank. Must be called between the
// master's prepareTraversal and the job's completion (a distributed
// Dispatcher calls it at the top of Post). The returned buffer is
// reused by the next call. Kept as the whole-frame convenience over
// the chunked WireJobHeader/WireJobEntries pair.
func (e *Engine) EncodeWireJob(code threads.JobCode, includeModel, reset bool) []byte {
	_, n := e.WireJobHeader(code, includeModel, reset)
	if n > 0 {
		e.WireJobEntries(0, n)
	}
	return e.wireBuf
}

// WireJobHeader resets the wire buffer and encodes everything up to and
// including the descriptor entry count: job code, flags, node capacity,
// optional model-sync block, branch length, views, and the candidate
// block of an insertion scan or the factor block of a makenewz setup
// or core job. It returns the header bytes and the
// number of entries WireJobEntries calls must append. A frame carrying
// a model block or reset marker clears the delta ship cache — the
// workers clear their edge caches on the same flags, keeping both ends
// coherent without any extra traffic.
func (e *Engine) WireJobHeader(code threads.JobCode, includeModel, reset bool) ([]byte, int) {
	if includeModel || reset {
		for i := range e.wireShippedOK {
			e.wireShippedOK[i] = false
		}
	}
	if includeModel {
		e.modelBlocks++
	}
	maxNode := e.tree.MaxNodeID()
	if n := 3 * maxNode; len(e.wireShippedOK) < n {
		shipped := make([]WireEntry, n)
		copy(shipped, e.wireShipped)
		e.wireShipped = shipped
		ok := make([]bool, n)
		copy(ok, e.wireShippedOK)
		e.wireShippedOK = ok
	}
	b := e.wireBuf[:0]
	b = append(b, byte(code))
	var flags byte
	if includeModel {
		flags |= jobFlagModel
	}
	if reset {
		flags |= jobFlagReset
	}
	if code == threads.JobMakenewzSetup && e.gatherSumtable {
		flags |= jobFlagGather
	}
	b = append(b, flags)
	b = appendU32(b, uint32(maxNode))
	if includeModel {
		b = e.appendWireModel(b)
	}
	b = appendF64(b, e.jobT)
	nv := e.jobNViews
	if code == threads.JobNewview {
		nv = 0 // pure descriptor walk: stale view metadata is not part of the job
	}
	b = append(b, byte(nv))
	for i := 0; i < nv; i++ {
		b = appendView(b, e.jobWire[i])
	}
	switch code {
	case threads.JobInsertScan:
		b = appendU32(b, uint32(len(e.scanCands)))
		for i := range e.scanCands {
			c := &e.scanCands[i].wire
			b = appendView(b, c.X)
			b = appendView(b, c.Y)
			b = appendF64(b, c.T)
		}
	case threads.JobMakenewzSetup, threads.JobMakenewzCore:
		b = e.appendWireFactors(b)
	}
	n := e.travHi - e.travLo
	b = appendU32(b, uint32(n))
	e.wireBuf = b
	return b, n
}

// WireJobEntries appends the window-relative descriptor range [lo, hi)
// to the frame in delta form: an entry identical to the last one
// shipped full for its directed edge (same children, same lengths,
// cache not invalidated since) goes out as a 9-byte ref; everything
// else goes out full and refreshes the ship cache. Returns exactly the
// appended bytes, valid until the next call that appends to the frame
// (the dispatcher sends each range before it encodes the next).
func (e *Engine) WireJobEntries(lo, hi int) []byte {
	b := e.wireBuf
	start := len(b)
	window := e.trav[e.travLo:e.travHi]
	for i := lo; i < hi; i++ {
		ent := &window[i]
		p := &ent.pub
		we := WireEntry{
			Node: int32(p.Node), Slot: int32(p.Slot),
			C1: int32(p.C1), C1Slot: int32(p.C1Slot), C1Tax: -1,
			C2: int32(p.C2), C2Slot: int32(p.C2Slot), C2Tax: -1,
			Len1: p.Len1, Len2: p.Len2,
		}
		if ent.left.tip {
			we.C1Tax = int32(ent.left.taxon)
		}
		if ent.right.tip {
			we.C2Tax = int32(ent.right.taxon)
		}
		idx := p.Node*3 + p.Slot
		if e.wireShippedOK[idx] && e.wireShipped[idx] == we {
			b = append(b, wireEntRef)
			b = appendI32(b, we.Node)
			b = appendI32(b, we.Slot)
			continue
		}
		b = append(b, wireEntFull)
		b = appendI32(b, we.Node)
		b = appendI32(b, we.Slot)
		b = appendI32(b, we.C1)
		b = appendI32(b, we.C1Slot)
		b = appendI32(b, we.C1Tax)
		b = appendI32(b, we.C2)
		b = appendI32(b, we.C2Slot)
		b = appendI32(b, we.C2Tax)
		b = appendF64(b, we.Len1)
		b = appendF64(b, we.Len2)
		e.wireShipped[idx] = we
		e.wireShippedOK[idx] = true
	}
	e.wireBuf = b
	return b[start:]
}

// WireJobFrame returns the complete frame encoded so far.
func (e *Engine) WireJobFrame() []byte { return e.wireBuf }

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

// appendWireFactors appends the makenewz factor block: every master
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
	if cap(f.Cats) < np {
		f.Cats = make([]int, np)
	}
	f.Cats = f.Cats[:np]
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
// engine's factor scratch, re-indexing master partitions to the rank's
// local partitions via the init-time geometry. Must run after ensureP
// (local pOff offsets fresh).
func (e *Engine) applyWireFactors(f *WireFactors, g *WorkerGeom) error {
	if f == nil {
		return fmt.Errorf("likelihood: makenewz frame without factor block")
	}
	if len(f.Cats) != g.MasterParts {
		return fmt.Errorf("likelihood: factor block has %d partitions, expected %d", len(f.Cats), g.MasterParts)
	}
	e.ensureFactorScratch()
	for li := range e.parts {
		ps := &e.parts[li]
		mi := g.PartMap[li]
		nc := ps.rates.NumCats()
		if f.Cats[mi] != nc {
			return fmt.Errorf("likelihood: factor block partition %d carries %d categories, local engine has %d",
				mi, f.Cats[mi], nc)
		}
		moff := 0
		for q := 0; q < mi; q++ {
			moff += f.Cats[q] * 4
		}
		if moff+nc*4 > len(f.Exp) {
			return fmt.Errorf("likelihood: factor block truncated at partition %d", mi)
		}
		lo := ps.pOff * 4
		copy(e.mkzExp[lo:lo+nc*4], f.Exp[moff:moff+nc*4])
		copy(e.mkzD1[lo:lo+nc*4], f.D1[moff:moff+nc*4])
		copy(e.mkzD2[lo:lo+nc*4], f.D2[moff:moff+nc*4])
	}
	return nil
}

// DecodeWireJob decodes a job frame into a fresh WireJob.
func DecodeWireJob(buf []byte) (*WireJob, error) {
	j := &WireJob{}
	if err := DecodeWireJobInto(j, buf); err != nil {
		return nil, err
	}
	return j, nil
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
	if j.Gather && j.Code != threads.JobMakenewzSetup {
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
	switch j.Code {
	case threads.JobInsertScan:
		// The remaining bytes bound a hostile count before anything is
		// allocated for it.
		n := int(r.u32())
		if r.err == nil && (n < 0 || n > (len(r.b)-r.off)/wireCandBytes) {
			r.fail()
		}
		if r.err == nil {
			if cap(j.Cands) < n {
				j.Cands = make([]WireCand, 0, n)
			}
			for i := 0; i < n; i++ {
				j.Cands = append(j.Cands, WireCand{X: r.view(), Y: r.view(), T: r.f64()})
			}
		}
	case threads.JobMakenewzSetup, threads.JobMakenewzCore:
		j.Factors = decodeWireFactors(r, reuse)
	}
	n := int(r.u32())
	j.Entries = j.Entries[:0]
	if r.err == nil && n > 0 {
		// Every entry is at least 9 bytes (kind + node + slot), which
		// bounds a hostile count before the loop runs.
		if r.off+n*9 > len(r.b) {
			r.fail()
		} else {
			if cap(j.Entries) < n {
				j.Entries = make([]WireEntry, 0, n)
			}
			for i := 0; i < n && r.err == nil; i++ {
				switch kind := r.u8(); kind {
				case wireEntFull:
					j.Entries = append(j.Entries, WireEntry{
						Node: r.i32(), Slot: r.i32(),
						C1: r.i32(), C1Slot: r.i32(), C1Tax: r.i32(),
						C2: r.i32(), C2Slot: r.i32(), C2Tax: r.i32(),
						Len1: r.f64(), Len2: r.f64(),
					})
				case wireEntRef:
					j.Entries = append(j.Entries, WireEntry{
						Node: r.i32(), Slot: r.i32(), Ref: true,
					})
				default:
					if r.err == nil {
						r.err = fmt.Errorf("likelihood: descriptor entry %d has kind %d", i, kind)
					}
				}
			}
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

// EnsureNodeCapacity sizes the per-directed-edge bookkeeping (tile
// bindings, validity flags) for node ids below maxNode. Worker-mode
// engines have no attached tree, so the master ships the capacity with
// every job frame; ensureArena is the tree-driven wrapper.
func (e *Engine) EnsureNodeCapacity(maxNode int) {
	n := maxNode * 3
	if len(e.tileOf) >= n {
		return
	}
	old := len(e.tileOf)
	tiles := make([]int32, n)
	copy(tiles, e.tileOf)
	for i := old; i < n; i++ {
		tiles[i] = noTile
	}
	e.tileOf = tiles
	valid := make([]bool, n)
	copy(valid, e.valid)
	e.valid = valid
}

// ResetTiles releases every directed-edge -> tile binding back to the
// free list (the worker-side mirror of AttachTree: the master's next
// descriptors name a fresh topology, so stale bindings must not leak
// values across trees).
func (e *Engine) ResetTiles() {
	e.releaseTiles()
	for i := range e.valid {
		e.valid[i] = false
	}
}

// ApplyWireModel installs a model-sync block onto a worker engine,
// slicing the per-pattern vectors (weights, CAT assignments) down to
// the rank's stripe using the init-time geometry.
func (e *Engine) ApplyWireModel(m *WireModel, g *WorkerGeom) error {
	if len(m.Parts) != g.MasterParts {
		return fmt.Errorf("likelihood: model block has %d partitions, expected %d", len(m.Parts), g.MasterParts)
	}
	if len(m.Weights) < g.StripeHi {
		return fmt.Errorf("likelihood: model block weights cover %d patterns, stripe ends at %d", len(m.Weights), g.StripeHi)
	}
	copy(e.weights, m.Weights[g.StripeLo:g.StripeHi])
	for li := range e.parts {
		ps := &e.parts[li]
		wp := &m.Parts[g.PartMap[li]]
		if err := ps.model.SetRates(wp.Rates); err != nil {
			return fmt.Errorf("likelihood: model sync partition %d: %v", li, err)
		}
		if err := ps.model.SetFreqs(wp.Freqs); err != nil {
			return fmt.Errorf("likelihood: model sync partition %d: %v", li, err)
		}
		var rc gtr.RateCategories
		if m.IsCAT {
			if !ps.rates.IsCAT() {
				return fmt.Errorf("likelihood: model sync partition %d: CAT block for GAMMA engine", li)
			}
			n := ps.hi - ps.lo
			off := g.ClipOff[li]
			if len(wp.CatAssign) < off+n {
				return fmt.Errorf("likelihood: model sync partition %d: %d assignments, need [%d, %d)",
					li, len(wp.CatAssign), off, off+n)
			}
			rc = gtr.RateCategories{Rates: wp.CatRates, PatternCategory: wp.CatAssign[off : off+n]}
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

// prepareWireTraversal is the worker-mode prepareTraversal: it resolves
// a shipped descriptor window against the LOCAL arena (binding tiles in
// entry order, exactly as the master binds its own) and rebuilds every
// FULL entry's per-partition transition matrices and tip lookup tables
// from the entry's branch lengths into the edge cache — the worker-side
// P rebuild that keeps job frames small. Ref entries replay their
// cached content and matrices untouched: bit-identical to recomputing
// them, at zero cost. No tree is consulted: tip children arrive
// pre-resolved.
func (e *Engine) prepareWireTraversal(entries []WireEntry, maxNode int) error {
	if n := 3 * maxNode; len(e.wireCache) < n {
		grown := make([]wireEdgeCache, n)
		copy(grown, e.wireCache)
		e.wireCache = grown
	}
	e.trav = e.trav[:0]
	e.wireFillIdx = e.wireFillIdx[:0]
	n := len(entries)
	e.travLo, e.travHi = 0, n
	e.travFillNext = n // workers fill (or replay) everything below
	if n == 0 {
		return nil
	}
	e.ensureP()
	nc := e.totalCats
	lutSize := 16 * nc * 4
	for i := range entries {
		we := &entries[i]
		idx := int(we.Node)*3 + int(we.Slot)
		c := &e.wireCache[idx]
		if we.Ref {
			if !c.ok || len(c.p) != 2*nc {
				return fmt.Errorf("likelihood: delta ref to directed edge (%d, %d) with no cached entry", we.Node, we.Slot)
			}
		} else {
			if len(c.p) != 2*nc {
				c.p = make([][16]float64, 2*nc)
			}
			c.ent = *we
			c.ent.Ref = false
			c.ok = true
			e.wireFillIdx = append(e.wireFillIdx, i)
		}
		src := &c.ent
		ent := travEntry{pub: TraversalEntry{
			Node: int(src.Node), Slot: int(src.Slot),
			C1: int(src.C1), C1Slot: int(src.C1Slot),
			C2: int(src.C2), C2Slot: int(src.C2Slot),
			Len1: src.Len1, Len2: src.Len2,
		}}
		if src.C1Tax >= 0 {
			ent.left = travChild{tip: true, taxon: int(src.C1Tax)}
			if len(c.lutL) != lutSize {
				c.lutL = make([]float64, lutSize)
			}
			ent.lutL = c.lutL
		}
		if src.C2Tax >= 0 {
			ent.right = travChild{tip: true, taxon: int(src.C2Tax)}
			if len(c.lutR) != lutSize {
				c.lutR = make([]float64, lutSize)
			}
			ent.lutR = c.lutR
		}
		ent.pL = c.p[:nc]
		ent.pR = c.p[nc:]
		e.trav = append(e.trav, ent)
	}
	// Bind tiles and resolve offsets in entry order, exactly as the
	// master binds its own arena.
	for i := range e.trav {
		ent := &e.trav[i]
		ent.dstOff = e.clvOffset(ent.pub.Node, ent.pub.Slot)
		ent.dstScaleOff = e.scaleOffset(ent.pub.Node, ent.pub.Slot)
		if !ent.left.tip {
			ent.left.off = e.clvOffset(ent.pub.C1, ent.pub.C1Slot)
			ent.left.scaleOff = e.scaleOffset(ent.pub.C1, ent.pub.C1Slot)
		}
		if !ent.right.tip {
			ent.right.off = e.clvOffset(ent.pub.C2, ent.pub.C2Slot)
			ent.right.scaleOff = e.scaleOffset(ent.pub.C2, ent.pub.C2Slot)
		}
	}
	e.memoSync()
	misses := 0
	for _, i := range e.wireFillIdx {
		misses += e.planTravEntry(&e.trav[i])
	}
	e.forkFill(0, len(e.wireFillIdx), misses, e.fillWireFn)
	e.newviewCount += int64(n)
	return nil
}

// wireChildView materializes a shipped view against the local arena.
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

// ExecWireJob replays one decoded job frame on a worker engine: apply
// capacity/reset/model state, resolve the descriptor locally, rebuild
// the job's transition matrices from the shipped branch lengths, run
// the job over the local thread crew (one local barrier crossing) and
// return the encoded reduction partial — an evaluation's wide components
// indexed by MASTER partition, a scan's by candidate, the site-LL vector
// over the local stripe.
func (e *Engine) ExecWireJob(job *WireJob, g *WorkerGeom) ([]byte, error) {
	e.EnsureNodeCapacity(job.MaxNode)
	if job.Reset || job.Model != nil {
		// The master cleared its delta ship cache when it encoded these
		// flags; clear the edge cache on the same trigger so refs can
		// never replay matrices built under a stale model or topology.
		for i := range e.wireCache {
			e.wireCache[i].ok = false
		}
	}
	if job.Reset {
		e.ResetTiles()
	}
	if job.Model != nil {
		if err := e.ApplyWireModel(job.Model, g); err != nil {
			return nil, err
		}
	}
	if err := e.prepareWireTraversal(job.Entries, job.MaxNode); err != nil {
		return nil, err
	}
	e.ensureP()
	switch job.Code {
	case threads.JobNewview:
		// descriptor walk only
	case threads.JobEvaluate, threads.JobSiteLL:
		e.fillP(job.T, e.pEval)
	case threads.JobMakenewz:
		for i := range e.parts {
			ps := &e.parts[i]
			for c := 0; c < ps.rates.NumCats(); c++ {
				ps.model.PDeriv(job.T, ps.rates.Rates[c], &e.pEval[ps.pOff+c], &e.pD1[ps.pOff+c], &e.pD2[ps.pOff+c])
			}
		}
	case threads.JobMakenewzSetup, threads.JobMakenewzCore:
		// Setup fills this rank's sumtable stripe from its own CLVs and
		// core reads it back; only the tiny factor block arrives, with
		// the setup for its closing reduction and per iteration after. A
		// gathered setup skips that reduction (RunJob) and ships the
		// stripe's rows instead.
		e.ensureSumtable()
		e.gatherSumtable = job.Gather
		if err := e.applyWireFactors(job.Factors, g); err != nil {
			return nil, err
		}
	case threads.JobInsertScan:
		if job.NViews != 1 {
			return nil, fmt.Errorf("likelihood: scan frame has %d views, want the subtree view", job.NViews)
		}
		e.jobWire[0], e.jobT = job.Views[0], job.T
		e.sizeScanCands(len(job.Cands))
		for i, c := range job.Cands {
			e.scanCands[i].wire = c
		}
		e.prepareScan()
	default:
		return nil, fmt.Errorf("likelihood: wire job code %d not executable", job.Code)
	}
	if job.Code != threads.JobInsertScan {
		for i := 0; i < job.NViews; i++ {
			v := e.wireChildView(job.Views[i])
			if i == 0 {
				e.jobVA = v
			} else {
				e.jobVB = v
			}
		}
	}
	if job.Code == threads.JobSiteLL {
		if cap(e.wireSiteLL) < e.nPatterns {
			e.wireSiteLL = make([]float64, e.nPatterns)
		}
		e.jobDst = e.wireSiteLL[:e.nPatterns]
	}
	e.pool.Post(e, job.Code)

	// Encode the partial: fixed slots, master-indexed wide components,
	// optional per-pattern block (site-LL stripe or sumtable rows).
	b := e.wirePartialBuf[:0]
	s0, s1 := e.pool.SumSlots2(0, 1)
	b = appendF64(b, s0)
	b = appendF64(b, s1)
	switch job.Code {
	case threads.JobEvaluate:
		b = appendU32(b, uint32(g.MasterParts))
		if cap(e.wireWide) < g.MasterParts {
			e.wireWide = make([]float64, g.MasterParts)
		}
		wide := e.wireWide[:g.MasterParts]
		for i := range wide {
			wide[i] = 0
		}
		for li := range e.parts {
			wide[g.PartMap[li]] = e.pool.SumWide(li)
		}
		b = appendF64Block(b, wide)
	case threads.JobInsertScan:
		b = appendU32(b, uint32(len(e.scanCands)))
		for i := range e.scanCands {
			b = appendF64(b, e.pool.SumWide(i))
		}
	default:
		b = appendU32(b, 0)
	}
	switch {
	case job.Code == threads.JobSiteLL:
		b = appendF64s(b, e.jobDst)
		e.jobDst = nil
	case job.Gather:
		// The stripe's rows in pattern order: each local partition's
		// segment without its line padding, so the block is exactly
		// nPatterns·nCat·4 float64 whatever either side's tile geometry.
		st := e.nCat * 4
		b = appendU32(b, uint32(e.nPatterns*st))
		for i := range e.parts {
			ps := &e.parts[i]
			b = appendF64Block(b, e.sumtable[ps.fOff:ps.fOff+(ps.hi-ps.lo)*st])
		}
	default:
		b = appendU32(b, 0)
	}
	e.wirePartialBuf = b
	return b, nil
}

// DecodeWirePartial decodes a reduction partial into a fresh struct.
func DecodeWirePartial(buf []byte) (*WirePartial, error) {
	p := &WirePartial{}
	if err := DecodeWirePartialInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
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
// starting at pattern stripeLo. Called by a distributed Dispatcher from
// inside Post, which has checked the block against WireVecLen.
func (e *Engine) AbsorbRemoteVec(code threads.JobCode, stripeLo int, vec []byte) {
	if code == threads.JobSiteLL {
		decodeF64Block(e.jobDst[stripeLo:stripeLo+len(vec)/8], vec)
		return
	}
	// Sumtable rows arrive dense in pattern order; the arena is
	// tile-shaped, so a stripe spanning a partition boundary lands in
	// two segments with the line padding between them skipped.
	st := e.nCat * 4
	stripe := threads.Range{Lo: stripeLo, Hi: stripeLo + len(vec)/(8*st)}
	for pi := range e.parts {
		ps, lo, hi, ok := e.chunkOf(pi, stripe)
		if ok {
			base := ps.fOff - ps.lo*st
			decodeF64Block(e.sumtable[base+lo*st:base+hi*st], vec[(lo-stripeLo)*st*8:])
		}
	}
}

// ---------------------------------------------------------------------
// Worker init
// ---------------------------------------------------------------------

// WorkerInit is everything a remote rank needs to build its stripe
// engine: the stripe's pattern data (local axis), geometry, the rate
// treatment *shape* (real parameters arrive with the first job's model
// block), and the local thread count.
type WorkerInit struct {
	Rank, Ranks int
	Threads     int
	Geom        WorkerGeom
	Pat         *msa.Patterns
	IsCAT       bool
	NCats       int // GAMMA category count (CLV width); 1 for CAT
}

// EncodeWorkerInit encodes the init frame.
func EncodeWorkerInit(w *WorkerInit) []byte {
	var b []byte
	b = appendI32(b, int32(w.Rank))
	b = appendI32(b, int32(w.Ranks))
	b = appendI32(b, int32(w.Threads))
	b = appendI32(b, int32(w.Geom.StripeLo))
	b = appendI32(b, int32(w.Geom.StripeHi))
	b = appendI32(b, int32(w.Geom.MasterParts))
	b = appendInts(b, w.Geom.PartMap)
	b = appendInts(b, w.Geom.ClipOff)
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
	b = appendU32(b, uint32(len(p.Parts)))
	for _, pr := range p.Parts {
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
	w.Rank = int(r.i32())
	w.Ranks = int(r.i32())
	w.Threads = int(r.i32())
	w.Geom.StripeLo = int(r.i32())
	w.Geom.StripeHi = int(r.i32())
	w.Geom.MasterParts = int(r.i32())
	w.Geom.PartMap = r.ints()
	w.Geom.ClipOff = r.ints()
	w.IsCAT = r.bool()
	w.NCats = int(r.i32())

	nTaxa := int(r.u32())
	if r.err != nil || nTaxa < 0 || nTaxa > 1<<24 {
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
	w.Pat = msa.FromParts(names, data, weights, parts)
	return w, nil
}

// BuildWorkerEngine constructs a remote rank's stripe engine from its
// init frame: placeholder default models and treatment shapes (the
// first job's model block overwrites them), a local thread crew over
// the stripe's own pattern axis.
func BuildWorkerEngine(w *WorkerInit) (*Engine, error) {
	n := w.Pat.NumParts()
	set := gtr.NewPartitionSet(n)
	for i, pr := range w.Pat.PartRanges() {
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
	var pool *threads.Pool
	if n > 1 {
		pool = threads.NewPoolWeighted(w.Threads, w.Pat.Weights)
	} else {
		pool = threads.NewPool(w.Threads, w.Pat.NumPatterns())
	}
	return NewPartitioned(w.Pat, set, Config{Pool: pool})
}
