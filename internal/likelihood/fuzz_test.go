package likelihood

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"raxml/internal/msa"
	"raxml/internal/threads"
)

// Fuzz targets for the wire codecs: every decoder must reject
// truncated, corrupt and hostile frames with an error — never a panic,
// never an over-read, never a huge allocation from a lying count.
// These are the frames a chaos run's bit flips (or a desynced stream)
// can hand the decoders after slipping past no CRC at all, e.g. over
// the in-proc chan transport.

// wireJobFrame hand-builds a job frame of a code without payload: no
// model block, branch length 0.125, the given views and entries.
// wireJobFrame(threads.JobNewview, 16, nil) is the smallest well-formed
// frame.
func wireJobFrame(code threads.JobCode, maxNode uint32, views []WireView, entries ...WireEntry) []byte {
	b := appendU32([]byte{byte(code), 0}, maxNode)
	b = append(appendF64(b, 0.125), byte(len(views)))
	for _, v := range views {
		b = appendView(b, v)
	}
	b = appendU32(b, uint32(len(entries)))
	for _, we := range entries {
		for _, v := range []int32{we.Node, we.Slot, we.C1, we.C1Slot, we.C1Tax, we.C2, we.C2Slot, we.C2Tax} {
			b = appendI32(b, v)
		}
		b = appendF64(appendF64(b, we.Len1), we.Len2)
	}
	return b
}

// outOfRangeFrames are job frames that decode cleanly but name what no
// master over modelFrame's 12 taxa can send: a destination node below 0
// or at the frame's node capacity and beyond, a tip of a 10 000th or of
// a negative taxon, an evaluation with one view, a node capacity of
// 2^31. Each of them once panicked inside ExecWireJob. A newview into a
// tip's node or into node 22 of a 24-node capacity is refused too: 12
// taxa have 10 internal nodes, ids 12 to 21, and the engine reserves
// tiles for their 30 directed views only.
func outOfRangeFrames() map[string][]byte {
	tips := WireEntry{Node: 12, C1Tax: 0, C2Tax: 1, Len1: 0.1, Len2: 0.1}
	neg, high, tipNode, extra := tips, tips, tips, tips
	neg.Node, high.Node, tipNode.Node, extra.Node = -1, 150, 3, 22
	tip := func(taxon int32) WireView { return WireView{Tip: true, Taxon: taxon} }
	return map[string][]byte{
		"entry node -1":          wireJobFrame(threads.JobNewview, 16, nil, neg),
		"entry node 150 of 16":   wireJobFrame(threads.JobNewview, 16, nil, high),
		"entry node 3 (a tip)":   wireJobFrame(threads.JobNewview, 16, nil, tipNode),
		"entry node 22 of 24":    wireJobFrame(threads.JobNewview, 24, nil, extra),
		"tip view taxon 9999":    wireJobFrame(threads.JobEvaluate, 16, []WireView{tip(9999), tip(1)}),
		"tip view taxon -1":      wireJobFrame(threads.JobEvaluate, 16, []WireView{tip(1), tip(-1)}),
		"evaluate with one view": wireJobFrame(threads.JobEvaluate, 16, []WireView{tip(0)}),
		"node capacity 2^31":     wireJobFrame(threads.JobNewview, 1<<31, nil, tips),
	}
}

// TestExecWireJobRejectsOutOfRange holds a worker to refusing, as
// ErrWireDesync, every frame of outOfRangeFrames, while the same frames
// with their ids in range execute.
func TestExecWireJobRejectsOutOfRange(t *testing.T) {
	_, newWorker := modelFrame(t)
	tips := WireEntry{Node: 12, C1Tax: 0, C2Tax: 1, Len1: 0.1, Len2: 0.1}
	eval := []WireView{{Tip: true, Taxon: 2}, {Node: 12, Slot: 0}}
	for name, frame := range map[string][]byte{
		"newview":  wireJobFrame(threads.JobNewview, 16, nil, tips),
		"evaluate": wireJobFrame(threads.JobEvaluate, 16, eval, tips),
	} {
		job, err := decodeWireJob(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := newWorker().ExecWireJob(job); err != nil {
			t.Fatalf("%s in range: %v", name, err)
		}
	}
	for name, frame := range outOfRangeFrames() {
		job, err := decodeWireJob(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := newWorker().ExecWireJob(job); !errors.Is(err, ErrWireDesync) {
			t.Errorf("%s: ExecWireJob returned %v, want ErrWireDesync", name, err)
		}
	}
}

// FuzzDecodeDescriptor decodes every input as a job frame and executes
// what decodes on a fresh worker engine, twice — the second run meets the
// tiles and memo blocks the first one left — stopping at the first
// error, as a worker's session does.
func FuzzDecodeDescriptor(f *testing.F) {
	frame := wireJobFrame(threads.JobNewview, 16, nil)
	f.Add([]byte{})
	f.Add(frame)
	f.Add(frame[:len(frame)-3]) // truncated
	// An entry count far beyond the buffer: the pre-loop bound must
	// refuse it instead of looping 2^30 times or allocating for it.
	lie := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(lie[len(lie)-4:], 1<<30)
	f.Add(lie)
	// Scan frames: an empty candidate block (hand-built: the engine never
	// posts an empty scan), one and forty candidates with their union
	// descriptor, and a candidate count the remaining bytes cannot hold.
	empty := []byte{byte(threads.JobInsertScan), 0}
	empty = binary.LittleEndian.AppendUint32(empty, 16)
	empty = binary.LittleEndian.AppendUint64(empty, math.Float64bits(0.125))
	empty = appendView(append(empty, 1), WireView{Node: 3, Slot: 1})
	empty = binary.LittleEndian.AppendUint32(empty, 0) // candidate count
	empty = binary.LittleEndian.AppendUint32(empty, 0) // entry count
	f.Add(empty)
	for _, n := range []int{1, 40} {
		scan, _, _ := scanFrame(f, n, true)
		f.Add(scan)
		lie := append([]byte(nil), scan...)
		binary.LittleEndian.PutUint32(lie[scanCountOffset:], 1<<30)
		f.Add(lie)
	}
	// Frames with a model-sync block: the genuine one, and the same with
	// one pattern's rate category beyond the shipped rates and negative.
	// The init frame carries no categories (a worker's treatment arrives
	// with its first job), so this is where a category enters a rank.
	model, newWorker := modelFrame(f)
	f.Add(model)
	nPatterns := newWorker().nPatterns
	for _, c := range []int32{1, 7, -1, math.MinInt32} {
		bad := append([]byte(nil), model...)
		binary.LittleEndian.PutUint32(bad[modelFrameCatOffset(nPatterns):], uint32(c))
		if j, err := decodeWireJob(bad); err != nil || j.Model.Parts[0].CatAssign[0] != int(c) {
			f.Fatalf("patched category %d did not land: %v", c, err)
		}
		f.Add(bad)
	}
	for _, frame := range outOfRangeFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var j WireJob
		_ = DecodeWireJobInto(&j, data)
		// Decode again into the same struct: slab reuse must be as safe
		// on a hostile frame as on the steady-state path.
		if err := DecodeWireJobInto(&j, data); err == nil {
			// Whatever decoded must run or be refused, never panic — and
			// must never leave a category the kernels would follow out of
			// their matrix block.
			eng := newWorker()
			for pass := 0; pass < 2 && err == nil; pass++ {
				_, err = eng.ExecWireJob(&j)
			}
			for i := range eng.parts {
				ps := &eng.parts[i]
				for _, c := range ps.rates.PatternCategory {
					if c < 0 || c > ps.maxCat || ps.maxCat >= ps.rates.NumCats() {
						t.Fatalf("category %d installed beside top %d of %d", c, ps.maxCat, ps.rates.NumCats())
					}
				}
			}
		}
	})
}

// modelFrame returns a scan frame carrying the model-sync block of a
// small one-partition CAT engine over 12 taxa, and a builder of worker
// engines over the same patterns, each computing the whole axis, to run
// such frames on.
func modelFrame(t testing.TB) ([]byte, func() *Engine) {
	_, master, _ := scanFrame(t, 1, true)
	frame := append([]byte(nil), master.EncodeWireJob(threads.JobInsertScan, true, false)...)
	init := &WorkerInit{Threads: 1, Stripe: threads.Range{Hi: master.nPatterns}, Pat: master.pat, IsCAT: true, NCats: 1}
	return frame, func() *Engine {
		worker, err := BuildWorkerEngine(init)
		if err != nil {
			t.Fatal(err)
		}
		return worker
	}
}

// modelFrameCatOffset is the byte offset of pattern 0's rate category in
// modelFrame's frame: code, flags and node capacity, the weight vector,
// the CAT flag and partition count, partition 0's ten model parameters,
// its one category rate, no probabilities, the assignment's length.
func modelFrameCatOffset(nPatterns int) int {
	return 6 + (4 + 4*nPatterns) + 1 + 4 + 10*8 + (4 + 8) + 4 + 4
}

func FuzzDecodeWirePartial(f *testing.F) {
	valid := make([]byte, 0, 24)
	valid = binary.LittleEndian.AppendUint64(valid, math.Float64bits(-123.5))
	valid = binary.LittleEndian.AppendUint64(valid, math.Float64bits(4.25))
	valid = binary.LittleEndian.AppendUint32(valid, 0) // wide count
	valid = binary.LittleEndian.AppendUint32(valid, 0) // vec count
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:9])
	lie := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(lie[16:20], 1<<31-1)
	f.Add(lie)
	// A scan's partial: one wide value per candidate.
	scan := append([]byte(nil), valid[:16]...)
	scan = binary.LittleEndian.AppendUint32(scan, 40)
	for i := 0; i < 40; i++ {
		scan = binary.LittleEndian.AppendUint64(scan, math.Float64bits(-1000-float64(i)))
	}
	scan = binary.LittleEndian.AppendUint32(scan, 0) // vec count
	f.Add(scan)
	// A gathered setup's partial: sumtable rows in the per-pattern block —
	// whole, with a count larger than the rows that follow, cut short
	// inside a row, and with a count whose byte length (× 8) wraps a
	// 32-bit int to something small.
	rows := append([]byte(nil), valid[:20]...)
	rows = binary.LittleEndian.AppendUint32(rows, 12)
	for i := 0; i < 12; i++ {
		rows = binary.LittleEndian.AppendUint64(rows, math.Float64bits(1e-3*float64(i)))
	}
	f.Add(rows)
	oversized := append([]byte(nil), rows...)
	binary.LittleEndian.PutUint32(oversized[20:24], 13)
	f.Add(oversized)
	f.Add(rows[:len(rows)-5])
	wraps := append([]byte(nil), rows...)
	binary.LittleEndian.PutUint32(wraps[20:24], 1<<29+1) // × 8 = 2^32 + 8
	f.Add(wraps)
	f.Fuzz(func(t *testing.T, data []byte) {
		var p WirePartial
		for pass := 0; pass < 2; pass++ {
			if err := DecodeWirePartialInto(&p, data); err != nil {
				continue
			}
			// What decoded accounts for every byte of the frame, and the
			// block is a whole number of values inside it.
			if got := 16 + 4 + 8*len(p.Wide) + 4 + len(p.Vec); got != len(data) || len(p.Vec)%8 != 0 {
				t.Fatalf("decoded %d wide and %d block bytes out of a %d-byte frame", len(p.Wide), len(p.Vec), len(data))
			}
		}
	})
}

func FuzzDecodeWorkerInit(f *testing.F) {
	// Seed with a genuine init frame over a tiny compressed alignment.
	a := &msa.Alignment{Names: []string{"t0", "t1", "t2", "t3"}}
	for i := range a.Names {
		row := make([]msa.State, 8)
		for j := range row {
			row[j] = msa.EncodeChar("ACGT"[(i+j)%4])
		}
		a.Seqs = append(a.Seqs, row)
	}
	pat, err := msa.Compress(a)
	if err != nil {
		f.Fatal(err)
	}
	init := &WorkerInit{Threads: 1, Stripe: threads.Range{Lo: 1, Hi: pat.NumPatterns()}, Pat: pat, NCats: 4}
	good := EncodeWorkerInit(init)
	if _, err := DecodeWorkerInit(good); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	// Frames whose CLV width is not the one their rate treatment runs.
	for _, w := range []WorkerInit{{NCats: 8}, {IsCAT: true, NCats: GammaCats}} {
		w.Threads, w.Stripe, w.Pat = init.Threads, init.Stripe, pat
		frame := EncodeWorkerInit(&w)
		if _, err := DecodeWorkerInit(frame); err == nil {
			f.Fatalf("init frame with IsCAT %v and NCats %d decoded", w.IsCAT, w.NCats)
		}
		f.Add(frame)
	}
	// The one index an init frame hands the kernels is the tip state
	// code (rate categories arrive with the first job's model block, see
	// FuzzDecodeDescriptor): the same frame with codes past the sixteen a
	// lookup table holds.
	pat.Data[0][0], pat.Data[3][pat.NumPatterns()-1] = 16, 255
	bad := EncodeWorkerInit(init)
	if _, err := DecodeWorkerInit(bad); err == nil {
		f.Fatal("init frame with state codes 16 and 255 decoded")
	}
	f.Add(bad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWorkerInit(data)
		if err != nil {
			return
		}
		for _, row := range w.Pat.Data {
			for _, s := range row {
				if s > msa.Gap {
					t.Fatalf("decoded state code %d", s)
				}
			}
		}
	})
}
