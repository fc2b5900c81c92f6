package likelihood

import (
	"encoding/binary"
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

// validJobFrame hand-builds the smallest well-formed job frame: a
// JobNewview with no model block, no views and no entries.
func validJobFrame() []byte {
	b := []byte{byte(threads.JobNewview), 0}
	b = binary.LittleEndian.AppendUint32(b, 16) // MaxNode
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.125))
	b = append(b, 0)                           // NViews
	b = binary.LittleEndian.AppendUint32(b, 0) // entry count
	return b
}

func FuzzDecodeDescriptor(f *testing.F) {
	frame := validJobFrame()
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
	model, eng, geom := modelFrame(f)
	f.Add(model)
	for _, c := range []int32{1, 7, -1, math.MinInt32} {
		bad := append([]byte(nil), model...)
		binary.LittleEndian.PutUint32(bad[modelFrameCatOffset(eng.nPatterns):], uint32(c))
		if j, err := DecodeWireJob(bad); err != nil || j.Model.Parts[0].CatAssign[0] != int(c) {
			f.Fatalf("patched category %d did not land: %v", c, err)
		}
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var j WireJob
		_ = DecodeWireJobInto(&j, data)
		// Decode again into the same struct: slab reuse must be as safe
		// on a hostile frame as on the steady-state path.
		if err := DecodeWireJobInto(&j, data); err == nil && j.Model != nil {
			// Whatever decoded must install or be refused, never panic
			// — and must never leave a category the kernels would follow
			// out of their matrix block.
			_ = eng.ApplyWireModel(j.Model, geom)
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
// small one-partition CAT engine, and a worker engine (with its
// geometry) over the same patterns to install such blocks on.
func modelFrame(t testing.TB) ([]byte, *Engine, *WorkerGeom) {
	_, master, _ := scanFrame(t, 1, true)
	frame := append([]byte(nil), master.EncodeWireJob(threads.JobInsertScan, true, false)...)
	n := master.nPatterns
	geom := &WorkerGeom{StripeLo: 0, StripeHi: n, MasterParts: 1, PartMap: []int{0}, ClipOff: []int{0}}
	worker, err := BuildWorkerEngine(&WorkerInit{Rank: 1, Ranks: 2, Threads: 1, Geom: *geom, Pat: master.pat, IsCAT: true, NCats: 1})
	if err != nil {
		t.Fatal(err)
	}
	return frame, worker, geom
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
	init := &WorkerInit{
		Rank: 1, Ranks: 2, Threads: 1,
		Geom: WorkerGeom{
			StripeLo: 0, StripeHi: pat.NumPatterns(), MasterParts: pat.NumParts(),
			PartMap: []int{0}, ClipOff: []int{0},
		},
		Pat: pat, NCats: 4,
	}
	good := EncodeWorkerInit(init)
	if _, err := DecodeWorkerInit(good); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
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
