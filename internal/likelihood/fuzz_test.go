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
	f.Fuzz(func(t *testing.T, data []byte) {
		var j WireJob
		_ = DecodeWireJobInto(&j, data)
		// Decode again into the same struct: slab reuse must be as safe
		// on a hostile frame as on the steady-state path.
		_ = DecodeWireJobInto(&j, data)
	})
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var p WirePartial
		_ = DecodeWirePartialInto(&p, data)
		_ = DecodeWirePartialInto(&p, data)
	})
}

func FuzzDecodeWorkerInit(f *testing.F) {
	// Seed with a genuine init frame over a tiny compressed alignment.
	a := &msa.Alignment{Names: []string{"t0", "t1", "t2"}}
	for range a.Names {
		row := make([]msa.State, 8)
		for j := range row {
			row[j] = msa.EncodeChar("ACGT"[j%4])
		}
		a.Seqs = append(a.Seqs, row)
	}
	if pat, err := msa.Compress(a); err == nil {
		f.Add(EncodeWorkerInit(&WorkerInit{
			Rank: 1, Ranks: 2, Threads: 1,
			Geom: WorkerGeom{
				StripeLo: 0, StripeHi: pat.NumPatterns(), MasterParts: pat.NumParts(),
				PartMap: []int{0}, ClipOff: []int{0},
			},
			Pat: pat, NCats: 4,
		}))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeWorkerInit(data)
	})
}
