package likelihood

import (
	"testing"
	"time"

	"raxml/internal/msa"
	"raxml/internal/rng"
)

// BenchmarkKernelTable times the matrix-product entries of every kernel
// set one at a time on the wide input's pattern count (790), CAT at 25
// categories and GAMMA at 4, over random inputs that stay clear of the
// rescale branch; the blocked entries (scan join, evaluate, site tail)
// run in logBlockLen blocks, as the engine calls them. The inputs fit in
// L2, so this is the kernels' own cost, not the arena's streaming.
// min_ns/pattern is the fastest of the b.N calls per pattern: on a shared
// host the minimum is the stable statistic where the mean is not.
func BenchmarkKernelTable(b *testing.B) {
	const n, npc = 790, 25
	r := rng.New(9)
	vals := func(m int) []float64 {
		out := make([]float64, m)
		for i := range out {
			out[i] = 0.05 + r.Float64()
		}
		return out
	}
	lv, rv, lv16, rv16 := vals(n*4), vals(n*4), vals(n*16), vals(n*16)
	lut, lut16 := vals(64*npc), vals(256)
	pm := make([][16]float64, npc)
	for c := range pm {
		copy(pm[c][:], vals(16))
	}
	pcat, codes := make([]int, n), make([]msa.State, n)
	for i := range pcat {
		pcat[i] = r.Intn(npc)
		codes[i] = msa.State(1 << r.Intn(4))
	}
	sc, w := make([]int32, n), make([]int, n)
	for i := range w {
		w[i] = 1 + r.Intn(3)
	}
	dst, dsc, out := make([]float64, n*16), make([]int32, n), make([]float64, logBlockLen)
	freqs := &[4]float64{0.2, 0.3, 0.25, 0.25}
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	blocks := func(f func(lo, hi int)) {
		for lo := 0; lo < n; lo += logBlockLen {
			f(lo, min(lo+logBlockLen, n))
		}
	}
	for _, kt := range kernelTables() {
		entries := []struct {
			name string
			run  func()
		}{
			{"newviewIICAT", func() { kt.newviewIICAT(dst[:n*4], lv, rv, pm, pm, pcat, npc-1, sc, sc, dsc) }},
			{"newviewTICAT", func() { kt.newviewTICAT(dst[:n*4], codes, lut, rv, pm, pcat, npc-1, sc, dsc) }},
			{"newviewII4", func() { kt.newviewII4(dst, lv16, rv16, pm[:4], pm[4:8], sc, sc, dsc) }},
			{"newviewTI4", func() { kt.newviewTI4(dst, codes, lut16, rv16, pm[:4], sc, dsc) }},
			{"pendantCAT", func() { kt.pendant(dst[:n*4], lv, 4, pm, pcat, npc-1, 1) }},
			{"scanJoinCAT", func() {
				blocks(func(lo, hi int) {
					kt.scanJoinCAT(out[:hi-lo], lv[lo*4:hi*4], rv[lo*4:hi*4], lv[lo*4:hi*4], pcat[lo:hi], npc-1, pm, freqs, w[lo:hi])
				})
			}},
			{"scanJoinGamma", func() {
				blocks(func(lo, hi int) {
					kt.scanJoinGamma(out[:hi-lo], lv16[lo*16:hi*16], 16, rv16[lo*16:hi*16], 16, lv16[lo*16:hi*16], pm[:4], freqs, probs, w[lo:hi])
				})
			}},
			{"evaluateCAT", func() {
				blocks(func(lo, hi int) {
					kt.evaluate(out[:hi-lo], lv[lo*4:hi*4], 4, rv[lo*4:hi*4], 4, pm, pcat[lo:hi], npc-1, freqs, nil)
				})
			}},
			{"evaluateGamma", func() {
				blocks(func(lo, hi int) {
					kt.evaluate(out[:hi-lo], lv16[lo*16:hi*16], 16, rv16[lo*16:hi*16], 16, pm[:4], nil, 0, freqs, probs)
				})
			}},
			{"siteTail", func() {
				blocks(func(lo, hi int) { kt.siteTail(out[:hi-lo], sc[lo:hi], sc[lo:hi], sc[lo:hi], w[lo:hi]) })
			}},
		}
		for _, en := range entries {
			b.Run(kt.name+"/"+en.name, func(b *testing.B) {
				best := time.Duration(1 << 62)
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					en.run()
					best = min(best, time.Since(t0))
				}
				b.ReportMetric(float64(best.Nanoseconds())/n, "min_ns/pattern")
			})
		}
	}
}
