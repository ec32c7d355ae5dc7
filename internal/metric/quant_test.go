package metric

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

// quantDims is the dimension grid the quantized property tests sweep:
// sub-alignment (1, 3), odd mid-size (17), the bench dimension (64),
// MNIST (784) and a multi-chunk size (4099 > 2^11) that exercises the
// per-chunk scale folding.
var quantDims = []int{1, 3, 17, 64, 784, 4099}

// TestQuantizedWithinErrorBound: across the dimension grid and
// adversarial magnitude mixes, the quantized distance must stay within
// the view's additive error bound of the exact distance for queries
// drawn from the data's envelope (here: queries are rows of the data).
func TestQuantizedWithinErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	exact := NewKernel(Euclidean{})
	scales := []struct {
		name string
		fill func(buf []float32)
	}{
		{"unit", func(buf []float32) {
			for i := range buf {
				buf[i] = rng.Float32()*4 - 2
			}
		}},
		{"tiny-1e-12", func(buf []float32) {
			for i := range buf {
				buf[i] = (rng.Float32()*4 - 2) * 1e-12
			}
		}},
		{"huge-1e12", func(buf []float32) {
			for i := range buf {
				buf[i] = (rng.Float32()*4 - 2) * 1e12
			}
		}},
		{"per-dim-magnitudes", func(buf []float32) {
			// Per-coordinate magnitude spread: each dimension gets its own
			// scale regime, stressing the shared per-chunk scale.
			for i := range buf {
				exp := (i % 7) - 3 // 1e-3 … 1e3 by dimension
				buf[i] = (rng.Float32()*4 - 2) * float32(math.Pow(10, float64(exp)))
			}
		}},
		{"offset-1e6", func(buf []float32) {
			for i := range buf {
				buf[i] = 1e6 + rng.Float32()
			}
		}},
	}
	for _, dim := range quantDims {
		for _, sc := range scales {
			np := 64
			pflat := make([]float32, np*dim)
			sc.fill(pflat)
			v := NewQuantizedView(pflat, dim)
			if v.ErrorBound() > QuantErrorBound(dim, v.MaxScale()) {
				t.Fatalf("dim=%d %s: view bound %v exceeds closed form %v",
					dim, sc.name, v.ErrorBound(), QuantErrorBound(dim, v.MaxScale()))
			}
			// Queries: rows of the data (guaranteed inside the envelope).
			var qc []int8
			got := make([]float64, np)
			want := make([]float64, np)
			for qi := 0; qi < np; qi += 7 {
				q := pflat[qi*dim : (qi+1)*dim]
				qc = v.QuantizeQuery(q, qc)
				v.OrderingRange(qc, 0, np, got)
				exact.Ordering(q, pflat, dim, want)
				for j := range want {
					de := math.Sqrt(want[j])
					dq := math.Sqrt(got[j])
					if err := math.Abs(de - dq); err > v.ErrorBound() {
						t.Fatalf("dim=%d %s q=%d p=%d: quant dist %v, exact %v, |err|=%v exceeds bound %v",
							dim, sc.name, qi, j, dq, de, err, v.ErrorBound())
					}
				}
			}
		}
	}
}

// TestQuantizedDuplicatesExactZero: identical rows quantize to identical
// codes, so the quantized ordering distance must be exactly zero and
// duplicates keep their razor-sharp ties.
func TestQuantizedDuplicatesExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for _, dim := range []int{1, 7, 64, 784} {
		np := 21
		pflat := randFlat(rng, np, dim)
		for i := range pflat {
			pflat[i] *= 1e4
		}
		q := make([]float32, dim)
		copy(q, pflat[13*dim:14*dim])
		v := NewQuantizedView(pflat, dim)
		qc := v.QuantizeQuery(q, nil)
		out := make([]float64, np)
		v.OrderingRange(qc, 0, np, out)
		if out[13] != 0 {
			t.Fatalf("dim=%d: duplicate row quantized distance %v, want exactly 0", dim, out[13])
		}
		for j, o := range out {
			if o < 0 || math.IsNaN(o) {
				t.Fatalf("dim=%d p=%d: quantized distance %v", dim, j, o)
			}
		}
	}
}

// TestQuantizedTileShapeInvariance: any split of the same row range —
// the blocks a scan walks in — must give bit-identical quantized values,
// planted ties included (integer accumulation has no evaluation order).
func TestQuantizedTileShapeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	for _, dim := range []int{3, 17, 64} {
		nq, np := 11, 41
		qflat := randFlat(rng, nq, dim)
		pflat := randFlat(rng, np, dim)
		copy(pflat[5*dim:6*dim], qflat[2*dim:3*dim]) // plant a tie
		v := NewQuantizedView(pflat, dim)
		var qc []int8
		full := make([]float64, np)
		got := make([]float64, np)
		for i := 0; i < nq; i++ {
			qc = v.QuantizeQuery(qflat[i*dim:(i+1)*dim], qc)
			v.OrderingRange(qc, 0, np, full)
			for _, tp := range []int{1, 7, 16, np} {
				for p0 := 0; p0 < np; p0 += tp {
					p1 := min(p0+tp, np)
					v.OrderingRange(qc, p0, p1, got[p0:p1])
				}
				for j := range full {
					if got[j] != full[j] {
						t.Fatalf("dim=%d q=%d split %d p=%d: block %v, full %v", dim, i, tp, j, got[j], full[j])
					}
				}
			}
		}
	}
}

// TestQuantizedAsmMatchesGo: the AVX2 scan kernel must agree bit for bit
// with the portable loop (integer accumulation is exact). Skipped where
// the asm path is unavailable.
func TestQuantizedAsmMatchesGo(t *testing.T) {
	if !useQuantAsm {
		t.Skip("no asm path on this CPU")
	}
	rng := rand.New(rand.NewSource(341))
	for _, stride := range []int{16, 32, 48, 64, 80, 784 + 16 - 784%16, 2048} {
		rows := 37
		qc := make([]int8, stride)
		codes := make([]int8, rows*stride)
		for i := range qc {
			qc[i] = int8(rng.Intn(255) - 127)
		}
		for i := range codes {
			codes[i] = int8(rng.Intn(255) - 127)
		}
		want := make([]int32, rows)
		got := make([]int32, rows)
		quantScanRowsGo(qc, codes, stride, rows, want)
		quantScanRowsAsm(qc, codes, stride, rows, got)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("stride=%d row %d: asm %d, go %d", stride, r, got[r], want[r])
			}
		}
	}
}

// TestQuantizedDegenerateAndEmpty: constant dimensions (scale 0) score
// zero everywhere, and empty/single-row views behave.
func TestQuantizedDegenerateAndEmpty(t *testing.T) {
	v := NewQuantizedView(nil, 4)
	if v.N() != 0 || v.ErrorBound() != 0 {
		t.Fatalf("empty view: n=%d bound=%v", v.N(), v.ErrorBound())
	}
	v.OrderingRange(v.QuantizeQuery([]float32{1, 2, 3, 4}, nil), 0, 0, nil)

	// All-constant data: every scale is 0, every distance exactly 0.
	flat := []float32{7, 7, 7, 7, 7, 7}
	v = NewQuantizedView(flat, 3)
	if v.MaxScale() != 0 || v.ErrorBound() != 0 {
		t.Fatalf("constant view: scale=%v bound=%v", v.MaxScale(), v.ErrorBound())
	}
	out := make([]float64, 2)
	v.OrderingRange(v.QuantizeQuery([]float32{7, 7, 7}, nil), 0, 2, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("constant view distances %v, want zeros", out)
	}
	v = NewQuantizedView([]float32{0, 1, 2, 3, 4, 5}, 3)
	if v.N() != 2 || v.Dim() != 3 || v.Stride() != quantAlign || v.Bytes() != 2*quantAlign {
		t.Fatalf("view geometry: n=%d dim=%d stride=%d bytes=%d", v.N(), v.Dim(), v.Stride(), v.Bytes())
	}
}

// quantBenchN is the n-sweep grid for the memory-bound crossover: 100k
// is past L2, 1M is past any cache on CI-class hardware.
var quantBenchN = []int{100_000, 1_000_000}

var (
	quantBenchMu   sync.Mutex
	quantBenchFlat = map[int][]float32{}
	quantBenchView = map[int]*QuantizedView{}
)

// quantBenchData builds (once per n) a dim-64 corpus and its view.
func quantBenchData(n int) ([]float32, *QuantizedView) {
	quantBenchMu.Lock()
	defer quantBenchMu.Unlock()
	if f, ok := quantBenchFlat[n]; ok {
		return f, quantBenchView[n]
	}
	rng := rand.New(rand.NewSource(int64(n)))
	f := make([]float32, n*64)
	for i := range f {
		f[i] = rng.Float32()
	}
	quantBenchFlat[n] = f
	quantBenchView[n] = NewQuantizedView(f, 64)
	return f, quantBenchView[n]
}

// BenchmarkRowScanN sweeps the single-query row scan across corpus sizes
// at dim 64 — the memory-bound regime the int8 view targets — on the
// exact kernel and on the view. The quantized variant includes the
// per-scan query quantization; the view (an index-build artifact) is
// excluded.
func BenchmarkRowScanNExact(b *testing.B) {
	k := NewKernel(Euclidean{})
	for _, n := range quantBenchN {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			flat, _ := quantBenchData(n)
			q := flat[:64]
			out := make([]float64, n)
			b.SetBytes(int64(len(flat) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Ordering(q, flat, 64, out)
			}
		})
	}
}

func BenchmarkRowScanNQuantized(b *testing.B) {
	for _, n := range quantBenchN {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			flat, v := quantBenchData(n)
			q := flat[:64]
			out := make([]float64, n)
			var qc []int8
			b.SetBytes(int64(v.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qc = v.QuantizeQuery(q, qc)
				v.OrderingRange(qc, 0, n, out)
			}
		})
	}
}

// TestQuantizedRowFasterSmoke asserts the int8 row scan is faster than
// the exact row scan at n=100k dim 64 — the memory-bound regime the view
// exists for (measured ≥ 3×). Timing assertion, so it only runs when
// RBC_BENCH_SMOKE=1; the stricter >=2x gate at n=1M lives in the
// bench-regression job via cmd/benchcmp.
func TestQuantizedRowFasterSmoke(t *testing.T) {
	if os.Getenv("RBC_BENCH_SMOKE") == "" {
		t.Skip("timing assertion; set RBC_BENCH_SMOKE=1 to run")
	}
	const n, dim = 100_000, 64
	flat, v := quantBenchData(n)
	q := flat[:dim]
	out := make([]float64, n)
	exact := NewKernel(Euclidean{})
	var qc []int8
	time10 := func(scan func()) float64 {
		scan() // warm
		best := math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < 10; i++ {
				scan()
			}
			if s := time.Since(start).Seconds(); s < best {
				best = s
			}
		}
		return best
	}
	te := time10(func() { exact.Ordering(q, flat, dim, out) })
	tq := time10(func() {
		qc = v.QuantizeQuery(q, qc)
		v.OrderingRange(qc, 0, n, out)
	})
	ratio := te / tq
	t.Logf("n=%d dim=%d: exact %.3fms quantized %.3fms ratio %.2fx", n, dim, te*1e3, tq*1e3, ratio)
	if ratio <= 1 {
		t.Fatalf("quantized row scan not faster than exact at n=%d (ratio %.2f)", n, ratio)
	}
}
