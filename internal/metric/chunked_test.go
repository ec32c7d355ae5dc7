package metric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// chunkedDims is the dimension grid the error-bound property tests sweep:
// sub-lane (1, 3), odd mid-size (17), the bench dimension (64), MNIST
// (784) and a multi-chunk size (4099 > 2^11) that exercises the per-chunk
// float64 folding.
var chunkedDims = []int{1, 3, 17, 64, 784, 4099}

// chunkedAbsFloor is the absolute underflow floor of the chunked error
// contract: each term's square can underflow float32 by at most the
// smallest normal float32.
func chunkedAbsFloor(dim int) float64 { return float64(dim) * 0x1p-126 }

// TestChunkedWithinErrorBound: across the dimension grid and adversarial
// magnitude mixes, the chunked tile must stay within the derived relative
// error bound of the exact kernel (plus the underflow floor).
func TestChunkedWithinErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	exact := NewKernel(Euclidean{})
	chunked := NewChunkedKernel(Euclidean{})
	// Magnitude regimes: uniform tiny/unit/huge scales plus a per-
	// coordinate mix spanning 24 orders of magnitude, and a near-
	// cancellation set (points clustered around a large offset).
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
		{"mixed-magnitudes", func(buf []float32) {
			for i := range buf {
				exp := rng.Intn(25) - 12 // 1e-12 … 1e12
				buf[i] = (rng.Float32()*4 - 2) * float32(math.Pow(10, float64(exp)))
			}
		}},
		{"near-cancellation", func(buf []float32) {
			for i := range buf {
				buf[i] = 1e6 + rng.Float32() // squared diffs ~1 vs coords ~1e12
			}
		}},
	}
	for _, dim := range chunkedDims {
		bound := ChunkedErrorBound(dim)
		floor := chunkedAbsFloor(dim)
		for _, sc := range scales {
			nq, np := 4, 13
			qflat := make([]float32, nq*dim)
			pflat := make([]float32, np*dim)
			sc.fill(qflat)
			sc.fill(pflat)
			want := make([]float64, nq*np)
			got := make([]float64, nq*np)
			exact.Tile(qflat, nil, pflat, nil, dim, want, nil)
			chunked.Tile(qflat, nil, pflat, nil, dim, got, nil)
			for i := range want {
				if math.IsInf(got[i], 1) || math.IsNaN(got[i]) {
					t.Fatalf("dim=%d %s pair %d: chunked %v (inputs within float32 square range)", dim, sc.name, i, got[i])
				}
				if err := math.Abs(got[i] - want[i]); err > bound*want[i]+floor {
					t.Fatalf("dim=%d %s pair %d: chunked %v, exact %v, |err|=%v exceeds %v·exact+%v",
						dim, sc.name, i, got[i], want[i], err, bound, floor)
				}
			}
		}
	}
}

// TestChunkedDuplicatesExactZero: for bit-identical rows every float32
// difference is exactly zero, so the chunked ordering distance must be
// exactly zero — duplicates keep their razor-sharp ties in the chunked
// grade too.
func TestChunkedDuplicatesExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	k := NewChunkedKernel(Euclidean{})
	for _, dim := range []int{1, 7, 64, 784} {
		np := 21
		pflat := randFlat(rng, np, dim)
		for i := range pflat {
			pflat[i] *= 1e4
		}
		q := make([]float32, dim)
		copy(q, pflat[13*dim:14*dim])
		out := make([]float64, np)
		k.Tile(q, nil, pflat, nil, dim, out, nil)
		if out[13] != 0 {
			t.Fatalf("dim=%d: duplicate row chunked distance %v, want exactly 0", dim, out[13])
		}
		for j, o := range out {
			if o < 0 || math.IsNaN(o) {
				t.Fatalf("dim=%d p=%d: chunked distance %v", dim, j, o)
			}
		}
	}
}

// TestChunkedTileShapeInvariance: any tiling of the same (Q, X) must give
// bit-identical chunked values, and the chunked Tile must be bit-identical
// to the chunked Ordering row scan (they share the per-pair loop).
func TestChunkedTileShapeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(291))
	k := NewChunkedKernel(Euclidean{})
	for _, dim := range []int{3, 17, 64} {
		nq, np := 11, 41
		qflat := randFlat(rng, nq, dim)
		pflat := randFlat(rng, np, dim)
		copy(pflat[5*dim:6*dim], qflat[2*dim:3*dim]) // plant a tie
		full := make([]float64, nq*np)
		k.Tile(qflat, nil, pflat, nil, dim, full, nil)
		for _, tiling := range [][2]int{{1, np}, {nq, 1}, {4, 16}, {3, 7}} {
			tq, tp := tiling[0], tiling[1]
			got := make([]float64, nq*np)
			for q0 := 0; q0 < nq; q0 += tq {
				q1 := min(q0+tq, nq)
				for p0 := 0; p0 < np; p0 += tp {
					p1 := min(p0+tp, np)
					tile := make([]float64, (q1-q0)*(p1-p0))
					k.Tile(qflat[q0*dim:q1*dim], nil, pflat[p0*dim:p1*dim], nil, dim, tile, nil)
					for i := q0; i < q1; i++ {
						copy(got[i*np+p0:i*np+p1], tile[(i-q0)*(p1-p0):(i-q0+1)*(p1-p0)])
					}
				}
			}
			for i := range full {
				if got[i] != full[i] {
					t.Fatalf("dim=%d tiling %dx%d: tile[%d]=%v, full=%v", dim, tq, tp, i, got[i], full[i])
				}
			}
		}
		row := make([]float64, np)
		for i := 0; i < nq; i++ {
			k.Ordering(qflat[i*dim:(i+1)*dim], pflat, dim, row)
			for j := range row {
				if full[i*np+j] != row[j] {
					t.Fatalf("dim=%d q=%d p=%d: tile %v, row %v (Tile and Ordering must share bits)",
						dim, i, j, full[i*np+j], row[j])
				}
			}
		}
	}
}

// TestChunkedKernelSurface pins the grade bookkeeping every consumer
// gates on.
func TestChunkedKernelSurface(t *testing.T) {
	e := Euclidean{}
	exact, fast, chunked := NewKernel(e), NewFastKernel(e), NewChunkedKernel(e)
	if exact.IsFast() || !fast.IsFast() || !chunked.IsFast() {
		t.Fatalf("IsFast: exact=%v fast=%v chunked=%v", exact.IsFast(), fast.IsFast(), chunked.IsFast())
	}
	if exact.Grade() != GradeExact || fast.Grade() != GradeFast || chunked.Grade() != GradeChunked {
		t.Fatalf("grades: %v %v %v", exact.Grade(), fast.Grade(), chunked.Grade())
	}
	for g, want := range map[Grade]string{GradeExact: "exact", GradeFast: "fast", GradeChunked: "chunked"} {
		if g.String() != want {
			t.Fatalf("Grade(%d).String() = %q", g, g.String())
		}
		if NewGradeKernel(e, g).Grade() != g {
			t.Fatalf("NewGradeKernel round trip failed for %v", g)
		}
	}
	if chunked.NeedsNorms() {
		t.Fatal("chunked kernel must not request norms")
	}
	if n := chunked.Norms([]float32{1, 2, 3}, 3, nil); n != nil {
		t.Fatalf("chunked Norms = %v, want nil", n)
	}
	if b := chunked.OrderingBound(2.0); !math.IsInf(b, 1) {
		t.Fatalf("chunked OrderingBound = %v, want +Inf (no one-ulp bound is safe)", b)
	}
}

// TestChunkedNonEuclideanFallsBackToFast: metrics without a chunked
// implementation must behave exactly like their Gram-fast kernel.
func TestChunkedNonEuclideanFallsBackToFast(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, m := range []Metric[[]float32]{Manhattan{}, Chebyshev{}, NewMinkowski(2.5)} {
		dim := 5
		qflat := randFlat(rng, 3, dim)
		pflat := randFlat(rng, 8, dim)
		want := make([]float64, 24)
		got := make([]float64, 24)
		NewFastKernel(m).Tile(qflat, nil, pflat, nil, dim, want, nil)
		NewChunkedKernel(m).Tile(qflat, nil, pflat, nil, dim, got, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s pair %d: chunked %v, fast %v", m.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestChunkedErrorBoundShape: the bound must be positive, monotone in dim
// and saturate at the chunk size (folding caps per-chunk accumulation).
func TestChunkedErrorBoundShape(t *testing.T) {
	prev := 0.0
	for _, dim := range []int{1, 8, 64, 2048} {
		b := ChunkedErrorBound(dim)
		if b <= 0 || b >= 1e-3 {
			t.Fatalf("dim=%d: bound %v out of range", dim, b)
		}
		if b < prev {
			t.Fatalf("dim=%d: bound %v not monotone", dim, b)
		}
		prev = b
	}
	if ChunkedErrorBound(1<<20) != ChunkedErrorBound(1<<11) {
		t.Fatal("bound must saturate at the chunk size")
	}
}

func BenchmarkRowKernelExact(b *testing.B) { benchmarkRowKernel(b, NewKernel(Euclidean{}).Ordering) }
func BenchmarkRowKernelChunked(b *testing.B) {
	benchmarkRowKernel(b, NewChunkedKernel(Euclidean{}).Ordering)
}

// benchmarkRowKernel measures a single-query row scan (the shape the
// per-query search paths live on) at the standard dimension sweep.
func benchmarkRowKernel(b *testing.B, row func(q, flat []float32, dim int, out []float64)) {
	for _, dim := range []int{16, 64, 256, 784} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			q, flat, out := benchVectors(dim)
			b.SetBytes(int64(len(flat) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row(q, flat, dim, out)
			}
		})
	}
}
