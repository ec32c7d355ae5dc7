package metric

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// blockedDims stresses remainder handling in both loop nests: the lane
// tail inside each chunk (dims not ≡ 0 mod 8) and the chunk boundary
// itself (4099 > chunkDims).
var blockedDims = []int{1, 3, 17, 64, 784, 4099}

// blockedScales mixes magnitude regimes so the float32 lane sums see
// cancellation and dynamic range, not just uniform [0,1) data.
var blockedScales = []float32{1e-3, 1, 1e3}

// TestBlockedRowBitStability: the register-blocked row must be
// bit-identical to the unblocked chunked row for every point count that
// exercises a different mix of the width-4 / width-2 / width-1 paths.
func TestBlockedRowBitStability(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, dim := range blockedDims {
		for _, scale := range blockedScales {
			for _, np := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 31} {
				q := randFlat(rng, 1, dim)
				flat := randFlat(rng, np, dim)
				for i := range q {
					q[i] *= scale
				}
				for i := range flat {
					flat[i] *= scale
				}
				want := make([]float64, np)
				got := make([]float64, np)
				euclidChunkedRow(q, flat, dim, want)
				euclidChunkedRowBlocked(q, flat, dim, got)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("dim=%d scale=%g np=%d point %d: blocked %v, unblocked %v",
							dim, scale, np, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestBlockedWidthsAgree pins the three block widths against the width-1
// pair reference directly, so a regression in quad or duo cannot hide
// behind the row driver's path selection.
func TestBlockedWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for _, dim := range blockedDims {
		q := randFlat(rng, 1, dim)
		flat := randFlat(rng, 4, dim)
		ref := make([]float64, 4)
		for j := 0; j < 4; j++ {
			ref[j] = euclidChunkedPair(q, flat[j*dim:(j+1)*dim])
		}
		var quad [4]float64
		euclidChunkedQuad(q, flat, dim, quad[:])
		var duo [2]float64
		euclidChunkedDuo(q, flat[:2*dim], dim, duo[:])
		for j := 0; j < 4; j++ {
			if quad[j] != ref[j] {
				t.Fatalf("dim=%d: quad[%d] = %v, pair = %v", dim, j, quad[j], ref[j])
			}
		}
		for j := 0; j < 2; j++ {
			if duo[j] != ref[j] {
				t.Fatalf("dim=%d: duo[%d] = %v, pair = %v", dim, j, duo[j], ref[j])
			}
		}
	}
}

// TestBlockedTileMatchesOrdering: with the blocked path active inside
// Tile (np >= blockedMinPoints), Tile must still agree bitwise with the
// (unblocked) Ordering reference row — the chunked grade's Tile≡Ordering
// contract survives register blocking.
func TestBlockedTileMatchesOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	k := NewChunkedKernel(Euclidean{})
	for _, dim := range blockedDims {
		nq, np := 3, 2*blockedMinPoints+3
		qflat := randFlat(rng, nq, dim)
		pflat := randFlat(rng, np, dim)
		tile := make([]float64, nq*np)
		k.Tile(qflat, nil, pflat, nil, dim, tile, nil)
		row := make([]float64, np)
		for i := 0; i < nq; i++ {
			k.Ordering(qflat[i*dim:(i+1)*dim], pflat, dim, row)
			for j := range row {
				if tile[i*np+j] != row[j] {
					t.Fatalf("dim=%d query %d point %d: tile %v, ordering %v",
						dim, i, j, tile[i*np+j], row[j])
				}
			}
		}
	}
}

// TestBlockedDuplicatesExactZero: identical query/point rows must give
// exactly zero through every blocked width (the lane sums cancel term by
// term, so any reassociation bug shows up as a nonzero).
func TestBlockedDuplicatesExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, dim := range blockedDims {
		q := randFlat(rng, 1, dim)
		flat := make([]float32, 9*dim)
		for j := 0; j < 9; j++ {
			copy(flat[j*dim:(j+1)*dim], q)
		}
		out := make([]float64, 9)
		euclidChunkedRowBlocked(q, flat, dim, out)
		for j, v := range out {
			if v != 0 {
				t.Fatalf("dim=%d point %d: duplicate distance %v, want exact 0", dim, j, v)
			}
		}
	}
}

func BenchmarkRowKernelBlocked(b *testing.B) { benchmarkRowKernel(b, euclidChunkedRowBlocked) }

// timeRow50 times 50 scans of the bench corpus through row, best of five.
func timeRow50(dim int, row func(q, flat []float32, dim int, out []float64)) float64 {
	q, flat, out := benchVectors(dim)
	row(q, flat, dim, out) // warm
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < 50; i++ {
			row(q, flat, dim, out)
		}
		if s := time.Since(start).Seconds(); s < best {
			best = s
		}
	}
	return best
}

// TestBlockedRowFasterSmoke asserts the blocked/unblocked chunked-row
// throughput ratio exceeds 1 at the dims where the blocked path is the
// point. Timing assertion, so gated on RBC_BENCH_SMOKE like the exact
// smoke; the strict >=1.15x gate lives in bench-regression via
// cmd/benchcmp.
func TestBlockedRowFasterSmoke(t *testing.T) {
	if os.Getenv("RBC_BENCH_SMOKE") == "" {
		t.Skip("timing assertion; set RBC_BENCH_SMOKE=1 to run")
	}
	for _, dim := range []int{64, 256} {
		tc, tb := timeRow50(dim, euclidChunkedRow), timeRow50(dim, euclidChunkedRowBlocked)
		ratio := tc / tb
		t.Logf("dim=%d: chunked %.3fms blocked %.3fms ratio %.2fx", dim, tc*1e3, tb*1e3, ratio)
		if ratio <= 1 {
			t.Fatalf("dim=%d: blocked row kernel not faster than unblocked (ratio %.2f)", dim, ratio)
		}
	}
}
