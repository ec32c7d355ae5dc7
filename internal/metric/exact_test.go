package metric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameOrdering is the exact grade's identity relation: equal bit
// patterns, or both NaN. A NaN's sign and payload are deliberately not
// pinned: which operand's NaN an x86 add propagates depends on operand
// order, and the Go compiler may commute an addition, so two correct
// spellings of the same sum can return 7ff8… and fff8… (see the NaN note
// in exact_amd64.s).
func sameOrdering(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestExactMatchesReference holds Kernel.Ordering, Kernel.Tile and
// Euclidean.Distances against the scalar reference euclidExactPair, on
// the shapes of kernelMatchesScalar with the duplicate rows and planted
// exact hits of the tie-stability corpora.
func TestExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	k := NewKernel(Euclidean{})
	for _, dim := range []int{1, 2, 3, 5, 7, 8, 16, 21, 33, 64} {
		for _, shape := range [][2]int{{1, 1}, {1, 9}, {3, 7}, {4, 4}, {5, 13}, {16, 32}, {13, 57}} {
			nq, np := shape[0], shape[1]
			qflat := randFlat(rng, nq, dim)
			pflat := randFlat(rng, np, dim)
			if np > 4 {
				copy(pflat[3*dim:4*dim], pflat[(np-1)*dim:np*dim]) // duplicate point
				copy(pflat[1*dim:2*dim], qflat[:dim])              // exact hit
			}
			tile := make([]float64, nq*np)
			k.Tile(qflat, nil, pflat, nil, dim, tile, nil)
			row := make([]float64, np)
			dist := make([]float64, np)
			for i := 0; i < nq; i++ {
				q := qflat[i*dim : (i+1)*dim]
				k.Ordering(q, pflat, dim, row)
				Euclidean{}.Distances(q, pflat, dim, dist)
				for j := 0; j < np; j++ {
					want := euclidExactPair(q, pflat[j*dim:(j+1)*dim])
					if math.Float64bits(row[j]) != math.Float64bits(want) ||
						math.Float64bits(tile[i*np+j]) != math.Float64bits(want) ||
						math.Float64bits(dist[j]) != math.Float64bits(math.Sqrt(want)) {
						t.Fatalf("dim=%d nq=%d np=%d q=%d p=%d: Ordering %v, Tile %v, Distances %v; reference %v (sqrt %v)",
							dim, nq, np, i, j, row[j], tile[i*np+j], dist[j], want, math.Sqrt(want))
					}
				}
			}
		}
	}
}

// exactSpecials are the float32 values whose arithmetic has a special
// case somewhere in IEEE 754: both zeros, both infinities, the largest
// finite magnitudes (their difference squares far past float32 range —
// the overflow the float64 lanes exist to absorb), ±1e19 (the square of
// the difference alone overflows float32), both ends of the subnormal
// range, and NaN.
var exactSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32,
	1e19, -1e19,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	0x1p-127, -0x1.fffffcp-127,
	float32(math.NaN()),
}

// TestExactSpecials: on rows salted with the specials, whichever body
// the host runs returns the reference's bits (NaN ⇔ NaN; see
// sameOrdering) on the row path and on the tile path (three queries: a
// two-query pass and an odd row). First every (query special, point
// special) pair at every lane and tail position of a dim-9 row, then
// random salting at the benchmark dims.
func TestExactSpecials(t *testing.T) {
	k := NewKernel(Euclidean{})
	check := func(name string, qflat, pflat []float32, dim int) {
		t.Helper()
		nq, np := len(qflat)/dim, len(pflat)/dim
		tile := make([]float64, nq*np)
		k.Tile(qflat, nil, pflat, nil, dim, tile, nil)
		row := make([]float64, np)
		for i := 0; i < nq; i++ {
			q := qflat[i*dim : (i+1)*dim]
			k.Ordering(q, pflat, dim, row)
			for j := range row {
				want := euclidExactPair(q, pflat[j*dim:(j+1)*dim])
				if !sameOrdering(row[j], want) || !sameOrdering(tile[i*np+j], want) {
					t.Fatalf("%s q=%d p=%d: row %x, tile %x, reference %x (%v)", name, i, j,
						math.Float64bits(row[j]), math.Float64bits(tile[i*np+j]), math.Float64bits(want), want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(2402))
	const dim, nq, np = 9, 3, 5 // one quad + one remainder row; lanes 0..3 twice + a tail dim
	for _, a := range exactSpecials {
		for _, b := range exactSpecials {
			for pos := 0; pos < dim; pos++ {
				qflat := randFlat(rng, nq, dim)
				pflat := randFlat(rng, np, dim)
				for r := 0; r < nq; r++ {
					qflat[r*dim+pos] = a
				}
				for r := 0; r < np; r++ {
					pflat[r*dim+pos] = b
				}
				check(fmt.Sprintf("q[%d]=%v p[%d]=%v", pos, a, pos, b), qflat, pflat, dim)
			}
		}
	}
	salt := func(v []float32) {
		for i := range v {
			if rng.Intn(6) == 0 {
				v[i] = exactSpecials[rng.Intn(len(exactSpecials))]
			}
		}
	}
	for _, dim := range []int{4, 21, 64, 67} {
		for trial := 0; trial < 40; trial++ {
			qflat := randFlat(rng, 3, dim)
			pflat := randFlat(rng, 17, dim)
			salt(pflat)
			if trial%2 == 1 {
				salt(qflat)
			}
			check(fmt.Sprintf("dim=%d trial %d", dim, trial), qflat, pflat, dim)
		}
	}
}

// BenchmarkRowKernelExactRef is the scalar reference loop on the row
// sweep: the denominator of the AVX2-vs-scalar gate.
func BenchmarkRowKernelExactRef(b *testing.B) { benchmarkRowKernel(b, exactRowsRef) }

// exactRowsRef scans every row through the scalar reference.
func exactRowsRef(q, flat []float32, dim int, out []float64) {
	for i := range out {
		out[i] = euclidExactPair(q, flat[i*dim:(i+1)*dim])
	}
}
