//go:build amd64

package metric

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// TestExactAsmMatchesGo toggles the AVX2 body off and asserts the portable
// lane loop produces the same bits on the row and tile paths — for every
// dim mod 4 (dims below 4 never enter the body), every mix of quad and
// remainder rows, and operands at odd float32 offsets so the asm's loads
// are unaligned. Finite inputs, so plain bit equality.
func TestExactAsmMatchesGo(t *testing.T) {
	if !useExactAsm {
		t.Skip("host has no AVX2; only the Go body is reachable")
	}
	defer func() { useExactAsm = true }()
	rng := rand.New(rand.NewSource(2403))
	k := NewKernel(Euclidean{})
	const nq = 3
	for dim := 1; dim <= 131; dim++ {
		for _, np := range []int{1, 2, 3, 4, 5, 17, 64} {
			qflat := randFlat(rng, nq*dim+1, 1)[1:]
			pflat := randFlat(rng, np*dim+3, 1)[3:]
			// got[pass] is the row scan followed by the nq×np tile.
			var got [2][]float64
			for pass, asm := range []bool{true, false} {
				useExactAsm = asm
				got[pass] = make([]float64, np+nq*np)
				euclidExactRows(qflat[:dim], pflat, dim, got[pass][:np])
				k.Tile(qflat, nil, pflat, nil, dim, got[pass][np:], nil)
			}
			for j := range got[0] {
				if math.Float64bits(got[0][j]) != math.Float64bits(got[1][j]) {
					t.Fatalf("dim=%d np=%d output %d (rows, then tile): asm %v, go %v", dim, np, j, got[0][j], got[1][j])
				}
			}
		}
	}
}

// TestExactRowAsmFasterSmoke asserts the AVX2 exact row is at least twice
// the scalar reference at dim 64 (measured ≈ 5×). Timing assertion, so
// gated on RBC_BENCH_SMOKE like the other smokes; the same ratio is
// asserted on the pinned sweep in bench-regression via cmd/benchcmp.
func TestExactRowAsmFasterSmoke(t *testing.T) {
	if os.Getenv("RBC_BENCH_SMOKE") == "" {
		t.Skip("timing assertion; set RBC_BENCH_SMOKE=1 to run")
	}
	if !useExactAsm {
		t.Skip("host has no AVX2; the exact row is the scalar reference")
	}
	const dim = 64
	tr, ta := timeRow50(dim, exactRowsRef), timeRow50(dim, euclidExactRows)
	ratio := tr / ta
	t.Logf("dim=%d: scalar %.3fms avx2 %.3fms ratio %.2fx", dim, tr*1e3, ta*1e3, ratio)
	if ratio < 2 {
		t.Fatalf("dim=%d: AVX2 exact row only %.2fx the scalar reference, want >= 2x", dim, ratio)
	}
}
