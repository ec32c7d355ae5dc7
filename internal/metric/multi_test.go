package metric

import (
	"math"
	"math/rand"
	"testing"
)

func randFlat(rng *rand.Rand, n, dim int) []float32 {
	out := make([]float32, n*dim)
	for i := range out {
		out[i] = rng.Float32()*4 - 2
	}
	return out
}

// tileRef computes the ordering tile one pair at a time through the
// metric's scalar Distance, converted to ordering space.
func tileRef(m Metric[[]float32], qflat, pflat []float32, dim int) []float64 {
	nq, np := len(qflat)/dim, len(pflat)/dim
	out := make([]float64, nq*np)
	k := NewKernel(m)
	for i := 0; i < nq; i++ {
		for j := 0; j < np; j++ {
			out[i*np+j] = k.FromDistance(m.Distance(qflat[i*dim:(i+1)*dim], pflat[j*dim:(j+1)*dim]))
		}
	}
	return out
}

func maxRelErr(a, b []float64) float64 {
	var worst float64
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := 1 + math.Abs(a[i]) + math.Abs(b[i])
		if e := diff / scale; e > worst {
			worst = e
		}
	}
	return worst
}

// kernelMatchesScalar checks both kernel modes against the per-pair scalar
// reference across awkward shapes (dims not multiples of 4, tiny blocks).
func kernelMatchesScalar(t *testing.T, m Metric[[]float32]) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for _, mode := range []struct {
		name string
		k    *Kernel
	}{{"exact", NewKernel(m)}, {"fast", NewFastKernel(m)}} {
		for _, dim := range []int{1, 2, 3, 5, 7, 8, 16, 33} {
			for _, shape := range [][2]int{{1, 1}, {1, 9}, {3, 7}, {4, 4}, {5, 13}, {16, 32}} {
				nq, np := shape[0], shape[1]
				qflat := randFlat(rng, nq, dim)
				pflat := randFlat(rng, np, dim)
				out := make([]float64, nq*np)
				mode.k.Tile(qflat, nil, pflat, nil, dim, out, nil)
				want := tileRef(m, qflat, pflat, dim)
				if e := maxRelErr(out, want); e > 1e-9 {
					t.Fatalf("%s %s dim=%d nq=%d np=%d: max rel err %v", m.Name(), mode.name, dim, nq, np, e)
				}
			}
		}
	}
}

func TestTileEuclidean(t *testing.T) { kernelMatchesScalar(t, Euclidean{}) }
func TestTileManhattan(t *testing.T) { kernelMatchesScalar(t, Manhattan{}) }
func TestTileChebyshev(t *testing.T) { kernelMatchesScalar(t, Chebyshev{}) }
func TestTileMinkowski(t *testing.T) { kernelMatchesScalar(t, NewMinkowski(2.5)) }
func TestTileAngularFallback(t *testing.T) {
	// Angular has no OrderingBatch path; the kernel must fall back to per-pair
	// Distance calls.
	kernelMatchesScalar(t, Angular{})
}

// TestTileShapeInvariance: computing the same (Q, X) tile through any
// tiling must give bit-identical values, in both kernel modes, including
// for duplicate-heavy data (tie stability).
func TestTileShapeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{3, 8, 17} {
		nq, np := 13, 57
		qflat := randFlat(rng, nq, dim)
		pflat := randFlat(rng, np, dim)
		// Duplicate some point rows and mirror a query into the points so
		// exact ties exist.
		copy(pflat[3*dim:4*dim], pflat[10*dim:11*dim])
		copy(pflat[20*dim:21*dim], qflat[5*dim:6*dim])
		for _, mk := range []func(Metric[[]float32]) *Kernel{NewKernel, NewFastKernel} {
			k := mk(Euclidean{})
			full := make([]float64, nq*np)
			k.Tile(qflat, nil, pflat, nil, dim, full, nil)
			for _, tiling := range [][2]int{{1, np}, {nq, 1}, {4, 16}, {5, 8}, {2, 31}} {
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
						t.Fatalf("dim=%d tiling %dx%d: tile[%d]=%v, full=%v (not bit-identical)",
							dim, tq, tp, i, got[i], full[i])
					}
				}
			}
		}
	}
}

// TestExactTileMatchesOrderingBatch: the exact-mode tile must be
// bit-identical to the single-query OrderingDistances reference.
func TestExactTileMatchesOrderingBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := Euclidean{}
	k := NewKernel(e)
	for _, dim := range []int{2, 5, 8, 31} {
		nq, np := 9, 40
		qflat := randFlat(rng, nq, dim)
		pflat := randFlat(rng, np, dim)
		tile := make([]float64, nq*np)
		k.Tile(qflat, nil, pflat, nil, dim, tile, nil)
		row := make([]float64, np)
		for i := 0; i < nq; i++ {
			e.OrderingDistances(qflat[i*dim:(i+1)*dim], pflat, dim, row)
			for j := range row {
				if tile[i*np+j] != row[j] {
					t.Fatalf("dim=%d q=%d p=%d: tile %v, ordering batch %v", dim, i, j, tile[i*np+j], row[j])
				}
			}
		}
	}
}

// TestGramDuplicatesExactZero: for bit-identical rows the Gram expansion
// must cancel to exactly zero (norms and dot share accumulation order),
// and it must never go negative.
func TestGramDuplicatesExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := NewFastKernel(Euclidean{})
	for _, dim := range []int{1, 3, 8, 21} {
		np := 33
		pflat := randFlat(rng, np, dim)
		// Large-magnitude coordinates provoke cancellation noise.
		for i := range pflat {
			pflat[i] *= 1000
		}
		q := make([]float32, dim)
		copy(q, pflat[17*dim:18*dim])
		out := make([]float64, np)
		k.Tile(q, nil, pflat, nil, dim, out, nil)
		if out[17] != 0 {
			t.Fatalf("dim=%d: duplicate row ordering distance %v, want exactly 0", dim, out[17])
		}
		for j, o := range out {
			if o < 0 || math.IsNaN(o) {
				t.Fatalf("dim=%d p=%d: ordering distance %v (must be clamped >= 0)", dim, j, o)
			}
		}
	}
}

func TestNormsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	k := NewFastKernel(Euclidean{})
	for _, dim := range []int{1, 4, 9} {
		flat := randFlat(rng, 11, dim)
		norms := k.Norms(flat, dim, nil)
		for i := 0; i < 11; i++ {
			var want float64
			for _, v := range flat[i*dim : (i+1)*dim] {
				want += float64(v) * float64(v)
			}
			if math.Abs(norms[i]-want) > 1e-9*(1+want) {
				t.Fatalf("dim=%d row=%d: norm %v, want %v", dim, i, norms[i], want)
			}
		}
	}
	if norms := NewKernel(Euclidean{}).Norms(randFlat(rng, 4, 3), 3, nil); norms != nil {
		t.Fatal("exact kernel should not request norms")
	}
}

func TestOrderingConversions(t *testing.T) {
	e := NewKernel(Euclidean{})
	if d := e.ToDistance(9.0); d != 3 {
		t.Fatalf("euclid ToDistance(9)=%v", d)
	}
	if o := e.FromDistance(3.0); o != 9 {
		t.Fatalf("euclid FromDistance(3)=%v", o)
	}
	if d := NewKernel(NewMinkowski(3)).ToDistance(8.0); math.Abs(d-2) > 1e-12 {
		t.Fatalf("minkowski ToDistance(8)=%v", d)
	}
	// Identity for metrics without an Orderer.
	if d := NewKernel(Manhattan{}).ToDistance(5.0); d != 5 {
		t.Fatalf("manhattan ToDistance(5)=%v", d)
	}
	if o := NewKernel(Chebyshev{}).FromDistance(5.0); o != 5 {
		t.Fatalf("chebyshev FromDistance(5)=%v", o)
	}
}

// TestOrderingBound: every ordering value whose distance is <= d must
// fall at or below the prefilter bound.
func TestOrderingBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []Metric[[]float32]{Euclidean{}, Manhattan{}, NewMinkowski(3)} {
		k := NewKernel(m)
		for trial := 0; trial < 2000; trial++ {
			a := randFlat(rng, 1, 6)
			b := randFlat(rng, 1, 6)
			d := m.Distance(a, b)
			out := make([]float64, 1)
			k.Ordering(a, b, 6, out)
			if bound := k.OrderingBound(d); out[0] > bound {
				t.Fatalf("%s: ordering %v exceeds bound %v for its own distance %v", m.Name(), out[0], bound, d)
			}
		}
	}
}

// TestMinkowskiBatch: the power-sum OrderingDistances, converted back,
// must agree with the scalar Distance.
func TestMinkowskiBatch(t *testing.T) {
	batchMatchesScalar(t, NewMinkowski(2.5))
	batchMatchesScalar(t, NewMinkowski(1))
	batchMatchesScalar(t, NewMinkowski(4))
}

func TestTileInvocationsCounter(t *testing.T) {
	before := TileInvocations()
	k := NewKernel(Euclidean{})
	out := make([]float64, 4)
	k.Tile([]float32{1, 2}, nil, []float32{0, 0, 1, 1, 2, 2, 3, 3}, nil, 2, out, nil)
	if TileInvocations() != before+1 {
		t.Fatalf("counter %d, want %d", TileInvocations(), before+1)
	}
}
