package core

import (
	"math/rand"
	"testing"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// scanTakers must emit, for every taker, exactly its window's ordering
// distances, bit-identical to the per-query row kernel, regardless of
// whether a block was served by the tiled or the row path — and report
// the admissible-pair count, not the tile surplus.
func TestGroupedScanMatchesRowKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, dim := range []int{3, 17, 64} {
		for _, takers := range []int{1, 2, 5} {
			const np = 700
			points := vec.New(dim, np)
			queries := vec.New(dim, takers+2)
			row := make([]float32, dim)
			fill := func(d *vec.Dataset, n int) {
				for i := 0; i < n; i++ {
					for j := range row {
						row[j] = rng.Float32()*10 - 5
					}
					d.Append(row)
				}
			}
			fill(points, np)
			fill(queries, takers+2)
			ker := metric.NewKernel(metric.Euclidean{})

			// Overlapping, distinct windows per taker; taker 0 (when alone)
			// exercises the row path, larger sets the tiled path.
			tIdx := make([]int, takers)
			tWin := make([]int, 2*takers)
			wantPairs := int64(0)
			for ti := 0; ti < takers; ti++ {
				tIdx[ti] = ti + 1 // non-trivial query row mapping
				lo := (ti * 97) % (np / 2)
				hi := lo + 200 + 31*ti
				if hi > np {
					hi = np
				}
				tWin[2*ti], tWin[2*ti+1] = lo, hi
				wantPairs += int64(hi - lo)
			}

			got := make([]map[int]float64, takers)
			for i := range got {
				got[i] = make(map[int]float64)
			}
			sc := par.GetScratch()
			ts := metric.GetTileScratch()
			pairs := scanTakers(ker, queries.Data, dim, points.Data, tIdx, tWin, takers, sc, ts,
				func(ti, lo int, ords []float64) {
					for p := lo; p < lo+len(ords); p++ {
						if _, dup := got[ti][p]; dup {
							t.Fatalf("dim %d takers %d: position %d emitted twice for taker %d", dim, takers, p, ti)
						}
						got[ti][p] = ords[p-lo]
					}
				})
			metric.PutTileScratch(ts)
			par.PutScratch(sc)

			if pairs != wantPairs {
				t.Fatalf("dim %d takers %d: %d pairs reported, want %d", dim, takers, pairs, wantPairs)
			}
			ref := make([]float64, np)
			for ti := 0; ti < takers; ti++ {
				ker.Ordering(queries.Row(tIdx[ti]), points.Data, dim, ref)
				lo, hi := tWin[2*ti], tWin[2*ti+1]
				if len(got[ti]) != hi-lo {
					t.Fatalf("dim %d takers %d taker %d: emitted %d positions, want %d", dim, takers, ti, len(got[ti]), hi-lo)
				}
				for p := lo; p < hi; p++ {
					if got[ti][p] != ref[p] {
						t.Fatalf("dim %d takers %d taker %d pos %d: %v want %v (not bit-identical)",
							dim, takers, ti, p, got[ti][p], ref[p])
					}
				}
			}
		}
	}
}

// Zero takers and empty windows must be no-ops.
func TestGroupedScanDegenerate(t *testing.T) {
	ker := metric.NewKernel(metric.Euclidean{})
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	points := []float32{1, 2, 3, 4, 5, 6}
	if n := scanTakers(ker, nil, 3, points, nil, nil, 0, sc, nil, func(int, int, []float64) {
		t.Fatal("emit called with zero takers")
	}); n != 0 {
		t.Fatalf("zero takers reported %d pairs", n)
	}
	q := []float32{0, 0, 0}
	if n := scanTakers(ker, q, 3, points, []int{0}, []int{1, 1}, 1, sc, nil, func(int, int, []float64) {
		t.Fatal("emit called with an empty window")
	}); n != 0 {
		t.Fatalf("empty window reported %d pairs", n)
	}
}

// TestGroupedScanRejectsFastKernels: no exact-grade consumer may be
// constructed over a fast kernel — scanTakers (Exact phase 2, OneShot and
// the distributed shard scans all ride it) must refuse the Gram grade at
// the door rather than silently emit drifted orderings.
func TestGroupedScanRejectsFastKernels(t *testing.T) {
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	defer func() {
		if recover() == nil {
			t.Fatal("scanTakers accepted a Gram-grade kernel")
		}
	}()
	q := []float32{0, 0, 0}
	scanTakers(metric.NewFastKernel(metric.Euclidean{}), q, 3, []float32{1, 2, 3}, []int{0}, []int{0, 1}, 1, sc, nil,
		func(int, int, []float64) {})
}
