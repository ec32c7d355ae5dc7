package core

import (
	"repro/internal/metric"
	"repro/internal/par"
)

// GroupedScan is the shared phase-2 scan primitive of the grouped batch
// paths: it scores one contiguous range of gathered points against a set
// of "taker" queries, turning the scan into BF(Q', L) matrix-matrix tiles
// whenever enough takers share a point block and falling back to
// per-taker row scans otherwise. Exact.batchGrouped drives it per
// ownership list; the distributed shard scan drives it per segment, so
// both layers ride the same kernels and inherit the same
// bit-reproducibility guarantee (with an exact-grade kernel, tile and row
// evaluations of a pair are bit-identical, making the emitted orderings
// independent of the tile-vs-row choice and of the block composition).
//
// qflat holds the query block as dim-major rows. tIdx[t] (t < takers)
// selects taker t's row in qflat, and tWin[2t], tWin[2t+1] is taker t's
// admissible window [lo, hi) in gather positions — gather[p*dim:(p+1)*dim]
// is position p. emit(t, lo, ords) delivers ordering distances for taker
// t covering positions [lo, lo+len(ords)); ords aliases internal scratch
// and is valid only for the duration of the call. The return value counts
// admissible (taker, position) pairs — the PointEvals contribution —
// regardless of how many surplus pairs the tiles evaluated.
//
// GroupedScan reserves sc's float64 slot 7, float32 slot 0 and int slots
// 2–3; callers keep taker state in the other slots (see par.Scratch).
func GroupedScan(ker *metric.Kernel, qflat []float32, dim int, gather []float32,
	tIdx, tWin []int, takers int, sc *par.Scratch, ts *metric.TileScratch,
	emit func(t, lo int, ords []float64)) int64 {
	if ker.IsFast() {
		// GroupedScan output is reported answers under the
		// bit-reproducibility contract; neither fast grade (Gram or
		// chunked) is admissible here. Refusing loudly keeps a mis-wired
		// consumer from silently shipping drifted distances.
		panic("core: GroupedScan requires an exact-grade kernel, got " + ker.Grade().String())
	}
	if takers == 0 {
		return 0
	}
	_, tp := metric.TileShape(dim)
	unionLo, unionHi := tWin[0], tWin[1]
	for t := 1; t < takers; t++ {
		if tWin[2*t] < unionLo {
			unionLo = tWin[2*t]
		}
		if tWin[2*t+1] > unionHi {
			unionHi = tWin[2*t+1]
		}
	}
	var evals int64
	tile := sc.Float64(7, takers*tp)
	bIdx := sc.Ints(2, takers)
	bWin := sc.Ints(3, 2*takers)
	for blk := unionLo; blk < unionHi; blk += tp {
		end := blk + tp
		if end > unionHi {
			end = unionHi
		}
		bp := end - blk
		// Takers whose windows intersect this block, clipped to it.
		inter := 0
		sumLen := 0
		for t := 0; t < takers; t++ {
			s0, s1 := tWin[2*t], tWin[2*t+1]
			if s0 < blk {
				s0 = blk
			}
			if s1 > end {
				s1 = end
			}
			if s0 >= s1 {
				continue
			}
			bIdx[inter] = t
			bWin[2*inter] = s0
			bWin[2*inter+1] = s1
			inter++
			sumLen += s1 - s0
		}
		if inter == 0 {
			continue
		}
		evals += int64(sumLen)
		if inter >= 2 && inter*bp <= tileWasteFactor*sumLen {
			// Dense enough: one tile serves every intersecting taker.
			buf := sc.Float32(0, inter*dim)
			for ti := 0; ti < inter; ti++ {
				q := tIdx[bIdx[ti]]
				copy(buf[ti*dim:(ti+1)*dim], qflat[q*dim:(q+1)*dim])
			}
			out := tile[:inter*bp]
			ker.Tile(buf, nil, gather[blk*dim:end*dim], nil, dim, out, ts)
			for ti := 0; ti < inter; ti++ {
				s0, s1 := bWin[2*ti], bWin[2*ti+1]
				trow := out[ti*bp : (ti+1)*bp]
				emit(bIdx[ti], s0, trow[s0-blk:s1-blk])
			}
		} else {
			// Sparse: scan each taker's own slice, exactly like the
			// per-query path would.
			for ti := 0; ti < inter; ti++ {
				q := tIdx[bIdx[ti]]
				s0, s1 := bWin[2*ti], bWin[2*ti+1]
				out := tile[:s1-s0]
				ker.Ordering(qflat[q*dim:(q+1)*dim], gather[s0*dim:s1*dim], dim, out)
				emit(bIdx[ti], s0, out)
			}
		}
	}
	return evals
}
