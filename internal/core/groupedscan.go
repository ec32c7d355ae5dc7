package core

import (
	"repro/internal/metric"
	"repro/internal/par"
)

// tileWasteFactor bounds how many surplus pairs a phase-2 tile may
// evaluate relative to the takers' admissible windows: a block is tiled
// only when takers×blockWidth ≤ tileWasteFactor × Σ window lengths.
// The break-even is the cost of a row-path pair over a tile pair, and on
// the exact grade both read the float32 rows through the same AVX2 lane
// loop, the tile sharing each point row between two queries: measured
// (one core, M pairs/s, row vs 32-query tile) 252 vs 264 at dim 21, 108
// vs 123 at dim 64, 30 vs 35 at dim 256 — a ratio of 1.05–1.2, not the 2
// of the pre-widened float64 tiles this constant was first sized for,
// and within run-to-run noise of 1 end to end (batch-pruned, factor 1 vs
// 2: medians 48.1k vs 46.4k qps over six interleaved pairs). 1 never
// loses at any dim: a block is tiled only when every taker wants all of
// it, so a tile evaluates no surplus pair.
const tileWasteFactor = 1

// ScanGrouped is the grouped phase-2 driver shared by Exact.batchGrouped,
// OneShot.batchGrouped and the distributed shard scan: given every
// (query, list, window) a query block decided to scan, it inverts
// query → lists into list → takers with one counting sort and scans each
// list once for all of its takers through scanTakers.
//
// kept holds (query, list, lo, hi) quadruples: query indexes a dim-major
// row of qflat, list is in [0, nlists), and [lo, hi) is the window to
// scan in gather positions; empty windows are skipped. Quadruples must
// arrive grouped by ascending query, so each list's takers come out in
// ascending query order whatever the block's composition.
// emit(query, lo, ords) delivers ordering distances for positions
// [lo, lo+len(ords)); ords aliases internal scratch and is valid only for
// the duration of the call. The return value counts admissible
// (query, position) pairs — the PointEvals contribution.
//
// ScanGrouped reserves sc's int slots 1, 4 and 5 on top of what
// scanTakers reserves; kept may live in int slot 0.
func ScanGrouped(ker *metric.Kernel, qflat []float32, dim int, gather []float32, nlists int,
	kept []int, sc *par.Scratch, ts *metric.TileScratch, emit func(query, lo int, ords []float64)) int64 {
	ends := sc.Ints(4, nlists+1)
	for j := range ends {
		ends[j] = 0
	}
	for t := 0; t < len(kept); t += 4 {
		if kept[t+2] < kept[t+3] {
			ends[kept[t+1]+1]++
		}
	}
	for j := 0; j < nlists; j++ {
		ends[j+1] += ends[j]
	}
	total := ends[nlists]
	tIdx := sc.Ints(5, total)
	tWin := sc.Ints(1, 2*total)
	for t := 0; t < len(kept); t += 4 {
		q, j, lo, hi := kept[t], kept[t+1], kept[t+2], kept[t+3]
		if lo < hi {
			pos := ends[j]
			tIdx[pos] = q
			tWin[2*pos], tWin[2*pos+1] = lo, hi
			ends[j]++
		}
	}
	// ends[j] now marks the end of list j's takers; the start is
	// ends[j-1] (0 for j == 0).
	var evals int64
	start := 0
	toQuery := func(t, lo int, ords []float64) { emit(tIdx[start+t], lo, ords) }
	for j := 0; j < nlists; j++ {
		if end := ends[j]; end > start {
			evals += scanTakers(ker, qflat, dim, gather,
				tIdx[start:end], tWin[2*start:2*end], end-start, sc, ts, toQuery)
			start = end
		}
	}
	return evals
}

// scanTakers is the shared phase-2 scan primitive of the grouped batch
// paths: it scores one contiguous range of gathered points against a set
// of "taker" queries, turning the scan into BF(Q', L) matrix-matrix tiles
// whenever enough takers share a point block and falling back to
// per-taker row scans otherwise. ScanGrouped drives it per ownership list
// (or shard segment), so every grouped path rides the same kernels and
// inherits the same bit-reproducibility guarantee (with an exact-grade
// kernel, tile and row evaluations of a pair are bit-identical, making
// the emitted orderings independent of the tile-vs-row choice and of the
// block composition). The choice is cost only, and a small one: a tile
// pair is 5–15 % cheaper than a row pair (see tileWasteFactor), so tiles
// are taken only where they evaluate nothing a row scan would not.
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
// scanTakers reserves sc's float64 slot 7, float32 slot 0 and int slots
// 2–3 (see par.Scratch).
func scanTakers(ker *metric.Kernel, qflat []float32, dim int, gather []float32,
	tIdx, tWin []int, takers int, sc *par.Scratch, ts *metric.TileScratch,
	emit func(t, lo int, ords []float64)) int64 {
	if ker.IsFast() {
		// scanTakers output is reported answers under the
		// bit-reproducibility contract; the Gram grade is not admissible
		// here. Refusing loudly keeps a mis-wired consumer from silently
		// shipping drifted distances.
		panic("core: scanTakers requires an exact-grade kernel")
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
