package core

import (
	"math"
	"sync"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// This file holds the fully batched (grouped) back halves of Exact and
// OneShot batch search. TileFrontHalf (batch.go) batches only phase 1 —
// the BF(Q,R) representative scan — and then runs each query's list
// scans alone through the row kernel. For a query *block*, that leaves
// the dominant phase-2 work on the slowest path. The grouped back half
// inverts the loop: within a tile of queries it computes, per ownership
// list, the set of queries whose pruning kept that list ("takers"), and
// scans the list once for all of them through the tiled kernel — phase 2
// becomes a sequence of small BF(Q', L) matrix-matrix calls, one per
// surviving list, instead of per-query matrix-vector sweeps.
//
// Correctness: per query, the candidates pushed are exactly those the
// per-query path pushes (each taker only admits positions inside its own
// EarlyExit window, representatives stay excluded), in the same list
// order, evaluated with the same per-pair arithmetic (the exact-mode
// Tile is bit-identical to Ordering). Results are therefore bit-identical
// to the per-query path.
//
// The scan is adaptive per point block: when at least two takers'
// windows cover most of a block, the block is evaluated as one tile;
// otherwise each taker row-scans just its own window slice, exactly like
// the per-query path. The tile may therefore evaluate up to ~2× more
// pairs than the windows strictly require (the tileWasteFactor bound);
// PointEvals counts admissible-window pairs on both paths, so work
// statistics stay comparable between per-query and batched search.
//
// The grouped path requires a pristine index: dynamic state (tombstones,
// insertion buffers) falls back to the per-query back half, which knows how
// to consult it.

// tileWasteFactor bounds how many surplus pairs a phase-2 tile may
// evaluate relative to the takers' admissible windows: a block is tiled
// only when takers×blockWidth ≤ tileWasteFactor × Σ window lengths.
// Tiled pairs cost roughly half a row-path pair (no per-pair float32
// widening), so 2 is the break-even point.
const tileWasteFactor = 2

// batchGrouped runs the grouped two-phase batch search for Exact. Phase 1
// runs on the fast kernel grade over the cached representative norms,
// with every comparison bracketed by the certified slack — the same
// scheme, in the same arithmetic, as the per-query back half (see
// Exact.one for the correctness argument), so the two paths stay
// bit-identical. Phase 2 and the seed rescores stay on the exact kernel:
// their distances are the reported answers.
func (e *Exact) batchGrouped(queries *vec.Dataset, k int, sink func(i int, h *par.KHeap)) Stats {
	nq := queries.N()
	nr := e.NumReps()
	dim := e.db.Dim
	tq, tp := metric.TileShape(dim)
	var agg Stats
	var mu sync.Mutex
	par.For(nq, 1, func(lo, hi int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		ts := metric.GetTileScratch()
		defer metric.PutTileScratch(ts)
		var local Stats
		rows := sc.Float64(3, tq*nr)    // phase-1 fast ordering distances
		tile := sc.Float64(4, tq*tp)    // shared kernel tile
		distsLo := sc.Float64(0, tq*nr) // phase-1 bracket lows (pruning space)
		distsHi := sc.Float64(2, tq*nr) // phase-1 bracket highs (threshold space)
		bounds := sc.Float64(1, 2*tq)   // per-query psiGamma, tripleBound
		seedBuf := sc.Float64(5, 1)     // exact rescore cell for heap seeds
		tIdx := sc.Ints(0, tq)          // per-list takers (tile-local query index)
		tWin := sc.Ints(1, 2*tq)        // per-taker window [lo,hi)
		for q0 := lo; q0 < hi; q0 += tq {
			q1 := q0 + tq
			if q1 > hi {
				q1 = hi
			}
			bq := q1 - q0
			qflat := queries.Data[q0*dim : q1*dim]

			// Phase 1: tiled fast-grade BF(Qtile, R), identical to
			// TileFrontHalf over e.fker.
			qnorms := e.fker.Norms(qflat, dim, sc.Float64(6, bq))
			for r0 := 0; r0 < nr; r0 += tp {
				r1 := r0 + tp
				if r1 > nr {
					r1 = nr
				}
				bp := r1 - r0
				var pn []float64
				if e.repNorms != nil {
					pn = e.repNorms[r0:r1]
				}
				t := tile[:bq*bp]
				e.fker.Tile(qflat, qnorms, e.repData.Data[r0*dim:r1*dim], pn, dim, t, ts)
				for i := 0; i < bq; i++ {
					copy(rows[i*nr+r0:i*nr+r1], t[i*bp:(i+1)*bp])
				}
			}
			local.RepEvals += int64(bq * nr)

			// Per-query bracketing, pruning state and heap seeding (same
			// math and same push order as the per-query back half; seed
			// rescores run the exact row kernel and stay uncounted on both
			// paths). The γ candidate set {j : rowLo[j] ≤ γ_k^hi} is
			// rescored exactly, seeds the heap, and selects the exact
			// γ_1/γ_k — see Exact.one for why that reproduces the
			// all-exact path's γ's and kept multiset bit for bit.
			heaps := sc.HeapSlab(bq, k)
			for i := 0; i < bq; i++ {
				ords := rows[i*nr : (i+1)*nr]
				rowLo := distsLo[i*nr : (i+1)*nr]
				rowHi := distsHi[i*nr : (i+1)*nr]
				var slack float64
				if qnorms != nil {
					slack = metric.GramOrderingSlack(dim, qnorms[i], e.maxRepNorm)
				}
				for j, o := range ords {
					rowLo[j], rowHi[j] = e.bracketOrd(o, slack)
				}
				_, gammaKHi := kthSmallest(rowHi, k, sc)
				h := heaps[i]
				qrow := qflat[i*dim : (i+1)*dim]
				// cand is setup-local: GroupedScan re-carves slot 7 only
				// after the whole setup loop finishes.
				cand := sc.Float64(7, nr)[:0]
				for j := range rowLo {
					if rowLo[j] > gammaKHi {
						continue
					}
					e.ker.Ordering(qrow, e.repData.Data[j*dim:(j+1)*dim], dim, seedBuf[:1])
					d := e.ker.ToDistance(seedBuf[0])
					rowLo[j], rowHi[j] = d, d
					h.Push(e.repIDs[j], seedBuf[0])
					cand = append(cand, d)
				}
				gamma1, gammaK := kthSmallest(cand, k, sc)
				psiGamma := gammaK
				if e.prm.ApproxEps > 0 {
					psiGamma = gammaK / (1 + e.prm.ApproxEps)
				}
				bounds[2*i] = psiGamma
				bounds[2*i+1] = 2*gammaK + gamma1
			}

			// Phase 2, grouped: for each list, collect its takers and scan
			// the union of their windows once through GroupedScan (the
			// shared tiled-scan hook; see groupedscan.go). The sink is
			// hoisted out of the list loop so steady state stays
			// allocation-free.
			push := func(t, lo int, ords []float64) {
				h := heaps[tIdx[t]]
				for p := lo; p < lo+len(ords); p++ {
					if id := int(e.ids[p]); !e.isRep[id] {
						h.Push(id, ords[p-lo])
					}
				}
			}
			for j := 0; j < nr; j++ {
				listLo, listHi := e.offsets[j], e.offsets[j+1]
				takers := 0
				for i := 0; i < bq; i++ {
					rowLo := distsLo[i*nr : (i+1)*nr]
					rowHi := distsHi[i*nr : (i+1)*nr]
					qrow := qflat[i*dim : (i+1)*dim]
					dLo, dHi := rowLo[j], rowHi[j]
					psiGamma, tripleBound := bounds[2*i], bounds[2*i+1]
					// Bracket-certified prune decisions with exact-rescore
					// fallback for razor cases, identical to Exact.one.
					if e.prm.PrunePsi {
						t := psiGamma + e.radii[j]
						if dLo >= t {
							local.PrunedPsi++
							continue
						}
						if dHi >= t {
							if e.exactRepDist(qrow, j, rowLo, rowHi, seedBuf) >= t {
								local.PrunedPsi++
								continue
							}
						}
					}
					if e.prm.PruneTriple && !math.IsInf(tripleBound, 1) {
						if rowLo[j] > tripleBound {
							local.PrunedTriple++
							continue
						}
						if rowHi[j] > tripleBound {
							if e.exactRepDist(qrow, j, rowLo, rowHi, seedBuf) > tripleBound {
								local.PrunedTriple++
								continue
							}
						}
					}
					local.RepsKept++
					wlo, whi := listLo, listHi
					if e.prm.EarlyExit {
						a, b := e.exactWindow(qrow, j, e.dists[listLo:listHi],
							psiGamma, rowLo, rowHi, seedBuf)
						wlo, whi = listLo+a, listLo+b
					}
					if wlo >= whi {
						continue
					}
					tIdx[takers] = i
					tWin[2*takers] = wlo
					tWin[2*takers+1] = whi
					takers++
				}
				local.PointEvals += GroupedScan(e.ker, qflat, dim, e.gather,
					tIdx, tWin, takers, sc, ts, push)
			}
			for i := 0; i < bq; i++ {
				sink(q0+i, heaps[i])
			}
		}
		mu.Lock()
		agg.Add(local)
		mu.Unlock()
	})
	return agg
}

// batchGrouped runs the grouped two-phase batch search for OneShot: the
// Gram BF(Q,R) front half selects each query's probe lists, queries are
// then grouped by probed list, and each list is scanned once per tile
// through the exact-mode tiled kernel (phase 2 distances are reported
// answers and must stay bit-compatible with the reference — see the
// OneShot type comment).
func (o *OneShot) batchGrouped(queries *vec.Dataset, k int, sink func(i int, h *par.KHeap)) Stats {
	nq := queries.N()
	nr := o.NumReps()
	dim := o.db.Dim
	s := o.s
	probes := o.prm.Probes
	if probes > nr {
		probes = nr
	}
	tq, tp := metric.TileShape(dim)
	var agg Stats
	var mu sync.Mutex
	par.For(nq, 1, func(lo, hi int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		ts := metric.GetTileScratch()
		defer metric.PutTileScratch(ts)
		var local Stats
		rows := sc.Float64(3, tq*nr)
		tile := sc.Float64(4, tq*tp)
		probeIDs := sc.Ints(0, tq*probes)  // per-query probed lists
		counts := sc.Ints(1, nr+1)         // takers per list (prefix form)
		takerFlat := sc.Ints(2, tq*probes) // takers grouped by list
		for q0 := lo; q0 < hi; q0 += tq {
			q1 := q0 + tq
			if q1 > hi {
				q1 = hi
			}
			bq := q1 - q0
			qflat := queries.Data[q0*dim : q1*dim]

			// Phase 1: tiled Gram BF(Qtile, R) over the cached rep norms.
			qnorms := o.ker.Norms(qflat, dim, sc.Float64(6, bq))
			for r0 := 0; r0 < nr; r0 += tp {
				r1 := r0 + tp
				if r1 > nr {
					r1 = nr
				}
				bp := r1 - r0
				var pn []float64
				if o.repNorms != nil {
					pn = o.repNorms[r0:r1]
				}
				t := tile[:bq*bp]
				o.ker.Tile(qflat, qnorms, o.repData.Data[r0*dim:r1*dim], pn, dim, t, ts)
				for i := 0; i < bq; i++ {
					copy(rows[i*nr+r0:i*nr+r1], t[i*bp:(i+1)*bp])
				}
			}
			local.RepEvals += int64(bq * nr)

			// Probe selection per query, then invert query→lists into
			// list→takers with a counting sort so each list is visited once.
			for j := 0; j <= nr; j++ {
				counts[j] = 0
			}
			for i := 0; i < bq; i++ {
				ph := sc.Heap(0, probes)
				for j, d := range rows[i*nr : (i+1)*nr] {
					ph.Push(j, d)
				}
				for p, probe := range ph.Kept() {
					probeIDs[i*probes+p] = probe.ID
					counts[probe.ID+1]++
				}
				local.RepsKept += int64(len(ph.Kept()))
			}
			for j := 0; j < nr; j++ {
				counts[j+1] += counts[j]
			}
			for i := 0; i < bq; i++ {
				for p := 0; p < probes; p++ {
					j := probeIDs[i*probes+p]
					takerFlat[counts[j]] = i
					counts[j]++
				}
			}
			// counts[j] now marks the end of list j's takers; the start is
			// counts[j-1] (0 for j == 0).

			heaps := sc.HeapSlab(bq, k)
			// With multiple probes a point may appear on several of a
			// query's scanned lists; dedupe so result sets stay distinct.
			var seen []map[int32]struct{}
			if probes > 1 {
				seen = make([]map[int32]struct{}, bq)
				for i := range seen {
					seen[i] = make(map[int32]struct{}, probes*s)
				}
			}

			// Phase 2, grouped: scan each probed list once for all its
			// takers through the exact-mode tiled kernel.
			start := 0
			for j := 0; j < nr; j++ {
				endT := counts[j]
				takers := takerFlat[start:endT]
				start = endT
				if len(takers) == 0 {
					continue
				}
				tflat := qflat
				if len(takers) < bq {
					buf := sc.Float32(0, len(takers)*dim)
					for t, i := range takers {
						copy(buf[t*dim:(t+1)*dim], qflat[i*dim:(i+1)*dim])
					}
					tflat = buf
				}
				listLo := j * s
				for blk := listLo; blk < listLo+s; blk += tp {
					end := blk + tp
					if end > listLo+s {
						end = listLo + s
					}
					bp := end - blk
					t := tile[:len(takers)*bp]
					o.xker.Tile(tflat, nil, o.gather[blk*dim:end*dim], nil, dim, t, ts)
					for ti, i := range takers {
						h := heaps[i]
						trow := t[ti*bp : (ti+1)*bp]
						for p := 0; p < bp; p++ {
							id := o.ids[blk+p]
							if seen != nil {
								if _, dup := seen[i][id]; dup {
									continue
								}
								seen[i][id] = struct{}{}
							}
							h.Push(int(id), trow[p])
						}
					}
					local.PointEvals += int64(len(takers) * bp)
				}
			}
			for i := 0; i < bq; i++ {
				sink(q0+i, heaps[i])
			}
		}
		mu.Lock()
		agg.Add(local)
		mu.Unlock()
	})
	return agg
}
