package core

import (
	"repro/internal/par"
	"repro/internal/vec"
)

// batchGrouped is Exact's block back half, for pristine and mutated
// indexes alike: after the exact-grade front half it runs Exact.one's
// pruner per query of a tile (so decisions, seeds, home probes and
// counters are the per-query path's by construction), hands the tile's
// kept windows to ScanGrouped, which scans each list once for all of its
// takers as small BF(Q', L) matrix-matrix calls, then each query's kept
// buffers to scanBuffers (its window half-width waits in sc's float64
// slot 6).
//
// Per query, the candidates pushed are exactly Exact.one's: the emit
// admits only the taker's own window, at the heap bound, skipping
// representatives and tombstones as scanRun does; the exact-mode Tile is
// bit-identical to Ordering; and the heaps are insertion-order
// independent. Answers (into out) and Stats therefore equal per-query KNN's.
func (e *Exact) batchGrouped(queries *vec.Dataset, k int, out [][]par.Neighbor) Stats {
	nr := e.NumReps()
	dim := e.db.Dim
	return tileFrontHalf(e.ker, queries, e.repData,
		func(q0, q1 int, rows []float64, sc *par.Scratch) Stats {
			bq := q1 - q0
			st := Stats{RepEvals: int64(bq * nr)}
			qflat := queries.Data[q0*dim : q1*dim]
			heaps := sc.HeapSlab(bq, k)
			kept := sc.Ints(0, 4*bq*(nr+1))[:0]
			ws := sc.Float64(6, bq)
			for i := 0; i < bq; i++ {
				kept, ws[i] = e.prune(qflat[i*dim:(i+1)*dim], rows[i*nr:(i+1)*nr], i, k, heaps[i], sc, &st, kept)
			}
			st.PointEvals += ScanGrouped(e.ker, qflat, dim, e.gather, nr, kept, sc,
				func(i, lo int, ords []float64) {
					h := heaps[i]
					bound, _ := h.Worst()
					for t, o := range ords {
						if o > bound {
							continue
						}
						if id := int(e.ids[lo+t]); !e.isRep[id] && !e.isDeleted(id) && h.Push(id, o) {
							bound, _ = h.Worst()
						}
					}
				})
			if e.Buffered() > 0 {
				// kept is grouped by ascending query: [a, b) is query i's run.
				for a := 0; a < len(kept); {
					i, b := kept[a], a+4
					for b < len(kept) && kept[b] == i {
						b += 4
					}
					st.PointEvals += e.scanBuffers(qflat[i*dim:(i+1)*dim], rows[i*nr:(i+1)*nr], kept[a:b], ws[i], heaps[i], sc.Float64(5, 1))
					a = b
				}
			}
			for i, h := range heaps {
				out[q0+i] = e.finish(h)
			}
			return st
		})
}
