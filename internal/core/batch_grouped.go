package core

import (
	"repro/internal/par"
	"repro/internal/vec"
)

// This file holds the fully batched (grouped) back half of Exact batch
// search. A per-query back half behind rowFrontHalf batches only
// phase 1 — the BF(Q,R) representative scan — and then runs each query's
// list scans alone through the row kernel. For a query *block*, that
// leaves the dominant phase-2 work on the slowest path. The grouped back
// half instead decides, per query of a tile, which (list, window) pairs
// to scan, and hands the whole tile's decisions to ScanGrouped
// (groupedscan.go), which inverts them into per-list taker sets and scans
// each list once for all of its takers — phase 2 becomes a sequence of
// small BF(Q', L) matrix-matrix calls, one per surviving list, instead of
// per-query matrix-vector sweeps. OneShot has no grouped back half: each
// query scans one list, which rarely has a second taker in a tile.
//
// Correctness: per query, the candidates pushed are exactly those the
// per-query path pushes (each taker only admits positions inside its own
// window, representatives stay excluded), evaluated with the same
// per-pair arithmetic (the exact-mode Tile is bit-identical to Ordering),
// and the candidate heaps are insertion-order independent. Results are
// therefore bit-identical to the per-query path.

// batchGrouped runs the grouped two-phase batch search for Exact: the
// exact-grade front half, the same per-query pruner as Exact.one (so
// decisions, seeds, home probes and counters are the per-query path's by
// construction), then one grouped scan per query tile on the same kernel.
// The emit admits candidates at the heap bound exactly as Exact.one does.
// It requires a pristine index: dynamic state (tombstones, insertion
// buffers) takes the per-query back half, which knows how to consult it.
func (e *Exact) batchGrouped(queries *vec.Dataset, k int, sink func(i int, h *par.KHeap)) Stats {
	nr := e.NumReps()
	dim := e.db.Dim
	return tileFrontHalf(e.ker, queries, e.repData,
		func(q0, q1 int, rows []float64, sc *par.Scratch) Stats {
			bq := q1 - q0
			st := Stats{RepEvals: int64(bq * nr)}
			qflat := queries.Data[q0*dim : q1*dim]
			heaps := sc.HeapSlab(bq, k)
			kept := sc.Ints(0, 4*bq*(nr+1))[:0]
			for i := 0; i < bq; i++ {
				kept, _ = e.prune(qflat[i*dim:(i+1)*dim], rows[i*nr:(i+1)*nr], i, k, heaps[i], sc, &st, kept)
			}
			st.PointEvals += ScanGrouped(e.ker, qflat, dim, e.gather, nr, kept, sc,
				func(i, lo int, ords []float64) {
					h := heaps[i]
					bound, _ := h.Worst()
					for t, o := range ords {
						if o > bound {
							continue
						}
						if id := int(e.ids[lo+t]); !e.isRep[id] && h.Push(id, o) {
							bound, _ = h.Worst()
						}
					}
				})
			for i, h := range heaps {
				sink(q0+i, h)
			}
			return st
		})
}
