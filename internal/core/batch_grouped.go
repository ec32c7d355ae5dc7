package core

import (
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// This file holds the fully batched (grouped) back halves of Exact and
// OneShot batch search. A per-query back half behind TileFrontHalf
// batches only phase 1 — the BF(Q,R) representative scan — and then runs
// each query's list scans alone through the row kernel. For a query
// *block*, that leaves the dominant phase-2 work on the slowest path. The
// grouped back halves instead decide, per query of a tile, which
// (list, window) pairs to scan, and hand the whole tile's decisions to
// ScanGrouped (groupedscan.go), which inverts them into per-list taker
// sets and scans each list once for all of its takers — phase 2 becomes a
// sequence of small BF(Q', L) matrix-matrix calls, one per surviving
// list, instead of per-query matrix-vector sweeps.
//
// Correctness: per query, the candidates pushed are exactly those the
// per-query path pushes (each taker only admits positions inside its own
// window, representatives stay excluded), evaluated with the same
// per-pair arithmetic (the exact-mode Tile is bit-identical to Ordering),
// and the candidate heaps are insertion-order independent. Results are
// therefore bit-identical to the per-query path.

// batchGrouped runs the grouped two-phase batch search for Exact: the
// exact-grade front half, the same per-query pruner as Exact.one (so
// decisions, seeds and counters are the per-query path's by
// construction), then one grouped scan per query tile on the same kernel.
// The emit admits candidates at the heap bound exactly as Exact.one does.
// It requires a pristine index: dynamic state (tombstones, insertion
// buffers) takes the per-query back half, which knows how to consult it.
func (e *Exact) batchGrouped(queries *vec.Dataset, k int, sink func(i int, h *par.KHeap)) Stats {
	nr := e.NumReps()
	dim := e.db.Dim
	return tileFrontHalf(e.ker, queries, e.repData,
		func(q0, q1 int, rows []float64, sc *par.Scratch, ts *metric.TileScratch) Stats {
			bq := q1 - q0
			st := Stats{RepEvals: int64(bq * nr)}
			qflat := queries.Data[q0*dim : q1*dim]
			heaps := sc.HeapSlab(bq, k)
			kept := sc.Ints(0, 4*bq*nr)[:0]
			for i := 0; i < bq; i++ {
				p := e.newProbe(qflat[i*dim:(i+1)*dim], rows[i*nr:(i+1)*nr], nil, sc)
				kept, _ = e.prune(&p, i, k, heaps[i], sc, &st, kept)
			}
			st.PointEvals += ScanGrouped(e.ker, qflat, dim, e.gather, nr, kept, sc, ts,
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

// batchGrouped runs the grouped two-phase batch search for OneShot: the
// BF(Q,R) front half selects each query's probe lists through the same
// probe as the per-query path, and each probed list is scanned once per
// tile on the same exact kernel.
func (o *OneShot) batchGrouped(queries *vec.Dataset, k int, sink func(i int, h *par.KHeap)) Stats {
	nr := o.NumReps()
	dim := o.db.Dim
	s := o.s
	probes := min(o.prm.Probes, nr)
	return tileFrontHalf(o.ker, queries, o.repData,
		func(q0, q1 int, rows []float64, sc *par.Scratch, ts *metric.TileScratch) Stats {
			bq := q1 - q0
			st := Stats{RepEvals: int64(bq * nr)}
			kept := sc.Ints(0, 4*bq*probes)[:0]
			for i := 0; i < bq; i++ {
				for _, probe := range o.probe(nil, rows[i*nr:(i+1)*nr], sc).Kept() {
					kept = append(kept, i, probe.ID, probe.ID*s, (probe.ID+1)*s)
				}
			}
			st.RepsKept = int64(len(kept) / 4)
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
			st.PointEvals = ScanGrouped(o.ker, queries.Data[q0*dim:q1*dim], dim, o.gather, nr, kept, sc, ts,
				func(i, lo int, ords []float64) {
					h := heaps[i]
					for t, d := range ords {
						id := o.ids[lo+t]
						if seen != nil {
							if _, dup := seen[i][id]; dup {
								continue
							}
							seen[i][id] = struct{}{}
						}
						h.Push(int(id), d)
					}
				})
			for i, h := range heaps {
				sink(q0+i, h)
			}
			return st
		})
}
