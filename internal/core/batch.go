package core

import (
	"sync"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// TileFrontHalf is the shared batched BF(Q,R) front half of Exact and
// OneShot search: query tiles are compared against representative tiles
// through the tiled kernel, and each query's full phase-1 ordering row is
// handed to back, which runs the per-query back half (pruning/probing and
// list scans) and returns its Stats. repNorms are optional precomputed
// squared norms for kernels that consume them.
func TileFrontHalf(ker *metric.Kernel, queries, reps *vec.Dataset, repNorms []float64,
	back func(i int, row []float64, sc *par.Scratch, ts *metric.TileScratch) Stats) Stats {
	nq := queries.N()
	nr := reps.N()
	dim := queries.Dim
	tq, tp := metric.TileShape(dim)
	var agg Stats
	var mu sync.Mutex
	par.For(nq, 1, func(lo, hi int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		ts := metric.GetTileScratch()
		defer metric.PutTileScratch(ts)
		var local Stats
		// Front-half slots 3/4/6; the back half invoked below owns 0–2 and 5
		// (see the Scratch slot convention).
		rows := sc.Float64(3, tq*nr)
		tile := sc.Float64(4, tq*tp)
		for q0 := lo; q0 < hi; q0 += tq {
			q1 := q0 + tq
			if q1 > hi {
				q1 = hi
			}
			bq := q1 - q0
			qflat := queries.Data[q0*dim : q1*dim]
			qnorms := ker.Norms(qflat, dim, sc.Float64(6, bq))
			for r0 := 0; r0 < nr; r0 += tp {
				r1 := r0 + tp
				if r1 > nr {
					r1 = nr
				}
				bp := r1 - r0
				var pn []float64
				if repNorms != nil {
					pn = repNorms[r0:r1]
				}
				t := tile[:bq*bp]
				ker.Tile(qflat, qnorms, reps.Data[r0*dim:r1*dim], pn, dim, t, ts)
				for i := 0; i < bq; i++ {
					copy(rows[i*nr+r0:i*nr+r1], t[i*bp:(i+1)*bp])
				}
			}
			for i := 0; i < bq; i++ {
				local.Add(back(q0+i, rows[i*nr:(i+1)*nr], sc, ts))
			}
		}
		mu.Lock()
		agg.Add(local)
		mu.Unlock()
	})
	return agg
}
