package core

import (
	"sync"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// tileFrontHalf is the batched BF(Q,R) front half every batch search path
// shares — the only tiled phase-1 loop in the repository. par.For splits
// the block over workers; each worker walks its share in query tiles,
// compares a tile against representative tiles through ker, and hands the
// tile's phase-1 rows to back: queries [q0, q1), rows holding their
// (q1−q0) × |R| ordering distances row-major. back runs the tile's back
// half (pruning or probing, list scans) and returns its Stats.
//
// The front half owns sc's float64 slots 3 and 4 (rows, kernel tile);
// rows stay valid until back returns.
func tileFrontHalf(ker *metric.Kernel, queries, reps *vec.Dataset,
	back func(q0, q1 int, rows []float64, sc *par.Scratch) Stats) Stats {
	nq := queries.N()
	nr := reps.N()
	dim := queries.Dim
	tq, tp := metric.TileShape(dim)
	var agg Stats
	var mu sync.Mutex
	par.For(nq, 1, func(lo, hi int) {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		var local Stats
		rows := sc.Float64(3, tq*nr)
		tile := sc.Float64(4, tq*tp)
		for q0 := lo; q0 < hi; q0 += tq {
			q1 := q0 + tq
			if q1 > hi {
				q1 = hi
			}
			bq := q1 - q0
			qflat := queries.Data[q0*dim : q1*dim]
			for r0 := 0; r0 < nr; r0 += tp {
				r1 := r0 + tp
				if r1 > nr {
					r1 = nr
				}
				bp := r1 - r0
				t := tile[:bq*bp]
				ker.Tile(qflat, nil, reps.Data[r0*dim:r1*dim], nil, dim, t, nil)
				for i := 0; i < bq; i++ {
					copy(rows[i*nr+r0:i*nr+r1], t[i*bp:(i+1)*bp])
				}
			}
			local.Add(back(q0, q1, rows[:bq*nr], sc))
		}
		mu.Lock()
		agg.Add(local)
		mu.Unlock()
	})
	return agg
}

// rowFrontHalf is tileFrontHalf for back halves that run one query at a
// time: back receives query i's full phase-1 ordering row.
func rowFrontHalf(ker *metric.Kernel, queries, reps *vec.Dataset,
	back func(i int, row []float64, sc *par.Scratch) Stats) Stats {
	nr := reps.N()
	return tileFrontHalf(ker, queries, reps,
		func(q0, q1 int, rows []float64, sc *par.Scratch) Stats {
			var st Stats
			for i := q0; i < q1; i++ {
				st.Add(back(i, rows[(i-q0)*nr:(i-q0+1)*nr], sc))
			}
			return st
		})
}
