package core

import (
	"math"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
)

// This file carries the generic RBC over arbitrary point types P — the
// paper's algorithms verbatim, minus the vector fast paths. It is what
// makes the "works for any metric" claim concrete: see
// examples/editdistance for strings under edit distance.

// GenericExact is the exact-search RBC over a []P database.
type GenericExact[P any] struct {
	db  []P
	m   metric.Metric[P]
	prm ExactParams

	repIDs []int
	radii  []float64
	lists  [][]int32   // member db ids per representative, sorted by dist
	dists  [][]float64 // matching distances to the representative
	isRep  []bool
}

// BuildGenericExact constructs the exact-search RBC over an arbitrary
// metric space.
func BuildGenericExact[P any](db []P, m metric.Metric[P], prm ExactParams) (*GenericExact[P], error) {
	n := len(db)
	if err := validateBuildInputs(n, 1); err != nil {
		return nil, err
	}
	prm = prm.withDefaults(n)
	rng := newRand(prm.Seed)
	repIDs := sampleReps(n, prm.NumReps, prm.ExactCount, rng)
	nr := len(repIDs)
	isRep := make([]bool, n)
	for _, id := range repIDs {
		isRep[id] = true
	}

	owner := make([]int32, n)
	ownerDist := make([]float64, n)
	par.ForEach(n, 64, func(i int) {
		best, bd := 0, math.Inf(1)
		for j, rid := range repIDs {
			if d := m.Distance(db[i], db[rid]); d < bd {
				best, bd = j, d
			}
		}
		owner[i] = int32(best)
		ownerDist[i] = bd
	})

	g := &GenericExact[P]{
		db: db, m: m, prm: prm,
		repIDs: repIDs, isRep: isRep,
		radii: make([]float64, nr),
		lists: make([][]int32, nr),
		dists: make([][]float64, nr),
	}
	for i := 0; i < n; i++ {
		j := owner[i]
		g.lists[j] = append(g.lists[j], int32(i))
		g.dists[j] = append(g.dists[j], ownerDist[i])
	}
	for j := 0; j < nr; j++ {
		sortSegment(g.lists[j], g.dists[j])
		if len(g.dists[j]) > 0 {
			g.radii[j] = g.dists[j][len(g.dists[j])-1]
		}
	}
	return g, nil
}

// NumReps reports the realized number of representatives.
func (g *GenericExact[P]) NumReps() int { return len(g.repIDs) }

// One returns the exact nearest neighbor of q and the work performed: the
// k = 1 case of KNN, where the pruning rules are the paper's own
// (γ_k = γ_1 = γ, 2γ_k + γ_1 = 3γ).
func (g *GenericExact[P]) One(q P) (Result, Stats) {
	nbs, st := g.KNN(q, 1)
	if len(nbs) == 0 {
		return Result{ID: -1, Dist: math.Inf(1)}, st
	}
	return Result{ID: nbs[0].ID, Dist: nbs[0].Dist}, st
}

// Search answers a batch of queries in parallel.
func (g *GenericExact[P]) Search(queries []P) ([]Result, Stats) {
	out := make([]Result, len(queries))
	stats := make([]Stats, len(queries))
	par.ForEach(len(queries), 1, func(i int) {
		out[i], stats[i] = g.One(queries[i])
	})
	var agg Stats
	for i := range stats {
		agg.Add(stats[i])
	}
	return out, agg
}

// GenericOneShot is the one-shot RBC over a []P database.
type GenericOneShot[P any] struct {
	db  []P
	m   metric.Metric[P]
	prm OneShotParams

	repIDs []int
	radii  []float64
	lists  [][]int32
}

// BuildGenericOneShot constructs the one-shot RBC over an arbitrary metric
// space.
func BuildGenericOneShot[P any](db []P, m metric.Metric[P], prm OneShotParams) (*GenericOneShot[P], error) {
	n := len(db)
	if err := validateBuildInputs(n, 1); err != nil {
		return nil, err
	}
	prm = prm.withDefaults(n)
	rng := newRand(prm.Seed)
	repIDs := sampleReps(n, prm.NumReps, prm.ExactCount, rng)
	nr := len(repIDs)
	g := &GenericOneShot[P]{
		db: db, m: m, prm: prm,
		repIDs: repIDs,
		radii:  make([]float64, nr),
		lists:  make([][]int32, nr),
	}
	par.ForEach(nr, 1, func(j int) {
		nbs := bruteforce.SearchOneKGeneric(db[repIDs[j]], db, prm.S, m, nil)
		list := make([]int32, len(nbs))
		for i, nb := range nbs {
			list[i] = int32(nb.ID)
		}
		g.lists[j] = list
		g.radii[j] = nbs[len(nbs)-1].Dist
	})
	return g, nil
}

// NumReps reports the realized number of representatives.
func (g *GenericOneShot[P]) NumReps() int { return len(g.repIDs) }

// One runs the one-shot search for q.
func (g *GenericOneShot[P]) One(q P) (Result, Stats) {
	nr := g.NumReps()
	st := Stats{RepEvals: int64(nr)}
	bestRep, bd := -1, math.Inf(1)
	for j, rid := range g.repIDs {
		if d := g.m.Distance(q, g.db[rid]); d < bd {
			bestRep, bd = j, d
		}
	}
	st.RepsKept = 1
	best := Result{ID: -1, Dist: math.Inf(1)}
	for _, id := range g.lists[bestRep] {
		d := g.m.Distance(q, g.db[int(id)])
		st.PointEvals++
		if d < best.Dist || (d == best.Dist && int(id) < best.ID) {
			best = Result{ID: int(id), Dist: d}
		}
	}
	return best, st
}

// Search answers a batch of queries in parallel.
func (g *GenericOneShot[P]) Search(queries []P) ([]Result, Stats) {
	out := make([]Result, len(queries))
	stats := make([]Stats, len(queries))
	par.ForEach(len(queries), 1, func(i int) {
		out[i], stats[i] = g.One(queries[i])
	})
	var agg Stats
	for i := range stats {
		agg.Add(stats[i])
	}
	return out, agg
}
