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
// ExampleBuildGenericExact for strings under edit distance.

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
