package core

import (
	"math"
	"slices"

	"repro/internal/par"
)

// k-NN and range search for the generic (arbitrary point type) RBC,
// mirroring the vector implementations: the same rules (rules.go) and the
// same window (AdmissibleWindow) applied to exact distances, with
// per-point Distance calls in place of batched scans.

// KNN returns the k exact nearest neighbors of q under the generic exact
// index, sorted by ascending distance. At k = 1 the pruning rules are the
// paper's own 1-NN rules (γ_k = γ_1 = γ, 2γ_k + γ_1 = 3γ).
func (g *GenericExact[P]) KNN(q P, k int) ([]par.Neighbor, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	nr := g.NumReps()
	st := Stats{RepEvals: int64(nr)}
	repDists := make([]float64, nr)
	for j, rid := range g.repIDs {
		repDists[j] = g.m.Distance(q, g.db[rid])
	}
	sorted := slices.Clone(repDists)
	slices.Sort(sorted)
	gamma1, gammaK := sorted[0], math.Inf(1)
	if k <= nr {
		gammaK = sorted[k-1]
	}

	h := par.NewKHeap(k)
	for j, d := range repDists {
		h.Push(g.repIDs[j], d)
	}
	scan := func(list []int32, lo, hi int) {
		for _, id := range list[lo:hi] {
			st.PointEvals++
			if !g.isRep[id] {
				h.Push(int(id), g.m.Distance(q, g.db[id]))
			}
		}
	}
	// The home probe (see Exact.prune): the HomeProbe·k members of the
	// nearest representative's list nearest ρ(q,r), then γ_k tightened to
	// the k-th candidate distance.
	home, _ := par.ArgMin(repDists)
	pLo, pHi := ProbeRun(g.dists[home], repDists[home], HomeProbe*k)
	scan(g.lists[home], pLo, pHi)
	if worst, full := h.Worst(); full {
		gammaK = min(gammaK, worst)
	}
	w := relaxedGamma(gammaK, g.prm.ApproxEps)
	triple := tripleRule(gamma1, gammaK)

	for j := range g.repIDs {
		d := repDists[j]
		if g.prm.PrunePsi && psiRule(w, g.radii[j]).holds(d) {
			st.PrunedPsi++
			continue
		}
		if g.prm.PruneTriple && triple.holds(d) {
			st.PrunedTriple++
			continue
		}
		st.RepsKept++
		list := g.lists[j]
		lo, hi := AdmissibleWindow(g.dists[j], d-w, d+w)
		if j == home {
			scan(list, lo, max(lo, min(hi, pLo)))
			lo = min(hi, max(lo, pHi))
		}
		scan(list, lo, hi)
	}
	return h.Results(), st
}

// Range returns every database point within eps of q, sorted by
// ascending distance.
func (g *GenericExact[P]) Range(q P, eps float64) ([]par.Neighbor, Stats) {
	nr := g.NumReps()
	st := Stats{RepEvals: int64(nr)}
	repDists := make([]float64, nr)
	for j, rid := range g.repIDs {
		repDists[j] = g.m.Distance(q, g.db[rid])
	}
	var hits []par.Neighbor
	for j := range g.repIDs {
		d := repDists[j]
		if rangePsiRule(eps, g.radii[j]).holds(d) {
			st.PrunedPsi++
			continue
		}
		st.RepsKept++
		list := g.lists[j]
		lo, hi := AdmissibleWindow(g.dists[j], d-eps, d+eps)
		for i := lo; i < hi; i++ {
			id := int(list[i])
			dd := g.m.Distance(q, g.db[id])
			st.PointEvals++
			if dd <= eps {
				hits = append(hits, par.Neighbor{ID: id, Dist: dd})
			}
		}
	}
	par.SortNeighbors(hits)
	return hits, st
}

// KNN returns the k (probabilistically correct) nearest neighbors under
// the generic one-shot index, scanning the nearest representative's list;
// ties break toward the lower id.
func (g *GenericOneShot[P]) KNN(q P, k int) ([]par.Neighbor, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	nr := g.NumReps()
	st := Stats{RepEvals: int64(nr)}
	bestRep, bd := -1, math.Inf(1)
	for j, rid := range g.repIDs {
		if d := g.m.Distance(q, g.db[rid]); d < bd {
			bestRep, bd = j, d
		}
	}
	st.RepsKept = 1
	h := par.NewKHeap(k)
	for _, id := range g.lists[bestRep] {
		h.Push(int(id), g.m.Distance(q, g.db[int(id)]))
		st.PointEvals++
	}
	return h.Results(), st
}
