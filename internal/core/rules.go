package core

import (
	"math"
	"slices"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// The decisions of the paper's exact search (§5.2), each written once.
// Let γ_1 be the smallest distance from the query q to a representative
// and γ_k any upper bound on the k-th nearest-neighbor distance: the k-th
// smallest live representative distance (representatives are database
// points), or — in Exact and GenericExact — the smaller k-th candidate
// distance the home probe finds. Every rule has the form "prune r when
// ρ(q,r) is strictly past a threshold" (rule.holds). Strict rules keep
// every point at exactly γ_k on a scanned list, so every exact path
// returns the brute-force (dist, id) answer, ids included, whichever
// bound it prunes at.
//
// Exact and the distributed coordinator (Route) decide through
// pruner.decide; GenericExact and Exact's range search apply the rules to
// converted distances.

// rule prunes a representative whose distance d to the query is past t:
// d > t.
type rule struct{ t float64 }

func (r rule) holds(d float64) bool { return d > r.t }

// relaxedGamma is the γ the radius rule and the admissible window use:
// γ_k itself, or γ_k/(1+ε) under ExactParams.ApproxEps (the paper's
// footnote-1 variant — the answer is then (1+ε)-approximate).
func relaxedGamma(gammaK, approxEps float64) float64 {
	if approxEps > 0 {
		return gammaK / (1 + approxEps)
	}
	return gammaK
}

// psiRule is inequality (1) generalized to k-NN: a representative with
// ρ(q,r) > γ + ψ_r owns no point within γ of q (triangle inequality), so
// with γ = γ_k — or its relaxedGamma — its list cannot improve the answer.
// The paper's non-strict form would also prune a list that can hold a
// member at exactly γ from q, so which tied id survived would depend on
// the bound a path prunes at.
func psiRule(gamma, radius float64) rule { return rule{t: gamma + radius} }

// rangePsiRule is the radius rule of range search: r can own a point
// within eps of q only if ρ(q,r) ≤ eps + ψ_r.
func rangePsiRule(eps, radius float64) rule { return rule{t: eps + radius} }

// tripleRule is inequality (2), Lemma 1's ρ(q,r) > 3γ, in its k-NN form:
// if x is one of the k NNs and r* owns x, then for the nearest
// representative r_1 — tombstoned or not, since every list is owned by
// the nearest of all representatives —
// ρ(x,r*) ≤ ρ(x,r_1) ≤ ρ(x,q)+ρ(q,r_1) ≤ γ_k+γ_1, so
// ρ(q,r*) ≤ ρ(q,x)+ρ(x,r*) ≤ 2γ_k+γ_1 (= 3γ at k = 1). An unbounded γ_k
// (fewer than k live representatives) makes the threshold +Inf, which no
// distance is past.
func tripleRule(gamma1, gammaK float64) rule { return rule{t: 2*gammaK + gamma1} }

// pruner holds what one index's phase-1 decisions read besides a query's
// row. squared marks Euclidean orderings (squares, converted by a
// correctly rounded sqrt); convert any other metric.Orderer (math.Pow,
// not guaranteed monotone), whose row decide converts first. Otherwise
// orderings are distances.
type pruner struct {
	ker                           *metric.Kernel
	squared, convert, psi, triple bool
	repIDs                        []int
	radii                         []float64
	deleted                       []bool // database id → tombstoned; nil when no row is
	approxEps                     float64
}

func newPruner(ker *metric.Kernel, repIDs []int, radii []float64, prm ExactParams) pruner {
	_, squared := ker.Metric().(metric.Euclidean)
	_, ordered := ker.Metric().(metric.Orderer)
	return pruner{ker: ker, squared: squared, convert: ordered && !squared, psi: prm.PrunePsi,
		triple: prm.PruneTriple, repIDs: repIDs, radii: radii, approxEps: prm.ApproxEps}
}

// squaredBound is a square no square at distance ≤ t exceeds: at least
// Euclidean's Kernel.OrderingBound(t), the float after t²
// (TestSquaredBoundCoversOrderingBound). t·t rounds by under 2⁻⁵² of
// itself, which the 2⁻⁵⁰ guard clears; the smallest subnormal clears a
// square that underflows. No key is past a NaN t's bound.
func squaredBound(t float64) float64 { return t*t*(1+0x1p-50) + 0x1p-1074 }

// dist converts a key to its distance.
func (p *pruner) dist(x float64) float64 {
	if p.squared {
		return p.ker.ToDistance(x)
	}
	return x
}

func (p *pruner) live(j int) bool { return p.deleted == nil || !p.deleted[p.repIDs[j]] }

// decide is the per-query step between the paper's two brute-force
// calls. One pass over a query's phase-1 row finds the home (nearest
// representative, lowest index at distance ties, tombstoned ones
// included), at distance γ_1; for k > 1 or with tombstones sc's heap
// slot 1 selects the k-th smallest live key, at distance γ_k (keys
// convert monotonically; +Inf while fewer than k are live). The live
// representatives at or under it seed h, which keeps the k-NN multiset
// exact at ties. probe, if non-nil, scans part of the home list into h,
// and γ_k drops to h's worst when smaller. A key past its ψ threshold's
// bound is pruned at one compare; the rest convert and meet both rules.
// keep gets each survivor with ρ(q,r) and the window half-width w, which
// decide returns. Under convert the converted row is sc's float64 slot 7.
func (p *pruner) decide(ords []float64, k int, h *par.KHeap, sc *par.Scratch, st *Stats,
	probe func(home int, d float64), keep func(j int, d, w float64)) float64 {
	nr, keys, radii, usePsi, useTriple := len(ords), ords, p.radii, p.psi, p.triple
	if p.convert {
		keys = sc.Float64(7, nr)
		for j, o := range ords {
			keys[j] = p.ker.ToDistance(o)
		}
	}

	var sel *par.KHeap
	if (k > 1 || p.deleted != nil) && k <= nr {
		sel = sc.Heap(1, k)
		for j, x := range keys {
			if p.live(j) {
				sel.Push(j, x)
			}
		}
	}
	// before is the smallest key ahead of the home's: if it converts to
	// the home's distance, an earlier representative ties the home.
	home, x1, before, tied := 0, keys[0], math.Inf(1), false
	for j, x := range keys[1:] {
		if x < x1 {
			home, x1, before, tied = j+1, x, x1, false
		} else if !(x > x1) {
			tied = true // an exact tie, or a NaN
		}
	}
	xk := x1
	if sel != nil {
		xk, _ = sel.Worst()
	} else if k > nr {
		xk = math.Inf(1)
	}
	if sel == nil && !tied && k == 1 {
		h.Push(p.repIDs[home], ords[home]) // the one key at or under x1
	} else {
		for j, x := range keys {
			if !(x > xk) && p.live(j) {
				h.Push(p.repIDs[j], ords[j])
			}
		}
	}
	gamma1, gammaK := p.dist(x1), p.dist(xk)
	if p.dist(before) == gamma1 {
		home = slices.IndexFunc(keys, func(x float64) bool { return p.dist(x) == gamma1 })
	}
	if probe != nil {
		probe(home, gamma1)
		if worst, full := h.Worst(); full {
			gammaK = min(gammaK, p.ker.ToDistance(worst))
		}
	}

	w := relaxedGamma(gammaK, p.approxEps)
	triple := tripleRule(gamma1, gammaK)
	for j := 0; j < nr; j++ {
		if usePsi {
			// The common case, one compare per representative.
			start := j
			if p.squared {
				for j < nr && keys[j] > squaredBound(psiRule(w, radii[j]).t) {
					j++
				}
			} else {
				for j < nr && keys[j] > psiRule(w, radii[j]).t {
					j++
				}
			}
			if st.PrunedPsi += int64(j - start); j == nr {
				break
			}
		}
		// Left open: convert and decide exactly.
		x, psi := p.dist(keys[j]), psiRule(w, radii[j])
		switch {
		case usePsi && psi.holds(x):
			st.PrunedPsi++
		case useTriple && triple.holds(x):
			st.PrunedTriple++
		default:
			st.RepsKept++
			keep(j, x, w)
		}
	}
	return w
}

// Route is phase 1 of a coordinator that holds the representatives but
// not their lists (the distributed cluster): the batched BF(Q,R) front
// half, then per query i pruner.decide with both rules and no home probe.
// heaps[i] gets a fresh seeded heap of capacity k; keep(i, j, d) gets each
// kept representative j at ρ(q_i, r_j), concurrently for distinct i.
func Route(ker *metric.Kernel, queries, reps *vec.Dataset, repIDs []int, radii []float64, k int,
	heaps []*par.KHeap, keep func(i, j int, d float64)) Stats {
	p := newPruner(ker, repIDs, radii, ExactParams{PrunePsi: true, PruneTriple: true})
	return rowFrontHalf(ker, queries, reps, func(i int, row []float64, sc *par.Scratch) Stats {
		st := Stats{RepEvals: int64(len(row))}
		heaps[i] = par.NewKHeap(k)
		p.decide(row, k, heaps[i], sc, &st, nil, func(j int, d, _ float64) { keep(i, j, d) })
		return st
	})
}
