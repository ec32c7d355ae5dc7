package core

// The decisions of the paper's exact search (§5.2), each written once.
// Let γ_1 be the smallest distance from the query q to a representative
// and γ_k any upper bound on the k-th nearest-neighbor distance: the k-th
// smallest representative distance (representatives are database
// points), or — in Exact and GenericExact — the smaller k-th candidate
// distance the home probe finds. Every rule has the form "prune r when
// ρ(q,r) is strictly past a threshold", one comparison (rule.holds) on an
// exact distance. Strict rules keep every point at exactly γ_k on a
// scanned list, so every exact path returns the brute-force (dist, id)
// answer, ids included, whichever bound it prunes at.
//
// Exact, GenericExact and the distributed coordinator all decide through
// this file; AdmissibleWindow (window.go) is the matching single home of
// the admissible-window rule.

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
// if x is one of the k NNs and r* owns x, then
// ρ(x,r*) ≤ ρ(x,q)+ρ(q,r_1) ≤ γ_k+γ_1, so
// ρ(q,r*) ≤ ρ(q,x)+ρ(x,r*) ≤ 2γ_k+γ_1 (= 3γ at k = 1). An unbounded γ_k
// (fewer than k representatives) makes the threshold +Inf, which no
// distance is past.
func tripleRule(gamma1, gammaK float64) rule { return rule{t: 2*gammaK + gamma1} }

// PrunedByPsi applies the k-NN radius rule to an exact distance d.
func PrunedByPsi(d, gammaK, radius float64) bool { return psiRule(gammaK, radius).holds(d) }

// PrunedByTriple applies the k-NN form of the 3γ rule to an exact
// distance d.
func PrunedByTriple(d, gamma1, gammaK float64) bool { return tripleRule(gamma1, gammaK).holds(d) }
