package core

import (
	"math"
	"sort"
)

// This file holds the primitives behind the admissible window (the
// paper's Claim 2 "sorted list" refinement) and the home probe:
//
//   - sortSegment puts one ownership-list segment into the ascending
//     (distance-to-representative, id) order every window computation
//     assumes;
//   - AdmissibleWindow converts a distance-space admissibility interval
//     into a half-open position window over such a sorted segment;
//   - ProbeRun picks the HomeProbe·k members of such a segment nearest a
//     query in ρ(·,r), the run the home probe scans before any rule, and
//     SplitAroundRun takes that run back out of the home list's window.
//
// AdmissibleWindow, ProbeRun, HomeProbe and SplitAroundRun are exported
// (instead of re-implemented per layer) so the distributed shard scans
// probe and clip with exactly the arithmetic Exact's own phase-2 paths
// run — which is what makes "cluster answers are bit-identical to
// single-node Exact" a structural property rather than a numerical
// coincidence. Shard segments are copies of the index's own sorted lists
// (Exact.List), so nothing above core sorts.

// sortSegment sorts one ownership-list segment in place by ascending
// (distance-to-representative, id). ids and dists must be position-aligned
// and of equal length. This is the layout the admissible window
// requires: with dists ascending, the set of positions admissible for a
// query is a contiguous range found by binary search.
func sortSegment(ids []int32, dists []float64) {
	sort.Sort(&segSorter{ids: ids, dists: dists})
}

// AdmissibleWindow returns the half-open position window [lo, hi) of the
// ascending distance slice repDists whose values lie in the inclusive
// interval [dLo, dHi]. It is the binary-search step of the window
// refinement: for a query at distance d from a representative, only
// members x with ρ(x,r) ∈ [d−w, d+w] can lie within w of the query (the
// triangle inequality), so callers pass dLo = d−w, dHi = d+w and scan
// only the returned window.
//
// Both boundaries are inclusive — a member exactly at dLo or dHi stays
// admissible — which is what keeps window-clipped scans answer-preserving
// at razor ties. An infinite interval ([-Inf, +Inf], from an unbounded
// pruning radius) selects the whole segment; an interval beyond the
// segment's range returns an empty window (lo == hi).
func AdmissibleWindow(repDists []float64, dLo, dHi float64) (lo, hi int) {
	lo = sort.SearchFloat64s(repDists, dLo)
	hi = sort.SearchFloat64s(repDists, math.Nextafter(dHi, math.Inf(1)))
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// HomeProbe sizes the home probe: Exact.prune scans the HomeProbe·k
// members of the home list nearest the query in ρ(·,r) before it applies
// any rule, and a cluster shard does the same on its local home segment.
const HomeProbe = 8

// ProbeRun returns the half-open position window [lo, hi) of the m members
// of the ascending distance slice repDists whose values lie nearest d —
// one contiguous run grown outward from d's insertion point, taking the
// lower side on equal gaps, clamped to the slice. It is the home probe's
// extent (Exact.prune, GenericExact.KNN, the distributed shard scan).
func ProbeRun(repDists []float64, d float64, m int) (lo, hi int) {
	m = min(m, len(repDists))
	lo = sort.SearchFloat64s(repDists, d)
	hi = lo
	for hi-lo < m {
		if hi == len(repDists) || (lo > 0 && d-repDists[lo-1] <= repDists[hi]-d) {
			lo--
		} else {
			hi++
		}
	}
	return lo, hi
}

// SplitAroundRun removes the probed run [pLo, pHi) from the scan window
// [lo, hi): what is left is [lo, a) and [b, hi), either possibly empty.
// The run was already scanned by the home probe, so the home list's
// window is kept as those two quadruples (Exact.prune, the distributed
// shard scan).
func SplitAroundRun(lo, hi, pLo, pHi int) (a, b int) {
	return max(lo, min(hi, pLo)), min(hi, max(lo, pHi))
}

// insertPos returns the position at which a member with distance d and
// database id would splice into a segment already in ascending
// (dist, id) order, preserving that order. It is the binary-search half
// of the sorted insertion buffers in mutate.go, under the exact
// comparison rule sortSegment establishes.
func insertPos(dists []float64, ids []int32, d float64, id int32) int {
	return sort.Search(len(dists), func(i int) bool {
		if dists[i] != d {
			return dists[i] > d
		}
		return ids[i] > id
	})
}

// segmentSorted reports whether the position-aligned (ids, dists) pair
// is in the ascending (dist, id) order sortSegment establishes — the
// invariant every AdmissibleWindow and insertPos call assumes. Used by
// snapshot validation and the mutation property tests.
func segmentSorted(ids []int32, dists []float64) bool {
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1] ||
			(dists[i] == dists[i-1] && ids[i] <= ids[i-1]) {
			return false
		}
	}
	return true
}
