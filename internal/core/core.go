// Package core implements the Random Ball Cover (RBC) of Cayton (2012):
// a single-level randomized cover of a metric space whose build and search
// routines factor entirely into brute-force scans, making them trivially
// parallel while still doing only ~O(√n) work per query.
//
// Two index types mirror the paper's two algorithms:
//
//   - OneShot (§5.1): each representative owns its s nearest database
//     points; a query scans the representatives, then the single ownership
//     list of the nearest representative. Correct with high probability.
//   - Exact (§5.2): each database point is owned by its nearest
//     representative; a query scans the representatives, prunes
//     representatives with two triangle-inequality bounds, then scans the
//     survivors' lists. Always correct.
//
// Both hold the ownership lists' points gathered contiguously so the
// second phase is a streaming scan, exactly like the first — the paper's
// "two brute force calls" structure.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Stats reports the work a search performed, split by phase, so
// experiments can measure machine-independent speedups
// (brute-force cost / (RepEvals+PointEvals)).
type Stats struct {
	// RepEvals counts phase-1 distance evaluations (query to
	// representatives).
	RepEvals int64
	// PointEvals counts phase-2 distance evaluations (query to ownership
	// list members): every position of the exact search's home-probe run
	// and of a kept list's admissible window — less the probed run on the
	// home list — representatives included (they are skipped as
	// candidates, not as work), whatever mix of tiles and rows evaluated
	// them. Every search path, GenericExact included, counts by this rule,
	// so the field is comparable across paths. (The one exception is a mutated index's insertion buffers,
	// scanned point by point: a tombstoned buffer member is never
	// evaluated or counted.)
	PointEvals int64
	// RepsKept counts representatives surviving all pruning rules.
	RepsKept int64
	// PrunedPsi counts representatives discarded by the radius bound
	// ρ(q,r) > γ + ψ_r (inequality (1) in the paper, strict).
	PrunedPsi int64
	// PrunedTriple counts representatives discarded by the Lemma 1 bound
	// ρ(q,r) > 3γ (inequality (2)); a representative failing both rules is
	// counted under PrunedPsi.
	PrunedTriple int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.RepEvals += o.RepEvals
	s.PointEvals += o.PointEvals
	s.RepsKept += o.RepsKept
	s.PrunedPsi += o.PrunedPsi
	s.PrunedTriple += o.PrunedTriple
}

// TotalEvals is the total number of distance evaluations.
func (s Stats) TotalEvals() int64 { return s.RepEvals + s.PointEvals }

// DefaultNumReps returns the paper's standard parameter setting n_r ≈ √n
// (§6: n_r = O(c^{3/2}√n); the c-dependent constant is left to tuning, and
// Appendix C shows performance is stable over a wide range).
func DefaultNumReps(n int) int {
	if n <= 0 {
		return 0
	}
	nr := int(math.Ceil(math.Sqrt(float64(n))))
	if nr > n {
		nr = n
	}
	return nr
}

// sampleReps draws the representative set. With exactCount false it
// follows the paper exactly: every index enters R independently with
// probability nr/n (so |R| is Binomial with mean nr). With exactCount true
// it draws a uniform nr-subset, which tests and serialization prefer for
// size determinism. At least one representative is always returned.
func sampleReps(n, nr int, exactCount bool, rng *rand.Rand) []int {
	if nr >= n {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	if exactCount {
		perm := rng.Perm(n)[:nr]
		// Sorted order keeps buffers cache-friendly and runs reproducible.
		sortInts(perm)
		return perm
	}
	p := float64(nr) / float64(n)
	ids := make([]int, 0, nr+int(3*math.Sqrt(float64(nr)))+1)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		ids = append(ids, rng.Intn(n))
	}
	return ids
}

func sortInts(xs []int) { sort.Ints(xs) }

// newRand builds a deterministic source from a seed; seed 0 is mapped to a
// fixed non-zero constant so the zero-value params remain usable.
func newRand(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 0x5eed
	}
	return rand.New(rand.NewSource(seed))
}

func validateBuildInputs(n, dim int) error {
	if n == 0 {
		return fmt.Errorf("core: cannot build an RBC over an empty database")
	}
	if dim <= 0 {
		return fmt.Errorf("core: database has invalid dimension %d", dim)
	}
	return nil
}
