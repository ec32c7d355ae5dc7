// Package expansion estimates the expansion rate (growth dimension) of a
// finite metric space — Definition 1 of the paper: the smallest c such
// that |B(x,2r)| ≤ c·|B(x,r)| for all x and r. The RBC's runtime bounds
// are stated in terms of c, so the estimator lets experiments report the
// intrinsic dimensionality (log₂ c) of each workload alongside speedups.
//
// The exact expansion rate requires an O(n²) sweep over all centers and
// radii; the estimator samples centers, computes their full distance
// profiles, and evaluates the doubling ratio |B(x,2r)|/|B(x,r)| on a
// ladder of data-driven radii, ignoring balls below a noise floor.
package expansion

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Options tunes the estimator.
type Options struct {
	// Samples is the number of center points examined (default 32).
	Samples int
	// MinBall is the smallest |B(x,r)| considered; ratios on tinier balls
	// are dominated by sampling noise (default 8).
	MinBall int
	// Seed drives center sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 32
	}
	if o.MinBall <= 0 {
		o.MinBall = 8
	}
	return o
}

// Estimate summarizes the sampled doubling behaviour of a dataset.
type Estimate struct {
	// CMax is the largest doubling ratio observed — the empirical
	// expansion rate over the sampled centers and radii.
	CMax float64
	// CMedian is the median of the per-center maxima: a robust central
	// value less sensitive to a single adversarial center.
	CMedian float64
	// Dim is log₂(CMedian): the growth-dimension analogue of "intrinsic
	// dimensionality" (the paper's grid example has c = 2^d exactly).
	Dim float64
	// DimMax is log₂(CMax).
	DimMax float64
	// Samples is the number of centers actually used.
	Samples int
}

// Vectors estimates the expansion rate of a vector dataset under m.
func Vectors(db *vec.Dataset, m metric.Metric[[]float32], opts Options) Estimate {
	n := db.N()
	ker := metric.NewKernel(m)
	gen := func(i int) []float64 {
		dists := make([]float64, n)
		ker.Ordering(db.Row(i), db.Data, db.Dim, dists)
		for j, o := range dists {
			dists[j] = ker.ToDistance(o)
		}
		return dists
	}
	return estimate(n, gen, opts)
}

// Generic estimates the expansion rate of an arbitrary metric space.
func Generic[P any](db []P, m metric.Metric[P], opts Options) Estimate {
	gen := func(i int) []float64 {
		dists := make([]float64, len(db))
		for j := range db {
			dists[j] = m.Distance(db[i], db[j])
		}
		return dists
	}
	return estimate(len(db), gen, opts)
}

func estimate(n int, distsFrom func(i int) []float64, opts Options) Estimate {
	opts = opts.withDefaults()
	if n == 0 {
		return Estimate{}
	}
	if opts.Samples > n {
		opts.Samples = n
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	centers := rng.Perm(n)[:opts.Samples]

	perCenter := make([]float64, len(centers))
	par.ForEach(len(centers), 1, func(ci int) {
		dists := distsFrom(centers[ci])
		sort.Float64s(dists)
		perCenter[ci] = maxDoublingRatio(dists, opts.MinBall)
	})

	est := Estimate{Samples: len(centers), CMax: 1}
	valid := perCenter[:0]
	for _, c := range perCenter {
		if c > 0 {
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 {
		return est
	}
	sort.Float64s(valid)
	est.CMax = valid[len(valid)-1]
	est.CMedian = valid[len(valid)/2]
	est.Dim = math.Log2(est.CMedian)
	est.DimMax = math.Log2(est.CMax)
	return est
}

// maxDoublingRatio scans the sorted distance profile of one center and
// returns the largest |B(x,2r)|/|B(x,r)| over radii r taken at each
// distinct distance value with |B(x,r)| ≥ minBall and 2r within the data
// span. Counting via binary search keeps the scan O(n log n).
func maxDoublingRatio(sorted []float64, minBall int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	best := 0.0
	for i := minBall - 1; i < n; i++ {
		r := sorted[i]
		if r == 0 {
			continue
		}
		inner := sort.SearchFloat64s(sorted, math.Nextafter(r, math.Inf(1)))
		outer := sort.SearchFloat64s(sorted, math.Nextafter(2*r, math.Inf(1)))
		if inner < minBall {
			continue
		}
		// Saturated doubled balls (outer == n) still witness the
		// expansion rate — on concentrated high-dimensional data they are
		// in fact where c shows up, so they are not skipped.
		if ratio := float64(outer) / float64(inner); ratio > best {
			best = ratio
		}
	}
	return best
}
