package rbc

import (
	"io"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/vec"
)

// Dataset is a dense row-major float32 point collection; see
// internal/vec for the full API (Append, Row, Subset, Save/Load, …).
type Dataset = vec.Dataset

// Metric is a distance over float32 vectors. Implementations used with
// Exact must satisfy the triangle inequality.
type Metric = metric.Metric[[]float32]

// Result is a 1-NN answer: database id and distance (ID -1 when empty).
type Result = core.Result

// Stats reports per-search work: distance evaluations by phase and
// pruning counters. See core.Stats.
type Stats = core.Stats

// ExactParams configures BuildExact; the zero value selects the paper's
// standard setting (n_r ≈ √n, both pruning bounds).
type ExactParams = core.ExactParams

// OneShotParams configures BuildOneShot; the zero value selects
// n_r = s ≈ √n with one probe.
type OneShotParams = core.OneShotParams

// Exact is the always-correct RBC index (paper §5.2).
type Exact = core.Exact

// OneShot is the probabilistically-correct RBC index (paper §5.1).
type OneShot = core.OneShot

// NewDataset returns an empty dataset expecting points of the given
// dimension.
func NewDataset(dim int) *Dataset { return vec.New(dim, 0) }

// FromRows builds a dataset by copying rows (all the same length).
func FromRows(rows [][]float32) *Dataset { return vec.FromRows(rows) }

// LoadDataset reads a dataset saved with Dataset.SaveFile.
func LoadDataset(path string) (*Dataset, error) { return vec.LoadFile(path) }

// Euclidean returns the l2 metric used throughout the paper's
// experiments.
func Euclidean() Metric { return metric.Euclidean{} }

// Manhattan returns the l1 metric.
func Manhattan() Metric { return metric.Manhattan{} }

// Chebyshev returns the l∞ metric.
func Chebyshev() Metric { return metric.Chebyshev{} }

// Minkowski returns the lp metric for p >= 1 (it panics for p < 1, which
// is not a metric).
func Minkowski(p float64) Metric { return metric.NewMinkowski(p) }

// Angular returns the angle-between-vectors metric (a true metric on the
// unit sphere, unlike raw cosine "distance").
func Angular() Metric { return metric.Angular{} }

// BruteForce answers every query exactly with the tiled BF(Q,X)
// matrix-matrix primitive — no index, one pass over the database shared by
// the whole query block. It is the baseline the RBC indexes are measured
// against and the right tool for one-off batches too small to amortize an
// index build. It runs on the exact kernel, so answers are bit-identical
// to a per-query scan, ties toward the lower id.
func BruteForce(queries, db *Dataset, m Metric) []Result {
	rs := bruteforce.Search(queries, db, m, nil)
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// BruteForceK is the k-NN form of BruteForce; results are sorted by
// ascending distance, ties toward the lower id.
func BruteForceK(queries, db *Dataset, k int, m Metric) [][]Neighbor {
	return bruteforce.SearchK(queries, db, k, m, nil)
}

// Neighbor is a k-NN result entry: database id and distance.
type Neighbor = par.Neighbor

// Searcher is the single-query surface shared by every index backend;
// see internal/search for the batch query plane it anchors.
type Searcher = search.Searcher

// BatchSearcher adds the batch-first entry point KNNBatch, which answers
// a whole query block at once (one tiled BF(Q,R) front half plus grouped
// list scans, instead of per-query sweeps). Exact and OneShot implement
// it natively; KNNBatch(queries, k) is bit-identical to calling KNN per
// row, only faster.
type BatchSearcher = search.BatchSearcher

// Compile-time proof that the public index types are batch-first.
var (
	_ BatchSearcher = (*Exact)(nil)
	_ BatchSearcher = (*OneShot)(nil)
)

// BuildExact constructs the exact-search index over db.
func BuildExact(db *Dataset, m Metric, p ExactParams) (*Exact, error) {
	return core.BuildExact(db, m, p)
}

// BuildOneShot constructs the one-shot index over db.
func BuildOneShot(db *Dataset, m Metric, p OneShotParams) (*OneShot, error) {
	return core.BuildOneShot(db, m, p)
}

// LoadExact restores an index saved with (*Exact).Save, reattaching it to
// the database and metric it was built from.
func LoadExact(r io.Reader, db *Dataset, m Metric) (*Exact, error) {
	return core.LoadExact(r, db, m)
}

// LoadOneShot restores an index saved with (*OneShot).Save.
func LoadOneShot(r io.Reader, db *Dataset, m Metric) (*OneShot, error) {
	return core.LoadOneShot(r, db, m)
}

// DefaultNumReps returns the paper's standard representative count
// (≈ √n) for a database of n points.
func DefaultNumReps(n int) int { return core.DefaultNumReps(n) }

// AutoTuneResult reports a representative-count search; see
// core.AutoTuneExact.
type AutoTuneResult = core.AutoTuneResult

// AutoTuneExact selects NumReps for an exact index by measuring work on
// probe queries over a grid around √n (Appendix C of the paper shows the
// curve is forgiving, so a coarse grid suffices).
func AutoTuneExact(db *Dataset, m Metric, probes *Dataset, seed int64) (AutoTuneResult, error) {
	return core.AutoTuneExact(db, m, probes, seed)
}

// AutoTuneOneShot selects NumReps = S for a one-shot index subject to a
// recall target measured on probe queries.
func AutoTuneOneShot(db *Dataset, m Metric, probes *Dataset, targetRecall float64, seed int64) (AutoTuneResult, error) {
	return core.AutoTuneOneShot(db, m, probes, targetRecall, seed)
}
