package rbc

import (
	"io"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Dataset is a dense row-major float32 point collection; see
// internal/vec for the full API (Append, Row, Subset, Save/Load, …).
type Dataset = vec.Dataset

// Metric is a distance over float32 vectors. Implementations used with
// Exact must satisfy the triangle inequality.
type Metric = metric.Metric[[]float32]

// Stats reports per-search work: distance evaluations by phase and
// pruning counters. See core.Stats.
type Stats = core.Stats

// ExactParams configures BuildExact; the zero value selects the paper's
// standard setting (n_r ≈ √n, both pruning bounds).
type ExactParams = core.ExactParams

// OneShotParams configures BuildOneShot; the zero value selects
// n_r = s ≈ √n. A query scans one list: its nearest representative's.
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

// BruteForceK answers every query exactly with the tiled BF(Q,X)
// matrix-matrix primitive — no index, one pass over the database shared by
// the whole query block. It is the baseline the RBC indexes are measured
// against and the right tool for one-off batches too small to amortize an
// index build. It runs on the exact kernel, so answers are bit-identical
// to a per-query scan; results are sorted by ascending distance, ties
// toward the lower id.
func BruteForceK(queries, db *Dataset, k int, m Metric) [][]Neighbor {
	return bruteforce.SearchK(queries, db, k, m, nil)
}

// Neighbor is a k-NN result entry: database id and distance.
type Neighbor = par.Neighbor

// Searcher is the single-query k-NN surface of the indexes. Results are
// sorted by ascending distance, ties toward the lower id.
type Searcher interface {
	KNN(q []float32, k int) ([]Neighbor, Stats)
}

// BatchSearcher adds the batch-first entry point KNNBatch, which answers
// a whole query block at once (one tiled BF(Q,R) front half plus, on
// Exact, grouped list scans, instead of per-query sweeps). Exact and
// OneShot implement it natively; KNNBatch(queries, k) is bit-identical to
// calling KNN per row, only faster.
type BatchSearcher interface {
	Searcher
	KNNBatch(queries *Dataset, k int) ([][]Neighbor, Stats)
}

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
