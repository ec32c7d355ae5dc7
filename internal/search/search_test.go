// Package search holds the cross-backend test suites: the equivalence
// corpus, the GenericExact oracle, the mutate/query histories and the
// public facade's bit-identity tests. It has no non-test code; every suite
// calls each backend's own entry points.
package search

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/covertree"
	"repro/internal/kdtree"
	"repro/internal/lsh"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// backend is one k-NN backend's own entry points at a fixed k: the
// per-query answer, and the block answer with the block's distance
// evaluations.
type backend struct {
	knn   func(q []float32) []par.Neighbor
	batch func(queries *vec.Dataset) ([][]par.Neighbor, int64)
}

// indexBackend binds an RBC index's KNN and KNNBatch method values.
func indexBackend(knn func([]float32, int) ([]par.Neighbor, core.Stats), batch func(*vec.Dataset, int) ([][]par.Neighbor, core.Stats), k int) backend {
	return backend{
		knn: func(q []float32) []par.Neighbor { nbs, _ := knn(q, k); return nbs },
		batch: func(qs *vec.Dataset) ([][]par.Neighbor, int64) {
			nbs, st := batch(qs, k)
			return nbs, st.TotalEvals()
		},
	}
}

func bruteForceBackend(db *vec.Dataset, m metric.Metric[[]float32], k int) backend {
	return backend{
		knn: func(q []float32) []par.Neighbor { return bruteforce.SearchOneK(q, db, k, m, nil) },
		batch: func(qs *vec.Dataset) ([][]par.Neighbor, int64) {
			var c bruteforce.Counter
			return bruteforce.SearchK(qs, db, k, m, &c), c.Load()
		},
	}
}

func kdTreeBackend(t *kdtree.Tree, k int) backend {
	return backend{
		knn:   func(q []float32) []par.Neighbor { return t.KNN(q, k) },
		batch: func(qs *vec.Dataset) ([][]par.Neighbor, int64) { return t.KNNBatch(qs, k) },
	}
}

// coverTreeBackend reads the tree's evaluation counter around the block;
// the tree is not safe for concurrent use.
func coverTreeBackend(t *covertree.Tree[[]float32], k int) backend {
	return backend{
		knn: func(q []float32) []par.Neighbor { return t.KNN(q, k) },
		batch: func(qs *vec.Dataset) ([][]par.Neighbor, int64) {
			before := t.DistEvals
			nbs := t.KNNBatch(qs.Rows(), k)
			return nbs, t.DistEvals - before
		},
	}
}

func clustered(rng *rand.Rand, n, dim, k int) *vec.Dataset {
	centers := make([][]float32, k)
	for i := range centers {
		centers[i] = make([]float32, dim)
		for j := range centers[i] {
			centers[i][j] = rng.Float32()*20 - 10
		}
	}
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(k)]
		for j := range row {
			row[j] = c[j] + float32(rng.NormFloat64())*0.3
		}
		d.Append(row)
	}
	return d
}

func sameNeighbors(t *testing.T, label string, got, want []par.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s pos %d: %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// Every backend's KNNBatch must agree with its own per-query KNN.
func TestBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := clustered(rng, 600, 6, 8)
	queries := clustered(rand.New(rand.NewSource(7)), 40, 6, 8)
	m := metric.Euclidean{}
	const k = 4

	exact, err := core.BuildExact(db, m, core.ExactParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	oneshot, err := core.BuildOneShot(db, m, core.OneShotParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lshIdx, err := lsh.Build(db, lsh.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]backend{
		"exact":      indexBackend(exact.KNN, exact.KNNBatch, k),
		"oneshot":    indexBackend(oneshot.KNN, oneshot.KNNBatch, k),
		"bruteforce": bruteForceBackend(db, m, k),
		"kdtree":     kdTreeBackend(kdtree.Build(db, 0), k),
		"lsh": {
			knn:   func(q []float32) []par.Neighbor { nbs, _ := lshIdx.KNN(q, k); return nbs },
			batch: func(qs *vec.Dataset) ([][]par.Neighbor, int64) { return lshIdx.SearchK(qs, k) },
		},
		"covertree": coverTreeBackend(covertree.Build(db.Rows(), m), k),
	}
	for name, b := range backends {
		batch, evals := b.batch(queries)
		for i := 0; i < queries.N(); i++ {
			sameNeighbors(t, name, batch[i], b.knn(queries.Row(i)))
		}
		// LSH may legitimately evaluate nothing (all probes can land in
		// empty buckets); every other backend must report work.
		if name != "lsh" && evals <= 0 {
			t.Fatalf("%s: batch reports no work", name)
		}
	}
}

// The exact backends must agree with the brute-force reference.
func TestExactBackendsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := clustered(rng, 500, 5, 6)
	queries := clustered(rand.New(rand.NewSource(9)), 25, 5, 6)
	m := metric.Euclidean{}
	const k = 3

	exact, err := core.BuildExact(db, m, core.ExactParams{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]backend{
		"exact":      indexBackend(exact.KNN, exact.KNNBatch, k),
		"bruteforce": bruteForceBackend(db, m, k),
	} {
		got, _ := b.batch(queries)
		for i := 0; i < queries.N(); i++ {
			want := bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
			sameNeighbors(t, name, got[i], want)
		}
	}
}

// Exact.RangeBatch must agree with per-query Exact.Range.
func TestRangeBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := clustered(rng, 400, 4, 5)
	queries := clustered(rand.New(rand.NewSource(11)), 20, 4, 5)
	const eps = 1.2

	exact, err := core.BuildExact(db, metric.Euclidean{}, core.ExactParams{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := exact.RangeBatch(queries, eps)
	for i := 0; i < queries.N(); i++ {
		one, _ := exact.Range(queries.Row(i), eps)
		sameNeighbors(t, "exact", batch[i], one)
	}
}
