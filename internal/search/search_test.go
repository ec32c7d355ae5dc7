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
	"repro/internal/vec"
)

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

func sameNeighbors(t *testing.T, label string, got, want []Neighbor) {
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
	rows := make([][]float32, db.N())
	for i := range rows {
		rows[i] = db.Row(i)
	}
	backends := map[string]Searcher{
		"exact":      exact,
		"oneshot":    oneshot,
		"bruteforce": NewBruteForce(db, m),
		"kdtree":     FromKDTree(kdtree.Build(db, 0)),
		"lsh":        FromLSH(lshIdx),
		"covertree":  FromCoverTree(covertree.Build(rows, m)),
	}
	for name, s := range backends {
		batch, bst := KNNBatch(s, queries, k)
		var perEvals int64
		for i := 0; i < queries.N(); i++ {
			one, st := s.KNN(queries.Row(i), k)
			sameNeighbors(t, name, batch[i], one)
			perEvals += st.TotalEvals()
		}
		// LSH may legitimately evaluate nothing (all probes can land in
		// empty buckets); every other backend must report work.
		if name != "lsh" && bst.TotalEvals() <= 0 {
			t.Fatalf("%s: batch stats report no work", name)
		}
		_ = perEvals // eval counts may differ across paths; results may not
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
	for name, s := range map[string]Searcher{
		"exact":      exact,
		"bruteforce": NewBruteForce(db, m),
	} {
		got, _ := KNNBatch(s, queries, k)
		for i := 0; i < queries.N(); i++ {
			want := bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
			sameNeighbors(t, name, got[i], want)
		}
	}
}

// RangeBatch must agree with per-query Range for both range backends.
func TestRangeBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := clustered(rng, 400, 4, 5)
	queries := clustered(rand.New(rand.NewSource(11)), 20, 4, 5)
	m := metric.Euclidean{}
	const eps = 1.2

	exact, err := core.BuildExact(db, m, core.ExactParams{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]RangeSearcher{
		"exact":      exact,
		"bruteforce": NewBruteForce(db, m),
	} {
		batch, _ := s.RangeBatch(queries, eps)
		for i := 0; i < queries.N(); i++ {
			one, _ := s.Range(queries.Row(i), eps)
			sameNeighbors(t, name, batch[i], one)
		}
	}
}

// The generic KNNBatch helper must fall back cleanly for a Searcher that
// lacks a batch entry point.
type perQueryOnly struct{ s Searcher }

func (p perQueryOnly) KNN(q []float32, k int) ([]Neighbor, Stats) { return p.s.KNN(q, k) }

func TestKNNBatchFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := clustered(rng, 300, 4, 4)
	queries := clustered(rand.New(rand.NewSource(13)), 10, 4, 4)
	m := metric.Euclidean{}
	bf := NewBruteForce(db, m)
	got, gst := KNNBatch(perQueryOnly{bf}, queries, 2)
	want, _ := KNNBatch(bf, queries, 2)
	for i := range want {
		sameNeighbors(t, "fallback", got[i], want[i])
	}
	if gst.TotalEvals() != int64(queries.N()*db.N()) {
		t.Fatalf("fallback evals %d want %d", gst.TotalEvals(), queries.N()*db.N())
	}
}
