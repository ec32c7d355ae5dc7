package rbc_test

import (
	"bytes"
	"math/rand"
	"testing"

	rbc "repro"
	"repro/internal/bruteforce"
	"repro/internal/metric"
)

// These are integration tests over the public facade: build, query,
// serialize, reload — the workflow a downstream user runs.

func buildTestData(rng *rand.Rand, n, dim int) *rbc.Dataset {
	db := rbc.NewDataset(dim)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		c := float32(rng.Intn(6)) * 8
		for j := range row {
			row[j] = c + float32(rng.NormFloat64())
		}
		db.Append(row)
	}
	return db
}

func TestPublicAPIExactWorkflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := buildTestData(rng, 2000, 8)
	idx, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := buildTestData(rng, 40, 8)
	res, st := idx.KNNBatch(queries, 1)
	if st.TotalEvals() == 0 {
		t.Fatal("no work recorded")
	}
	for i := 0; i < queries.N(); i++ {
		want := bruteforce.SearchOne(queries.Row(i), db, metric.Euclidean{}, nil)
		if res[i][0].Dist != want.Dist {
			t.Fatalf("query %d: %v want %v", i, res[i][0].Dist, want.Dist)
		}
	}
	// Work reduction is the headline claim.
	perQuery := float64(st.TotalEvals()) / float64(queries.N())
	if perQuery >= float64(db.N()) {
		t.Fatalf("no work reduction: %.0f evals/query on n=%d", perQuery, db.N())
	}
}

func TestPublicAPIOneShotWorkflow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := buildTestData(rng, 1500, 6)
	idx, err := rbc.BuildOneShot(db, rbc.Euclidean(), rbc.OneShotParams{NumReps: 120, S: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := buildTestData(rng, 60, 6)
	res, _ := idx.KNNBatch(queries, 1)
	correct := 0
	for i := 0; i < queries.N(); i++ {
		want := bruteforce.SearchOne(queries.Row(i), db, metric.Euclidean{}, nil)
		if res[i][0].Dist == want.Dist {
			correct++
		}
	}
	if correct < queries.N()*8/10 {
		t.Fatalf("one-shot recall too low: %d/%d", correct, queries.N())
	}
}

func TestPublicAPISerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := buildTestData(rng, 800, 5)
	idx, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rbc.LoadExact(&buf, db, rbc.Euclidean())
	if err != nil {
		t.Fatal(err)
	}
	q := db.Row(13)
	a, _ := idx.KNN(q, 1)
	b, _ := loaded.KNN(q, 1)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("reload mismatch: %+v vs %+v", a, b)
	}
}

func TestPublicAPIKNNAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := buildTestData(rng, 1000, 4)
	idx, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q := buildTestData(rng, 1, 4).Row(0)
	knn, _ := idx.KNN(q, 5)
	if len(knn) != 5 {
		t.Fatalf("knn: %v", knn)
	}
	want := bruteforce.SearchOneK(q, db, 5, metric.Euclidean{}, nil)
	for i := range knn {
		if knn[i].Dist != want[i].Dist {
			t.Fatalf("knn[%d]: %v want %v", i, knn[i].Dist, want[i].Dist)
		}
	}
	hits, _ := idx.Range(q, knn[4].Dist)
	if len(hits) < 5 {
		t.Fatalf("range should cover the 5-NN ball: %d hits", len(hits))
	}
}

func TestPublicAPIMetricConstructors(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if rbc.Euclidean().Distance(a, b) != 5 {
		t.Fatal("euclidean")
	}
	if rbc.Manhattan().Distance(a, b) != 7 {
		t.Fatal("manhattan")
	}
	if rbc.Chebyshev().Distance(a, b) != 4 {
		t.Fatal("chebyshev")
	}
	if rbc.DefaultNumReps(10000) != 100 {
		t.Fatal("default reps")
	}
}

func TestPublicAPIDatasetHelpers(t *testing.T) {
	db := rbc.FromRows([][]float32{{1, 2}, {3, 4}})
	if db.N() != 2 || db.Dim != 2 {
		t.Fatalf("FromRows: %v", db)
	}
	empty := rbc.NewDataset(3)
	if empty.N() != 0 || empty.Dim != 3 {
		t.Fatal("NewDataset")
	}
}
