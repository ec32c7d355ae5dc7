package kdtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/vec"
)

func randomDataset(rng *rand.Rand, n, dim int) *vec.Dataset {
	d := vec.New(dim, n)
	for i := 0; i < n; i++ {
		row := make([]float32, dim)
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
		d.Append(row)
	}
	return d
}

func TestEmptyTree(t *testing.T) {
	var db vec.Dataset
	db.Dim = 2
	tr := Build(&db, 0)
	if got := tr.KNN([]float32{0, 0}, 1); len(got) != 0 {
		t.Fatalf("empty 1-NN: %v, want no answer", got)
	}
	if tr.Range([]float32{0, 0}, 1) != nil {
		t.Fatal("empty Range")
	}
	if tr.Size() != 0 {
		t.Fatal("size")
	}
}

func TestNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randomDataset(rng, 2000, 3)
	tr := Build(db, 0)
	m := metric.Euclidean{}
	for trial := 0; trial < 60; trial++ {
		q := randomDataset(rng, 1, 3).Row(0)
		d := tr.KNN(q, 1)[0].Dist
		want := bruteforce.SearchOne(q, db, m, nil)
		if d != want.Dist {
			t.Fatalf("trial %d: %v want %v", trial, d, want.Dist)
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomDataset(rng, 800, 2)
	tr := Build(db, 8)
	m := metric.Euclidean{}
	for _, k := range []int{1, 4, 20} {
		for trial := 0; trial < 15; trial++ {
			q := randomDataset(rng, 1, 2).Row(0)
			got := tr.KNN(q, k)
			want := bruteforce.SearchOneK(q, db, k, m, nil)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d vs %d results", k, len(got), len(want))
			}
			for j := range got {
				if got[j].Dist != want[j].Dist {
					t.Fatalf("k=%d pos=%d: %v want %v", k, j, got[j].Dist, want[j].Dist)
				}
			}
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDataset(rng, 600, 3)
	tr := Build(db, 0)
	m := metric.Euclidean{}
	for trial := 0; trial < 20; trial++ {
		q := randomDataset(rng, 1, 3).Row(0)
		for _, eps := range []float64{0.1, 0.5, 1.5} {
			got := tr.Range(q, eps)
			want := bruteforce.RangeSearch(q, db, eps, m, nil)
			if len(got) != len(want) {
				t.Fatalf("eps=%v: %d vs %d hits", eps, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("eps=%v pos=%d: %+v want %+v", eps, j, got[j], want[j])
				}
			}
		}
	}
}

func TestAllIdenticalPoints(t *testing.T) {
	rows := make([][]float32, 50)
	for i := range rows {
		rows[i] = []float32{3, 3}
	}
	db := vec.FromRows(rows)
	tr := Build(db, 4)
	got := tr.KNN([]float32{3, 3}, 5)
	if len(got) != 5 {
		t.Fatalf("identical points: %v", got)
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatal("distances should be zero")
		}
	}
}

func TestPruningReducesWorkLowDim(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randomDataset(rng, 8000, 2)
	tr := Build(db, 16)
	tr.DistEvals = 0
	const queries = 40
	for i := 0; i < queries; i++ {
		tr.KNN(randomDataset(rng, 1, 2).Row(0), 1)
	}
	perQuery := float64(tr.DistEvals) / queries
	if perQuery > float64(db.N())/10 {
		t.Fatalf("kd-tree examined %.0f points per query in 2-D (n=%d)", perQuery, db.N())
	}
}

func TestLeafSizeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDataset(rng, 300, 3)
	m := metric.Euclidean{}
	q := randomDataset(rng, 1, 3).Row(0)
	want := bruteforce.SearchOne(q, db, m, nil)
	for _, leaf := range []int{1, 2, 7, 64, 1000} {
		tr := Build(db, leaf)
		if d := tr.KNN(q, 1)[0].Dist; d != want.Dist {
			t.Fatalf("leafSize=%d: wrong NN", leaf)
		}
	}
}

// Property: kd-tree NN equals brute force on arbitrary instances,
// including duplicated points.
func TestQuickKDTreeExact(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		db := randomDataset(rng, n, 2)
		for i := 0; i < n/4; i++ {
			copy(db.Row(rng.Intn(n)), db.Row(rng.Intn(n)))
		}
		tr := Build(db, 4)
		for trial := 0; trial < 3; trial++ {
			q := randomDataset(rng, 1, 2).Row(0)
			d := tr.KNN(q, 1)[0].Dist
			if d != bruteforce.SearchOne(q, db, m, nil).Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestKNNMatchesBruteForceHigherDim: the gathered-leaf kernel scans must
// keep the tree exact beyond the toy dimensions — the leaf arithmetic is
// literally the brute-force row kernel.
func TestKNNMatchesBruteForceHigherDim(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := metric.Euclidean{}
	for _, dim := range []int{8, 64} {
		db := randomDataset(rng, 1200, dim)
		tr := Build(db, 16)
		for trial := 0; trial < 15; trial++ {
			q := randomDataset(rng, 1, dim).Row(0)
			got := tr.KNN(q, 5)
			want := bruteforce.SearchOneK(q, db, 5, m, nil)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("dim=%d trial %d pos %d: %+v want %+v", dim, trial, j, got[j], want[j])
				}
			}
		}
	}
}
