package covertree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/vec"
)

func randomRows(rng *rand.Rand, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = rng.Float32()*2 - 1
		}
	}
	return rows
}

func asMetric() metric.Metric[[]float32] { return metric.Euclidean{} }

func TestEmptyTree(t *testing.T) {
	tr := New(asMetric())
	if got := tr.KNN([]float32{1}, 1); len(got) != 0 {
		t.Fatalf("empty 1-NN: %v, want no answer", got)
	}
	if got := tr.KNN([]float32{1}, 3); got != nil {
		t.Fatal("empty KNN should be nil")
	}
	if got := tr.Range([]float32{1}, 5); got != nil {
		t.Fatal("empty Range should be nil")
	}
	if tr.Depth() != 0 || tr.Size() != 0 {
		t.Fatal("empty tree shape")
	}
}

func TestSinglePoint(t *testing.T) {
	tr := New(asMetric())
	tr.Insert([]float32{1, 2}, 7)
	if got := tr.KNN([]float32{1, 2}, 1); len(got) != 1 || got[0].ID != 7 || got[0].Dist != 0 {
		t.Fatalf("1-NN: %v", got)
	}
	if tr.Size() != 1 {
		t.Fatal("size")
	}
}

func TestNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randomRows(rng, 1000, 5)
	db := vec.FromRows(rows)
	tr := Build(rows, asMetric())
	if ok, why := tr.Validate(); !ok {
		t.Fatalf("invariants: %s", why)
	}
	for trial := 0; trial < 60; trial++ {
		q := make([]float32, 5)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		got := tr.KNN(q, 1)[0]
		want := bruteforce.SearchOne(q, db, metric.Euclidean{}, nil)
		if got.Dist != want.Dist {
			t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randomRows(rng, 600, 4)
	db := vec.FromRows(rows)
	tr := Build(rows, asMetric())
	for _, k := range []int{1, 2, 5, 17} {
		for trial := 0; trial < 15; trial++ {
			q := make([]float32, 4)
			for j := range q {
				q[j] = rng.Float32()*2 - 1
			}
			got := tr.KNN(q, k)
			want := bruteforce.SearchOneK(q, db, k, metric.Euclidean{}, nil)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results want %d", k, len(got), len(want))
			}
			for j := range got {
				if got[j].Dist != want[j].Dist {
					t.Fatalf("k=%d trial=%d pos=%d: %v want %v", k, trial, j, got[j].Dist, want[j].Dist)
				}
			}
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 500, 3)
	db := vec.FromRows(rows)
	tr := Build(rows, asMetric())
	for trial := 0; trial < 20; trial++ {
		q := make([]float32, 3)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		for _, eps := range []float64{0.05, 0.3, 1.0} {
			got := tr.Range(q, eps)
			want := bruteforce.RangeSearch(q, db, eps, metric.Euclidean{}, nil)
			if len(got) != len(want) {
				t.Fatalf("eps=%v: %d hits want %d", eps, len(got), len(want))
			}
			for j := range got {
				if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
					t.Fatalf("eps=%v pos=%d: %+v want %+v", eps, j, got[j], want[j])
				}
			}
		}
	}
}

func TestDuplicatesStoredAndReturned(t *testing.T) {
	rows := [][]float32{{1, 1}, {1, 1}, {1, 1}, {2, 2}, {5, 5}}
	tr := Build(rows, asMetric())
	if tr.Size() != 5 {
		t.Fatalf("size=%d", tr.Size())
	}
	got := tr.KNN([]float32{1, 1}, 3)
	if len(got) != 3 {
		t.Fatalf("knn=%v", got)
	}
	for _, nb := range got[:3] {
		if nb.Dist != 0 {
			t.Fatalf("expected three zero-distance answers, got %v", got)
		}
	}
	hits := tr.Range([]float32{1, 1}, 0.5)
	if len(hits) != 3 {
		t.Fatalf("range should find all three duplicates: %v", hits)
	}
}

func TestNearDuplicatePoints(t *testing.T) {
	// Points closer than 2^floorLevel exercise the numerical-duplicate
	// path without infinite recursion.
	base := []float32{1, 1}
	tr := New(asMetric())
	tr.Insert(base, 0)
	tr.Insert([]float32{1, 1}, 1)
	tr.Insert([]float32{1.0000001, 1}, 2)
	if tr.Size() != 3 {
		t.Fatal("size")
	}
	got := tr.KNN([]float32{1, 1}, 3)
	if len(got) != 3 {
		t.Fatalf("knn over near-duplicates: %v", got)
	}
}

func TestEditDistanceTree(t *testing.T) {
	// The cover tree is generic over metrics, like the RBC.
	words := []string{"kitten", "sitting", "mitten", "bitten", "flaw", "lawn", "claw", "paw"}
	tr := Build(words, metric.Metric[string](metric.Edit{}))
	got := tr.KNN("fitten", 1)[0]
	if got.Dist != 1 {
		t.Fatalf("NN of fitten: %+v", got)
	}
	want := bruteforce.SearchOneGeneric("crawl", words, metric.Metric[string](metric.Edit{}), nil)
	d2 := tr.KNN("crawl", 1)[0].Dist
	if d2 != want.Dist {
		t.Fatalf("crawl: %v want %v", d2, want.Dist)
	}
}

func TestDistEvalsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randomRows(rng, 200, 3)
	tr := Build(rows, asMetric())
	before := tr.DistEvals
	if before == 0 {
		t.Fatal("build should count evaluations")
	}
	tr.KNN(rows[0], 1)
	if tr.DistEvals <= before {
		t.Fatal("query should count evaluations")
	}
}

func TestQueriesCheaperThanBruteForceOnClusteredData(t *testing.T) {
	// On low-intrinsic-dimension data the cover tree must examine far
	// fewer points than n per query — that is its entire reason to exist.
	rng := rand.New(rand.NewSource(5))
	n := 4000
	rows := make([][]float32, n)
	for i := range rows {
		c := float32(rng.Intn(8)) * 20
		rows[i] = []float32{c + float32(rng.NormFloat64())*0.3, c + float32(rng.NormFloat64())*0.3, 0}
	}
	tr := Build(rows, asMetric())
	tr.DistEvals = 0
	const queries = 50
	for i := 0; i < queries; i++ {
		tr.KNN(rows[rng.Intn(n)], 1)
	}
	perQuery := float64(tr.DistEvals) / queries
	if perQuery > float64(n)/4 {
		t.Fatalf("cover tree examined %.0f points per query on clustered data (n=%d)", perQuery, n)
	}
}

func TestValidateDetectsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := randomRows(rng, 300, 4)
	tr := Build(rows, asMetric())
	if ok, why := tr.Validate(); !ok {
		t.Fatalf("fresh tree invalid: %s", why)
	}
	if tr.Depth() <= 0 {
		t.Fatal("depth should be positive")
	}
}

// Property: the cover tree NN equals brute force for arbitrary seeds and
// sizes, including heavy duplication.
func TestQuickCoverTreeExact(t *testing.T) {
	m := asMetric()
	f := func(seed int64, nRaw uint16, dupFrac uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 2
		rows := randomRows(rng, n, 3)
		// Duplicate a fraction of rows.
		for i := 0; i < n*int(dupFrac%4)/8; i++ {
			rows[rng.Intn(n)] = rows[rng.Intn(n)]
		}
		db := vec.FromRows(rows)
		tr := Build(rows, m)
		if ok, _ := tr.Validate(); !ok {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			q := make([]float32, 3)
			for j := range q {
				q[j] = rng.Float32()*2 - 1
			}
			d := tr.KNN(q, 1)[0].Dist
			want := bruteforce.SearchOne(q, db, metric.Euclidean{}, nil)
			if d != want.Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: KNN results are sorted, unique by id, and complete.
func TestQuickCoverTreeKNNWellFormed(t *testing.T) {
	m := asMetric()
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 120
		k := int(kRaw)%15 + 1
		rows := randomRows(rng, n, 2)
		tr := Build(rows, m)
		q := []float32{rng.Float32(), rng.Float32()}
		got := tr.KNN(q, k)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for i, nb := range got {
			if seen[nb.ID] {
				return false
			}
			seen[nb.ID] = true
			if i > 0 && nb.Dist < got[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
