package lsh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
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

func TestBuildValidation(t *testing.T) {
	if _, err := Build(&vec.Dataset{}, Params{}); err == nil {
		t.Fatal("empty db should error")
	}
}

func TestDefaultsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := clustered(rng, 300, 4, 4)
	idx, err := Build(db, Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := idx.Params()
	if p.L != 8 || p.K != 12 {
		t.Fatalf("defaults: %+v", p)
	}
	if p.W <= 0 {
		t.Fatal("W should be estimated from data")
	}
}

func TestSelfQueryFindsSelf(t *testing.T) {
	// A database point hashes to its own bucket in every table, so it
	// must find itself (distance 0) regardless of parameters.
	rng := rand.New(rand.NewSource(2))
	db := clustered(rng, 500, 5, 6)
	idx, err := Build(db, Params{L: 4, K: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, evals := idx.KNN(db.Row(i), 1)
		if len(res) != 1 || res[0].Dist != 0 {
			t.Fatalf("point %d: 1-NN %v, want itself at distance 0", i, res)
		}
		if evals == 0 {
			t.Fatal("no candidates examined")
		}
	}
}

func TestRecallOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := clustered(rng, 2100, 6, 8)
	db := all.Subset(seq(0, 2000))
	queries := all.Subset(seq(2000, 2100))
	idx, err := Build(db, Params{L: 12, K: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteforce.Search(queries, db, metric.Euclidean{}, nil)
	res, evals := idx.SearchK(queries, 1)
	correct := 0
	for i := range res {
		if len(res[i]) > 0 && res[i][0].Dist == want[i].Dist {
			correct++
		}
	}
	if recall := float64(correct) / float64(len(res)); recall < 0.7 {
		t.Fatalf("recall %.2f too low for clustered data", recall)
	}
	// And it must be doing sublinear work.
	if perQuery := float64(evals) / float64(queries.N()); perQuery > float64(db.N())/2 {
		t.Fatalf("LSH examined %.0f of %d points per query", perQuery, db.N())
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestKNNWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := clustered(rng, 800, 4, 5)
	idx, err := Build(db, Params{L: 8, K: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	nbs, _ := idx.KNN(db.Row(3), 5)
	if len(nbs) == 0 {
		t.Fatal("no results")
	}
	seen := map[int]bool{}
	for i, nb := range nbs {
		if seen[nb.ID] {
			t.Fatalf("duplicate id %d", nb.ID)
		}
		seen[nb.ID] = true
		if i > 0 && nb.Dist < nbs[i-1].Dist {
			t.Fatal("not sorted")
		}
	}
	if got, _ := idx.KNN(db.Row(3), 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestMissIsPossibleAndReported(t *testing.T) {
	// A query far from every bucket gets no answer — an empty slice with no
	// candidates examined — not a wrong answer presented as confident.
	rng := rand.New(rand.NewSource(5))
	db := clustered(rng, 200, 3, 2)
	idx, err := Build(db, Params{L: 2, K: 24, W: 0.01, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	far := []float32{1e6, 1e6, 1e6}
	res, evals := idx.KNN(far, 1)
	if len(res) != 0 || evals != 0 {
		t.Fatalf("far query: %v after %d evals, want a reported miss", res, evals)
	}
	batch, batchEvals := idx.SearchK(vec.FromRows([][]float32{far}), 1)
	if len(batch) != 1 || len(batch[0]) != 0 || batchEvals != 0 {
		t.Fatalf("far query in a batch: %v after %d evals, want a reported miss", batch, batchEvals)
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := clustered(rng, 500, 4, 4)
	idx, err := Build(db, Params{L: 4, K: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Tables != 4 || st.Buckets == 0 || st.MaxBucket == 0 || st.MeanBucket <= 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeterministicBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := clustered(rng, 400, 4, 4)
	a, err := Build(db, Params{L: 4, K: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(db, Params{L: 4, K: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ra, _ := a.KNN(db.Row(i), 1)
		rb, _ := b.KNN(db.Row(i), 1)
		if !slices.Equal(ra, rb) {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

// Property: LSH never claims a distance better than the true NN, and any
// returned id has a correctly computed distance.
func TestQuickLSHSound(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := clustered(rng, 200, 3, 4)
		idx, err := Build(db, Params{L: 4, K: 4, Seed: seed})
		if err != nil {
			return false
		}
		q := []float32{rng.Float32() * 10, rng.Float32() * 10, rng.Float32() * 10}
		res, _ := idx.KNN(q, 1)
		want := bruteforce.SearchOne(q, db, m, nil)
		if len(res) == 0 {
			return true // miss is allowed
		}
		if res[0].Dist < want.Dist {
			return false // impossible
		}
		return math.Abs(m.Distance(q, db.Row(res[0].ID))-res[0].Dist) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
