package bruteforce

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metric"
	"repro/internal/par"
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

// naiveNN is the reference implementation used to validate all paths.
func naiveNN(q []float32, db *vec.Dataset, m metric.Metric[[]float32]) par.Neighbor {
	best := par.Neighbor{ID: -1, Dist: math.Inf(1)}
	for i := 0; i < db.N(); i++ {
		if d := m.Distance(q, db.Row(i)); d < best.Dist {
			best = par.Neighbor{ID: i, Dist: d}
		}
	}
	return best
}

func TestSearchOneMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randomDataset(rng, 5000, 8)
	m := metric.Euclidean{}
	for trial := 0; trial < 20; trial++ {
		q := randomDataset(rng, 1, 8).Row(0)
		got := SearchOne(q, db, m, nil)
		want := naiveNN(q, db, m)
		if got != want {
			t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
		}
	}
}

func TestSearchOneEmptyDB(t *testing.T) {
	var db vec.Dataset
	r := SearchOne([]float32{1}, &db, metric.Euclidean{}, nil)
	if r.ID != -1 || !math.IsInf(r.Dist, 1) {
		t.Fatalf("empty db: %+v", r)
	}
}

func TestSearchBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomDataset(rng, 600, 6)
	queries := randomDataset(rng, 40, 6)
	m := metric.Euclidean{}
	got := Search(queries, db, m, nil)
	for i := 0; i < queries.N(); i++ {
		want := naiveNN(queries.Row(i), db, m)
		if got[i] != want {
			t.Fatalf("query %d: got %+v want %+v", i, got[i], want)
		}
	}
}

func TestSearchCountsEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDataset(rng, 100, 4)
	queries := randomDataset(rng, 7, 4)
	var c Counter
	Search(queries, db, metric.Euclidean{}, &c)
	if c.Load() != 700 {
		t.Fatalf("evals=%d, want 700", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestNilCounterIsSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter should read 0")
	}
	c.Reset()
}

func TestSearchKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randomDataset(rng, 300, 5)
	queries := randomDataset(rng, 10, 5)
	m := metric.Euclidean{}
	const k = 7
	res := SearchK(queries, db, k, m, nil)
	for qi := 0; qi < queries.N(); qi++ {
		q := queries.Row(qi)
		// Reference: all distances sorted.
		type pair struct {
			id int
			d  float64
		}
		all := make([]pair, db.N())
		for i := range all {
			all[i] = pair{i, m.Distance(q, db.Row(i))}
		}
		for i := 0; i < k; i++ {
			mi := i
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[mi].d || (all[j].d == all[mi].d && all[j].id < all[mi].id) {
					mi = j
				}
			}
			all[i], all[mi] = all[mi], all[i]
			if res[qi][i].ID != all[i].id || res[qi][i].Dist != all[i].d {
				t.Fatalf("q=%d k-th=%d: got %+v want %+v", qi, i, res[qi][i], all[i])
			}
		}
	}
}

func TestSearchKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDataset(rng, 3, 2)
	q := []float32{0, 0}
	if got := SearchOneK(q, db, 10, metric.Euclidean{}, nil); len(got) != 3 {
		t.Fatalf("k>n should return n results, got %d", len(got))
	}
	if got := SearchOneK(q, db, 0, metric.Euclidean{}, nil); got != nil {
		t.Fatal("k=0 should return nil")
	}
	var empty vec.Dataset
	if got := SearchOneK(q, &empty, 3, metric.Euclidean{}, nil); got != nil {
		t.Fatal("empty db should return nil")
	}
}

func TestRangeSearch(t *testing.T) {
	db := vec.FromRows([][]float32{{0}, {1}, {2}, {3}})
	hits := RangeSearch([]float32{1.25}, db, 1.3, metric.Euclidean{}, nil)
	if len(hits) != 3 {
		t.Fatalf("hits=%v", hits)
	}
	if hits[0].ID != 1 || hits[1].ID != 2 || hits[2].ID != 0 {
		t.Fatalf("order wrong: %v", hits)
	}
	if hits := RangeSearch([]float32{100}, db, 0.5, metric.Euclidean{}, nil); len(hits) != 0 {
		t.Fatal("far query should find nothing")
	}
}

func TestRangeSearchBoundaryInclusive(t *testing.T) {
	db := vec.FromRows([][]float32{{0}, {2}})
	hits := RangeSearch([]float32{1}, db, 1.0, metric.Euclidean{}, nil)
	if len(hits) != 2 {
		t.Fatalf("eps boundary should be inclusive, hits=%v", hits)
	}
}

func TestTieBreaksTowardLowerID(t *testing.T) {
	// Duplicate points: the lower id must win everywhere.
	db := vec.FromRows([][]float32{{5}, {1}, {1}, {5}})
	q := []float32{1}
	if r := SearchOne(q, db, metric.Euclidean{}, nil); r.ID != 1 {
		t.Fatalf("SearchOne tie: %+v", r)
	}
	if r := Search(vec.FromRows([][]float32{q}), db, metric.Euclidean{}, nil)[0]; r.ID != 1 {
		t.Fatalf("Search tie: %+v", r)
	}
	if r := SearchOneGeneric(float32(1), []float32{5, 1, 1, 5},
		metric.Func[float32]{F: func(a, b float32) float64 { return math.Abs(float64(a - b)) }}, nil); r.ID != 1 {
		t.Fatalf("generic tie: %+v", r)
	}
}

func TestGenericMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randomDataset(rng, 400, 3)
	queries := randomDataset(rng, 15, 3)
	m := metric.Euclidean{}
	gv := Search(queries, db, m, nil)
	gg := SearchGeneric(queries.Rows(), db.Rows(), metric.Metric[[]float32](m), nil)
	for i := range gv {
		if gv[i] != gg[i] {
			t.Fatalf("query %d: vector %+v generic %+v", i, gv[i], gg[i])
		}
	}
}

func TestGenericStrings(t *testing.T) {
	db := []string{"kitten", "mitten", "sitting", "bitten"}
	r := SearchOneGeneric("fitten", db, metric.Edit{}, nil)
	if r.Dist != 1 {
		t.Fatalf("edit NN: %+v", r)
	}
	ks := SearchOneKGeneric("fitten", db, 2, metric.Edit{}, nil)
	if len(ks) != 2 || ks[0].Dist != 1 {
		t.Fatalf("edit 2-NN: %v", ks)
	}
	if got := SearchOneKGeneric("x", nil, 2, metric.Edit{}, nil); got != nil {
		t.Fatal("empty generic db should return nil")
	}
	hits := RangeSearchGeneric("kitten", db, 1.0, metric.Edit{}, nil)
	if len(hits) != 3 { // kitten(0), mitten(1), bitten(1)
		t.Fatalf("range hits %v", hits)
	}
}

// Property: on random data SearchOne always agrees with the naive scan.
func TestQuickSearchOne(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16)%200 + 1
		db := randomDataset(rng, n, 3)
		q := randomDataset(rng, 1, 3).Row(0)
		return SearchOne(q, db, m, nil) == naiveNN(q, db, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the 1-NN is the first element of the k-NN list.
func TestQuickKNNConsistentWithNN(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDataset(rng, 150, 4)
		q := randomDataset(rng, 1, 4).Row(0)
		nn := SearchOne(q, db, m, nil)
		knn := SearchOneK(q, db, 5, m, nil)
		return len(knn) == 5 && knn[0].ID == nn.ID && knn[0].Dist == nn.Dist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: RangeSearch(q, eps) returns exactly the points with d <= eps.
func TestQuickRangeComplete(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDataset(rng, 120, 2)
		q := randomDataset(rng, 1, 2).Row(0)
		eps := rng.Float64()
		hits := RangeSearch(q, db, eps, m, nil)
		inHits := make(map[int]bool, len(hits))
		for _, h := range hits {
			inHits[h.ID] = true
		}
		for i := 0; i < db.N(); i++ {
			if (m.Distance(q, db.Row(i)) <= eps) != inHits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRescoreK: rescoring a candidate list must match scoring those rows
// through the same kernel directly, handle k > len(ids), and count evals.
func TestRescoreK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := randomDataset(rng, 500, 7)
	q := randomDataset(rng, 1, 7).Row(0)
	ids := make([]int, 0, 300)
	for i := 0; i < 300; i++ {
		ids = append(ids, rng.Intn(db.N()))
	}
	// Dedupe like callers do.
	seen := map[int]bool{}
	uniq := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	ker := metric.NewKernel(metric.Euclidean{})
	var c Counter
	got := RescoreK(ker, q, db, uniq, 9, &c)
	if c.Load() != int64(len(uniq)) {
		t.Fatalf("counted %d evals, want %d", c.Load(), len(uniq))
	}
	// Reference: score every candidate through the same kernel's row
	// scan one at a time.
	ord := make([]float64, 1)
	type cand struct {
		id int
		d  float64
	}
	ref := make([]cand, 0, len(uniq))
	for _, id := range uniq {
		ker.Ordering(q, db.Row(id), db.Dim, ord)
		ref = append(ref, cand{id, ker.ToDistance(ord[0])})
	}
	for j := 1; j < len(got); j++ {
		if got[j].Dist < got[j-1].Dist {
			t.Fatalf("not sorted at %d", j)
		}
	}
	if len(got) != 9 {
		t.Fatalf("%d results, want 9", len(got))
	}
	// Every returned (id, dist) must be present in the reference with
	// identical bits, and no reference candidate may beat the worst
	// returned one.
	refDist := map[int]float64{}
	for _, r := range ref {
		refDist[r.id] = r.d
	}
	worst := got[len(got)-1].Dist
	for _, nb := range got {
		if d, ok := refDist[nb.ID]; !ok || d != nb.Dist {
			t.Fatalf("returned (%d, %v), reference has %v", nb.ID, nb.Dist, d)
		}
	}
	kept := map[int]bool{}
	for _, nb := range got {
		kept[nb.ID] = true
	}
	for _, r := range ref {
		if !kept[r.id] && r.d < worst {
			t.Fatalf("candidate (%d, %v) beats worst returned %v but was dropped", r.id, r.d, worst)
		}
	}
	if got := RescoreK(ker, q, db, uniq[:3], 10, nil); len(got) != 3 {
		t.Fatalf("k > len(ids): %d results, want 3", len(got))
	}
	if got := RescoreK(ker, q, db, nil, 5, nil); got != nil {
		t.Fatalf("empty ids: %v", got)
	}
}
