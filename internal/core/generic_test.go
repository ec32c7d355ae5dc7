package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

func randomStrings(rng *rand.Rand, n, maxLen int) []string {
	const alphabet = "abcdef"
	out := make([]string, n)
	for i := range out {
		l := rng.Intn(maxLen) + 1
		b := make([]byte, l)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = string(b)
	}
	return out
}

// knn1Each answers every query with knn at k = 1 and returns each
// query's nearest neighbor plus the summed Stats.
func knn1Each[P any](knn func(P, int) ([]par.Neighbor, Stats), queries []P) ([]par.Neighbor, Stats) {
	out := make([]par.Neighbor, len(queries))
	var st Stats
	for i, q := range queries {
		nbs, s := knn(q, 1)
		out[i] = nbs[0]
		st.Add(s)
	}
	return out, st
}

func TestGenericExactEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randomStrings(rng, 500, 12)
	m := metric.Edit{}
	g, err := BuildGenericExact(db, metric.Metric[string](m), ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomStrings(rng, 40, 12)
	got, st := knn1Each(g.KNN, queries)
	want := bruteforce.SearchGeneric(queries, db, metric.Metric[string](m), nil)
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("query %q: got %v want %v", queries[i], got[i].Dist, want[i].Dist)
		}
	}
	if st.TotalEvals() == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestGenericExactGraphMetric(t *testing.T) {
	// Nodes of a random connected graph under shortest-path distance — the
	// paper's other non-vector example.
	rng := rand.New(rand.NewSource(2))
	const n = 150
	edges := make([]metric.GraphEdge, 0, n+60)
	for i := 0; i < n; i++ {
		edges = append(edges, metric.GraphEdge{U: i, V: (i + 1) % n, Weight: 1 + rng.Float64()})
	}
	for k := 0; k < 60; k++ {
		edges = append(edges, metric.GraphEdge{U: rng.Intn(n), V: rng.Intn(n), Weight: rng.Float64() * 5})
	}
	gm, err := metric.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Database: a subset of nodes; queries: other nodes.
	db := make([]int, 0, 100)
	for i := 0; i < 100; i++ {
		db = append(db, i)
	}
	queries := make([]int, 0, 50)
	for i := 100; i < 150; i++ {
		queries = append(queries, i)
	}
	g, err := BuildGenericExact(db, metric.Metric[int](gm), ExactParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := knn1Each(g.KNN, queries)
	want := bruteforce.SearchGeneric(queries, db, metric.Metric[int](gm), nil)
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("node %d: got %v want %v", queries[i], got[i].Dist, want[i].Dist)
		}
	}
}

func TestGenericOneShotEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomStrings(rng, 400, 10)
	m := metric.Edit{}
	g, err := BuildGenericOneShot(db, metric.Metric[string](m), OneShotParams{NumReps: 60, S: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumReps() == 0 {
		t.Fatal("no representatives")
	}
	queries := randomStrings(rng, 60, 10)
	got, st := knn1Each(g.KNN, queries)
	want := bruteforce.SearchGeneric(queries, db, metric.Metric[string](m), nil)
	correct := 0
	for i := range got {
		if got[i].Dist < want[i].Dist {
			t.Fatalf("one-shot beat brute force — impossible")
		}
		if got[i].Dist == want[i].Dist {
			correct++
		}
	}
	// Edit distance on short strings has tiny intrinsic dimension; with
	// nr=s=60 on n=400 recall should be high.
	if recall := float64(correct) / float64(len(got)); recall < 0.8 {
		t.Fatalf("recall %.2f unexpectedly low", recall)
	}
	if st.PointEvals == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestGenericBuildErrors(t *testing.T) {
	m := metric.Metric[string](metric.Edit{})
	if _, err := BuildGenericExact[string](nil, m, ExactParams{}); err == nil {
		t.Fatal("empty generic db should error")
	}
	if _, err := BuildGenericOneShot[string](nil, m, OneShotParams{}); err == nil {
		t.Fatal("empty generic db should error")
	}
}

func TestGenericExactIntPoints(t *testing.T) {
	// 1-D integer points under |a-b|: easy to verify by hand.
	m := metric.Func[int]{F: func(a, b int) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return float64(d)
	}, Label: "absdiff"}
	db := []int{0, 10, 20, 30, 40, 50}
	g, err := BuildGenericExact(db, metric.Metric[int](m), ExactParams{NumReps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q, wantID := range map[int]int{3: 0, 12: 1, 29: 3, 44: 4, 100: 5} {
		got, _ := g.KNN(q, 1)
		if got[0].ID != wantID {
			t.Fatalf("q=%d: got id %d want %d", q, got[0].ID, wantID)
		}
	}
}

// Property: generic exact always equals generic brute force, across point
// types and parameters (here: strings with random sizes).
func TestQuickGenericExact(t *testing.T) {
	m := metric.Metric[string](metric.Edit{})
	f := func(seed int64, nrRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomStrings(rng, 120, 8)
		nr := int(nrRaw)%40 + 1
		g, err := BuildGenericExact(db, m, ExactParams{NumReps: nr, Seed: seed})
		if err != nil {
			return false
		}
		q := randomStrings(rng, 1, 8)[0]
		got, _ := g.KNN(q, 1)
		want := bruteforce.SearchOneGeneric(q, db, m, nil)
		return got[0].Dist == want.Dist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGenericExactLayoutMatchesExact: the generic index is the executable
// spec of the vector one (internal/search's FuzzGenericOracle compares
// answers and Stats); built over the same rows, seed and params the two
// must hold the same cover — representative ids, radii, and every
// ownership list in the same (dist, id) order. Rows sit on a half-integer
// lattice with duplicates so owner ties are common and every float64 sum
// is exact (Euclidean.Distance and the kernel then agree bit for bit).
func TestGenericExactLayoutMatchesExact(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		n, dim int
	}{{1, 1, 3}, {2, 37, 1}, {3, 1000, 3}, {4, 1000, 17}} {
		rng := rand.New(rand.NewSource(c.seed))
		db := vec.New(c.dim, c.n)
		row := make([]float32, c.dim)
		for i := 0; i < c.n; i++ {
			if i > 0 && rng.Intn(5) == 0 {
				db.Append(db.Row(rng.Intn(i)))
				continue
			}
			for j := range row {
				row[j] = float32(rng.Intn(17)-8) * 0.5
			}
			db.Append(row)
		}
		prm := ExactParams{Seed: c.seed}
		e, err := BuildExact(db, metric.Euclidean{}, prm)
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildGenericExact(db.Rows(), metric.Metric[[]float32](metric.Euclidean{}), prm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.repIDs, g.repIDs) {
			t.Fatalf("seed %d: rep ids %v, generic %v", c.seed, e.repIDs, g.repIDs)
		}
		if !reflect.DeepEqual(e.radii, g.radii) {
			t.Fatalf("seed %d: radii %v, generic %v", c.seed, e.radii, g.radii)
		}
		for j := range e.repIDs {
			lo, hi := e.offsets[j], e.offsets[j+1]
			if hi-lo != len(g.lists[j]) {
				t.Fatalf("seed %d list %d: %d members, generic %d", c.seed, j, hi-lo, len(g.lists[j]))
			}
			for p := lo; p < hi; p++ {
				if e.ids[p] != g.lists[j][p-lo] || e.dists[p] != g.dists[j][p-lo] {
					t.Fatalf("seed %d list %d pos %d: (%d, %v), generic (%d, %v)", c.seed, j, p-lo,
						e.ids[p], e.dists[p], g.lists[j][p-lo], g.dists[j][p-lo])
				}
			}
		}
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{RepEvals: 1, PointEvals: 2, RepsKept: 3, PrunedPsi: 4, PrunedTriple: 5}
	b := Stats{RepEvals: 10, PointEvals: 20, RepsKept: 30, PrunedPsi: 40, PrunedTriple: 50}
	a.Add(b)
	if a.RepEvals != 11 || a.PointEvals != 22 || a.RepsKept != 33 || a.PrunedPsi != 44 || a.PrunedTriple != 55 {
		t.Fatalf("Add: %+v", a)
	}
	if a.TotalEvals() != 33 {
		t.Fatalf("TotalEvals=%d", a.TotalEvals())
	}
	// Ensure the struct formats cleanly in reports.
	if s := fmt.Sprintf("%+v", a); s == "" {
		t.Fatal("unformattable")
	}
}
