package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
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

// seqInts returns [lo, hi) as a slice.
func seqInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// clusteredDataset produces low-intrinsic-dimension data where RBC pruning
// actually bites.
func clusteredDataset(rng *rand.Rand, n, dim, clusters int) *vec.Dataset {
	centers := randomDataset(rng, clusters, dim)
	d := vec.New(dim, n)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(clusters))
		row := make([]float32, dim)
		for j := range row {
			row[j] = c[j]*10 + float32(rng.NormFloat64())*0.3
		}
		d.Append(row)
	}
	return d
}

func TestBuildExactPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := clusteredDataset(rng, 800, 6, 10)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{NumReps: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Invariant: lists partition the database.
	seen := make([]bool, db.N())
	for _, id := range e.ids {
		if seen[id] {
			t.Fatalf("db id %d appears in two lists", id)
		}
		seen[id] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("db id %d missing from all lists", i)
		}
	}
	// Invariant: within each list, distances are sorted ascending and each
	// point's distance to its representative equals the stored value; the
	// radius is the final (max) distance.
	m := metric.Euclidean{}
	for j := 0; j < e.NumReps(); j++ {
		lo, hi := e.offsets[j], e.offsets[j+1]
		rep := db.Row(e.repIDs[j])
		for p := lo; p < hi; p++ {
			if p > lo && e.dists[p] < e.dists[p-1] {
				t.Fatalf("list %d not sorted at position %d", j, p)
			}
			want := m.Distance(db.Row(int(e.ids[p])), rep)
			if math.Abs(e.dists[p]-want) > 1e-9 {
				t.Fatalf("stored dist %v, recomputed %v", e.dists[p], want)
			}
		}
		if hi > lo && e.radii[j] != e.dists[hi-1] {
			t.Fatalf("radius %v != max list dist %v", e.radii[j], e.dists[hi-1])
		}
	}
	// Invariant: every point is assigned to its *nearest* representative.
	for j := 0; j < e.NumReps(); j++ {
		for p := e.offsets[j]; p < e.offsets[j+1]; p++ {
			x := db.Row(int(e.ids[p]))
			for jj, rid := range e.repIDs {
				if d := m.Distance(x, db.Row(rid)); d < e.dists[p]-1e-9 {
					t.Fatalf("point %d owned by rep %d but rep %d is closer (%v < %v)",
						e.ids[p], j, jj, d, e.dists[p])
				}
			}
		}
	}
}

func TestBuildExactErrors(t *testing.T) {
	var empty vec.Dataset
	if _, err := BuildExact(&empty, metric.Euclidean{}, ExactParams{}); err == nil {
		t.Fatal("empty db should error")
	}
	db := vec.FromRows([][]float32{{1}})
	if _, err := BuildExact(db, metric.Euclidean{}, ExactParams{ApproxEps: -0.5}); err == nil {
		t.Fatal("negative ApproxEps should error")
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cfg := range []struct {
		name string
		db   *vec.Dataset
	}{
		{"uniform", randomDataset(rng, 1200, 5)},
		{"clustered", clusteredDataset(rng, 1200, 8, 12)},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			e, err := BuildExact(cfg.db, metric.Euclidean{}, ExactParams{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			queries := randomDataset(rng, 60, cfg.db.Dim)
			for i := 0; i < queries.N(); i++ {
				q := queries.Row(i)
				got, _ := e.KNN(q, 1)
				want := bruteforce.SearchOne(q, cfg.db, metric.Euclidean{}, nil)
				if got[0].Dist != want.Dist {
					t.Fatalf("query %d: got %+v want %+v", i, got, want)
				}
			}
		})
	}
}

func TestExactQueryOnDatabasePoints(t *testing.T) {
	// Every database point's own NN must be itself (distance 0).
	rng := rand.New(rand.NewSource(3))
	db := randomDataset(rng, 500, 4)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, _ := e.KNN(db.Row(i), 1)
		if got[0].Dist != 0 {
			t.Fatalf("db point %d: dist %v", i, got[0].Dist)
		}
	}
}

func TestExactKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := clusteredDataset(rng, 900, 6, 9)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 25, 6)
	for _, k := range []int{1, 3, 10} {
		for i := 0; i < queries.N(); i++ {
			q := queries.Row(i)
			got, _ := e.KNN(q, k)
			want := bruteforce.SearchOneK(q, db, k, m, nil)
			if len(got) != len(want) {
				t.Fatalf("k=%d q=%d: %d results, want %d", k, i, len(got), len(want))
			}
			for j := range got {
				if got[j].Dist != want[j].Dist {
					t.Fatalf("k=%d q=%d pos=%d: dist %v want %v", k, i, j, got[j].Dist, want[j].Dist)
				}
			}
		}
	}
}

func TestExactKNNWithDuplicates(t *testing.T) {
	// Heavy duplication stresses tie handling and the rep/list dedupe.
	rows := make([][]float32, 0, 300)
	for i := 0; i < 100; i++ {
		v := float32(i % 10)
		rows = append(rows, []float32{v, v}, []float32{v, v}, []float32{v + 0.5, v})
	}
	db := vec.FromRows(rows)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := []float32{2.1, 2.0}
	for _, k := range []int{1, 5, 12} {
		got, _ := e.KNN(q, k)
		want := bruteforce.SearchOneK(q, db, k, m, nil)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		seen := map[int]bool{}
		for j := range got {
			if got[j].Dist != want[j].Dist {
				t.Fatalf("k=%d pos=%d: dist %v want %v", k, j, got[j].Dist, want[j].Dist)
			}
			if seen[got[j].ID] {
				t.Fatalf("k=%d: duplicate id %d in results", k, got[j].ID)
			}
			seen[got[j].ID] = true
		}
	}
}

func TestExactRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := clusteredDataset(rng, 700, 5, 8)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 20, 5)
	for i := 0; i < queries.N(); i++ {
		q := queries.Row(i)
		for _, eps := range []float64{0.1, 1.0, 5.0} {
			got, _ := e.Range(q, eps)
			want := bruteforce.RangeSearch(q, db, eps, m, nil)
			if len(got) != len(want) {
				t.Fatalf("q=%d eps=%v: %d hits, want %d", i, eps, len(got), len(want))
			}
			for j := range got {
				if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
					t.Fatalf("q=%d eps=%v pos=%d: %+v want %+v", i, eps, j, got[j], want[j])
				}
			}
		}
	}
}

func TestExactSearchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randomDataset(rng, 400, 4)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 30, 4)
	for _, k := range []int{1, 3} {
		batchK, st := e.KNNBatch(queries, k)
		if st.RepEvals != int64(queries.N()*e.NumReps()) {
			t.Fatalf("k=%d: RepEvals=%d, want %d", k, st.RepEvals, queries.N()*e.NumReps())
		}
		var sum Stats
		for i := 0; i < queries.N(); i++ {
			oneK, s := e.KNN(queries.Row(i), k)
			sum.Add(s)
			if len(batchK[i]) != len(oneK) {
				t.Fatalf("k=%d: batchK[%d] has %d results, KNN %d", k, i, len(batchK[i]), len(oneK))
			}
			for j := range oneK {
				if batchK[i][j] != oneK[j] {
					t.Fatalf("k=%d: batchK[%d][%d]=%+v, KNN %+v", k, i, j, batchK[i][j], oneK[j])
				}
			}
		}
		if sum != st {
			t.Fatalf("k=%d: per-query Stats %+v, batch %+v", k, sum, st)
		}
	}
}

func TestExactDoesLessWorkThanBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := clusteredDataset(rng, 4000, 8, 15)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 50, 8)
	_, st := e.KNNBatch(queries, 1)
	perQuery := float64(st.TotalEvals()) / float64(queries.N())
	if perQuery >= float64(db.N())/2 {
		t.Fatalf("exact search examined %.0f points per query; brute force would be %d", perQuery, db.N())
	}
}

func TestExactPruningBoundsIndividually(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Draw db and queries from the same clustered distribution so both
	// pruning bounds have a chance to fire (γ is then cluster-scale small).
	all := clusteredDataset(rng, 1540, 6, 10)
	db := all.Subset(seqInts(0, 1500))
	queries := all.Subset(seqInts(1500, 1540))
	m := metric.Euclidean{}
	want := bruteforce.Search(queries, db, m, nil)
	for _, prm := range []ExactParams{
		{Seed: 13, PrunePsi: true},                    // bound (1) only
		{Seed: 13, PruneTriple: true},                 // bound (2) only
		{Seed: 13, PrunePsi: true, PruneTriple: true}, // both
	} {
		e, err := BuildExact(db, m, prm)
		if err != nil {
			t.Fatal(err)
		}
		got, st := e.KNNBatch(queries, 1)
		for i := range got {
			if got[i][0].Dist != want[i].Dist {
				t.Fatalf("params %+v query %d: %v want %v", prm, i, got[i][0].Dist, want[i].Dist)
			}
		}
		if prm.PrunePsi && st.PrunedPsi == 0 {
			t.Fatalf("params %+v: psi bound never fired", prm)
		}
		if prm.PruneTriple && !prm.PrunePsi && st.PrunedTriple == 0 {
			t.Fatalf("params %+v: triple bound never fired", prm)
		}
	}
}

// assertSameSearches fails unless a and b answer every query bit for bit
// alike and count the same Stats, on the per-query, batch and range
// paths.
func assertSameSearches(t *testing.T, label string, a, b *Exact, queries *vec.Dataset) {
	t.Helper()
	same := func(what string, x, y []par.Neighbor, sx, sy Stats) {
		t.Helper()
		if sx != sy {
			t.Fatalf("%s %s: stats %+v vs %+v", label, what, sx, sy)
		}
		if len(x) != len(y) {
			t.Fatalf("%s %s: %d vs %d neighbors", label, what, len(x), len(y))
		}
		for p := range x {
			if x[p] != y[p] {
				t.Fatalf("%s %s pos %d: %+v vs %+v", label, what, p, x[p], y[p])
			}
		}
	}
	for _, k := range []int{1, 7} {
		ba, sa := a.KNNBatch(queries, k)
		bb, sb := b.KNNBatch(queries, k)
		if sa != sb {
			t.Fatalf("%s KNNBatch k=%d: stats %+v vs %+v", label, k, sa, sb)
		}
		for i := 0; i < queries.N(); i++ {
			same(fmt.Sprintf("KNNBatch k=%d query %d", k, i), ba[i], bb[i], Stats{}, Stats{})
			x, sx := a.KNN(queries.Row(i), k)
			y, sy := b.KNN(queries.Row(i), k)
			same(fmt.Sprintf("KNN k=%d query %d", k, i), x, y, sx, sy)
		}
	}
	for i := 0; i < queries.N(); i++ {
		x, sx := a.Range(queries.Row(i), 1.5)
		y, sy := b.Range(queries.Row(i), 1.5)
		same(fmt.Sprintf("Range query %d", i), x, y, sx, sy)
	}
}

func TestExactApproxGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := clusteredDataset(rng, 2000, 6, 10)
	m := metric.Euclidean{}
	queries := randomDataset(rng, 80, 6)
	want := bruteforce.Search(queries, db, m, nil)
	for _, eps := range []float64{0.1, 0.5, 2.0} {
		e, err := BuildExact(db, m, ExactParams{Seed: 17, ApproxEps: eps})
		if err != nil {
			t.Fatal(err)
		}
		got, stApprox := e.KNNBatch(queries, 1)
		for i := range got {
			if got[i][0].Dist > (1+eps)*want[i].Dist+1e-9 {
				t.Fatalf("eps=%v query %d: got %v, exceeds (1+eps)*%v", eps, i, got[i][0].Dist, want[i].Dist)
			}
		}
		exact, stExact := func() (*Exact, Stats) {
			ee, err := BuildExact(db, m, ExactParams{Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			_, s := ee.KNNBatch(queries, 1)
			return ee, s
		}()
		_ = exact
		if stApprox.PointEvals > stExact.PointEvals {
			t.Fatalf("eps=%v: approx did more work (%d) than exact (%d)", eps, stApprox.PointEvals, stExact.PointEvals)
		}
	}
}

func TestExactDegenerateAllReps(t *testing.T) {
	// NumReps >= n: every point is a representative; search must still be
	// exact (it degenerates to brute force over R).
	rng := rand.New(rand.NewSource(10))
	db := randomDataset(rng, 120, 3)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{NumReps: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumReps() != db.N() {
		t.Fatalf("NumReps=%d, want %d", e.NumReps(), db.N())
	}
	q := []float32{0.2, -0.3, 0.5}
	got, _ := e.KNN(q, 1)
	want := bruteforce.SearchOne(q, db, m, nil)
	if got[0].Dist != want.Dist {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestExactSingletonDB(t *testing.T) {
	db := vec.FromRows([][]float32{{1, 2}})
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.KNN([]float32{0, 0}, 1)
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("got %+v", got)
	}
	knn, _ := e.KNN([]float32{0, 0}, 5)
	if len(knn) != 1 {
		t.Fatalf("knn on singleton: %v", knn)
	}
}

func TestExactKNNZeroK(t *testing.T) {
	db := vec.FromRows([][]float32{{1}, {2}})
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := e.KNN([]float32{0}, 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestExactDimMismatchPanics(t *testing.T) {
	db := vec.FromRows([][]float32{{1, 2}, {3, 4}})
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	e.KNNBatch(vec.FromRows([][]float32{{1, 2, 3}}), 1)
}

func TestExactAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDataset(rng, 300, 4)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{NumReps: 20, Seed: 3, ExactCount: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumReps() != 20 {
		t.Fatalf("ExactCount: NumReps=%d, want 20", e.NumReps())
	}
	if len(e.RepIDs()) != 20 || len(e.Radii()) != 20 {
		t.Fatal("accessor lengths")
	}
	sizes := e.ListSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != db.N() {
		t.Fatalf("list sizes sum to %d, want %d", total, db.N())
	}
	if e.Params().NumReps != 20 {
		t.Fatal("Params roundtrip")
	}
}

func TestSampleRepsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Binomial mode: expected count is approximately nr.
	total := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		ids := sampleReps(1000, 50, false, rng)
		total += len(ids)
		seen := map[int]bool{}
		for _, id := range ids {
			if id < 0 || id >= 1000 || seen[id] {
				t.Fatalf("bad sample: %v", ids)
			}
			seen[id] = true
		}
	}
	mean := float64(total) / trials
	if mean < 35 || mean > 65 {
		t.Fatalf("binomial mean %v too far from 50", mean)
	}
	// Exact mode: exactly nr, sorted.
	ids := sampleReps(100, 10, true, rng)
	if len(ids) != 10 {
		t.Fatalf("exact count: %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("exact mode ids not sorted/unique")
		}
	}
	// nr >= n: everything.
	ids = sampleReps(5, 50, false, rng)
	if len(ids) != 5 {
		t.Fatalf("nr>=n should return all: %v", ids)
	}
	// Never empty.
	for i := 0; i < 50; i++ {
		if len(sampleReps(1000, 1, false, rng)) == 0 {
			t.Fatal("empty representative set")
		}
	}
}

func TestDefaultNumReps(t *testing.T) {
	if DefaultNumReps(0) != 0 {
		t.Fatal("n=0")
	}
	if DefaultNumReps(100) != 10 {
		t.Fatalf("n=100: %d", DefaultNumReps(100))
	}
	if DefaultNumReps(2) != 2 {
		t.Fatalf("n=2: %d (must clamp to n)", DefaultNumReps(2))
	}
}

// Property: exact RBC equals brute force on random instances with random
// parameters — the core correctness theorem, checked end to end.
func TestQuickExactAlwaysExact(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, nRaw uint16, nrRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%400 + 2
		nr := int(nrRaw)%n + 1
		db := randomDataset(rng, n, 3)
		e, err := BuildExact(db, m, ExactParams{NumReps: nr, Seed: seed})
		if err != nil {
			return false
		}
		for trial := 0; trial < 4; trial++ {
			q := randomDataset(rng, 1, 3).Row(0)
			got, _ := e.KNN(q, 1)
			want := bruteforce.SearchOne(q, db, m, nil)
			if got[0].Dist != want.Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: exact k-NN distance multiset equals brute force under
// duplicates and arbitrary k.
func TestQuickExactKNN(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 150
		k := int(kRaw)%12 + 1
		db := randomDataset(rng, n, 2)
		// Inject duplicates.
		for i := 0; i < 30; i++ {
			copy(db.Row(rng.Intn(n)), db.Row(rng.Intn(n)))
		}
		e, err := BuildExact(db, m, ExactParams{Seed: seed})
		if err != nil {
			return false
		}
		q := randomDataset(rng, 1, 2).Row(0)
		got, _ := e.KNN(q, k)
		want := bruteforce.SearchOneK(q, db, k, m, nil)
		if len(got) != len(want) {
			return false
		}
		for j := range got {
			if got[j].Dist != want[j].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
