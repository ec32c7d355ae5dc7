package bruteforce

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Exactness tests for the tiled BF(Q,X) kernels: the tiled batch paths
// must reproduce the per-query reference bit for bit — ids, distances and
// tie-breaking toward lower ids — on random, duplicate-heavy, and
// dim-not-multiple-of-4 data.

// dupDataset builds a duplicate-heavy dataset: every point appears 2–3
// times so distance ties are the norm, not the exception.
func dupDataset(rng *rand.Rand, n, dim int) *vec.Dataset {
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; {
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
		reps := 2 + rng.Intn(2)
		for r := 0; r < reps && i < n; r++ {
			d.Append(row)
			i++
		}
	}
	return d
}

func tiledCases(t *testing.T, fn func(t *testing.T, queries, db *vec.Dataset)) {
	rng := rand.New(rand.NewSource(101))
	for _, tc := range []struct {
		name string
		db   *vec.Dataset
		nq   int
	}{
		{"random-dim8", randomDataset(rng, 3000, 8), 70},
		{"random-dim7", randomDataset(rng, 2000, 7), 70}, // dim % 4 != 0
		{"random-dim3", randomDataset(rng, 1500, 3), 50},
		{"dups-dim6", dupDataset(rng, 2000, 6), 60},
		{"dups-dim5", dupDataset(rng, 1200, 5), 60},
		{"tiny", randomDataset(rng, 17, 4), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			queries := randomDataset(rng, tc.nq, tc.db.Dim)
			// Plant exact hits: some queries are database points.
			for i := 0; i < tc.nq/4; i++ {
				copy(queries.Row(i), tc.db.Row((i*13)%tc.db.N()))
			}
			fn(t, queries, tc.db)
		})
	}
}

func TestTiledSearchBitIdenticalToPerQuery(t *testing.T) {
	m := metric.Euclidean{}
	tiledCases(t, func(t *testing.T, queries, db *vec.Dataset) {
		got := Search(queries, db, m, nil)
		want := searchPerQuery(queries, db, m, nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: tiled %+v, per-query reference %+v", i, got[i], want[i])
			}
		}
	})
}

func TestTiledSearchKBitIdenticalToPerQuery(t *testing.T) {
	m := metric.Euclidean{}
	tiledCases(t, func(t *testing.T, queries, db *vec.Dataset) {
		for _, k := range []int{1, 5, 16} {
			got := SearchK(queries, db, k, m, nil)
			for i := range got {
				want := SearchOneK(queries.Row(i), db, k, m, nil)
				if len(got[i]) != len(want) {
					t.Fatalf("k=%d query %d: %d results, want %d", k, i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("k=%d query %d pos %d: tiled %+v, reference %+v", k, i, j, got[i][j], want[j])
					}
				}
			}
		}
	})
}

// searchFast1 is the 1-NN view of SearchKFast: each query's nearest
// neighbor on the Gram-fast kernel, ID -1 at +Inf when the database is
// empty.
func searchFast1(queries, db *vec.Dataset, m metric.Metric[[]float32]) []par.Neighbor {
	nbs := SearchKFast(queries, db, 1, m, nil)
	out := make([]par.Neighbor, len(nbs))
	for i, ns := range nbs {
		out[i] = par.Neighbor{ID: -1, Dist: math.Inf(1)}
		if len(ns) > 0 {
			out[i] = par.Neighbor{ID: ns[0].ID, Dist: ns[0].Dist}
		}
	}
	return out
}

// fastPerQueryRef runs the fast (Gram) kernel one query at a time with
// precomputed norms — the per-query reference for SearchKFast. The kernel
// is tile-shape stable, so SearchKFast must match it bit for bit.
func fastPerQueryRef(queries, db *vec.Dataset, m metric.Metric[[]float32]) []par.Neighbor {
	ker := metric.NewFastKernel(m)
	dim := db.Dim
	pnorms := ker.Norms(db.Data, dim, nil)
	out := make([]par.Neighbor, queries.N())
	ords := make([]float64, db.N())
	for i := range out {
		q := queries.Row(i)
		qn := ker.Norms(q, dim, nil)
		ker.Tile(q, qn, db.Data, pnorms, dim, ords, nil)
		best := par.Neighbor{ID: -1, Dist: 0}
		first := true
		for j, o := range ords {
			if first || o < best.Dist {
				best = par.Neighbor{ID: j, Dist: o}
				first = false
			}
		}
		best.Dist = ker.ToDistance(best.Dist)
		out[i] = best
	}
	return out
}

func TestFastSearchBitIdenticalToFastReference(t *testing.T) {
	m := metric.Euclidean{}
	tiledCases(t, func(t *testing.T, queries, db *vec.Dataset) {
		got := searchFast1(queries, db, m)
		want := fastPerQueryRef(queries, db, m)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: SearchKFast %+v, per-query fast reference %+v", i, got[i], want[i])
			}
		}
	})
}

// TestFastSearchAgreesWithNaive: the Gram kernel reassociates the
// summation, so distances may differ in trailing ulps — but the selected
// neighbor must agree with the naive scan and duplicates must still tie
// toward the lower id.
func TestFastSearchAgreesWithNaive(t *testing.T) {
	m := metric.Euclidean{}
	tiledCases(t, func(t *testing.T, queries, db *vec.Dataset) {
		got := searchFast1(queries, db, m)
		for i := range got {
			want := naiveNN(queries.Row(i), db, m)
			if got[i].ID != want.ID {
				// A genuine near-tie between distinct points may legally
				// resolve differently; require the distances to agree then.
				gd := m.Distance(queries.Row(i), db.Row(got[i].ID))
				if diff := gd - want.Dist; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("query %d: id %d (d=%v) vs naive %d (d=%v)", i, got[i].ID, gd, want.ID, want.Dist)
				}
			}
			if diff := got[i].Dist - want.Dist; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("query %d: dist %v, naive %v", i, got[i].Dist, want.Dist)
			}
		}
	})
}

func TestFastSearchKSortedAndDeduplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := dupDataset(rng, 1000, 6)
	queries := randomDataset(rng, 20, 6)
	res := SearchKFast(queries, db, 9, metric.Euclidean{}, nil)
	for i, nbs := range res {
		if len(nbs) != 9 {
			t.Fatalf("query %d: %d results", i, len(nbs))
		}
		for j := 1; j < len(nbs); j++ {
			if nbs[j].Dist < nbs[j-1].Dist ||
				(nbs[j].Dist == nbs[j-1].Dist && nbs[j].ID <= nbs[j-1].ID) {
				t.Fatalf("query %d: results not sorted by (dist, id): %v", i, nbs)
			}
		}
	}
}

func TestTiledSearchEmptyInputs(t *testing.T) {
	m := metric.Euclidean{}
	var empty vec.Dataset
	queries := vec.FromRows([][]float32{{1, 2}})
	for _, fn := range []func(q, db *vec.Dataset) []par.Neighbor{
		func(q, db *vec.Dataset) []par.Neighbor { return Search(q, db, m, nil) },
		func(q, db *vec.Dataset) []par.Neighbor { return searchFast1(q, db, m) },
	} {
		res := fn(queries, &empty)
		if len(res) != 1 || res[0].ID != -1 {
			t.Fatalf("empty db: %+v", res)
		}
		if res := fn(&vec.Dataset{Dim: 2}, vec.FromRows([][]float32{{0, 0}})); len(res) != 0 {
			t.Fatalf("empty queries: %+v", res)
		}
	}
	if res := SearchK(queries, &empty, 3, m, nil); len(res) != 1 || res[0] != nil {
		t.Fatalf("empty db SearchK: %+v", res)
	}
	if res := SearchKFast(queries, vec.FromRows([][]float32{{0, 0}}), 0, m, nil); len(res) != 1 || res[0] != nil {
		t.Fatalf("k=0 SearchKFast: %+v", res)
	}
}

// TestTiledSearchNonEuclidean: the tiled loops must work for every metric
// through the generic kernel dispatch.
func TestTiledSearchNonEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := randomDataset(rng, 800, 5)
	queries := randomDataset(rng, 25, 5)
	for _, m := range []metric.Metric[[]float32]{
		metric.Manhattan{}, metric.Chebyshev{}, metric.NewMinkowski(3), metric.Angular{},
	} {
		got := Search(queries, db, m, nil)
		fast := searchFast1(queries, db, m)
		for i := range got {
			want := naiveNN(queries.Row(i), db, m)
			if got[i].ID != want.ID {
				t.Fatalf("%s query %d: id %d, want %d", m.Name(), i, got[i].ID, want.ID)
			}
			if diff := got[i].Dist - want.Dist; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s query %d: dist %v, want %v", m.Name(), i, got[i].Dist, want.Dist)
			}
			if fast[i].ID != got[i].ID {
				t.Fatalf("%s query %d: fast id %d, exact id %d", m.Name(), i, fast[i].ID, got[i].ID)
			}
		}
	}
}

// TestSearchAllocsAmortizedZero guards the scratch pooling: a batch search
// must not allocate per query (only the result slice and O(workers)
// bookkeeping).
func TestSearchAllocsAmortizedZero(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := randomDataset(rng, 2000, 16)
	queries := randomDataset(rng, 256, 16)
	m := metric.Euclidean{}
	// Warm the pools.
	Search(queries, db, m, nil)
	// out + goroutine/pool bookkeeping: far below one per query.
	allocs := testing.AllocsPerRun(5, func() {
		Search(queries, db, m, nil)
	})
	if allocs > float64(queries.N())/4 {
		t.Fatalf("Search allocated %.0f times for %d queries", allocs, queries.N())
	}
}

// TestRangeSearchOrderingBoundary: the ordering-space prefilter must not
// change the inclusive eps boundary.
func TestRangeSearchOrderingBoundary(t *testing.T) {
	db := vec.FromRows([][]float32{{0}, {2}, {3.5}})
	hits := RangeSearch([]float32{1}, db, 1.0, metric.Euclidean{}, nil)
	if len(hits) != 2 || hits[0].ID != 0 || hits[1].ID != 1 {
		t.Fatalf("boundary hits: %v", hits)
	}
	// Minkowski exercises the non-identity ordering round trip.
	hits = RangeSearch([]float32{1}, db, 1.0, metric.NewMinkowski(3), nil)
	if len(hits) != 2 {
		t.Fatalf("minkowski boundary hits: %v", hits)
	}
}

// TestRangeSearchEpsAtReportedDistance: setting eps to a distance the
// library itself reported must include that point — for every metric,
// including Minkowski, whose Pow-based ordering conversion is not
// correctly rounded (a one-ulp ordering prefilter used to drop ~40% of
// these boundary points).
func TestRangeSearchEpsAtReportedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := randomDataset(rng, 400, 5)
	for _, m := range []metric.Metric[[]float32]{
		metric.Euclidean{}, metric.Manhattan{}, metric.NewMinkowski(3), metric.NewMinkowski(2.5),
	} {
		for trial := 0; trial < 50; trial++ {
			q := randomDataset(rng, 1, 5).Row(0)
			nbs := SearchOneK(q, db, 7, m, nil)
			eps := nbs[len(nbs)-1].Dist
			hits := RangeSearch(q, db, eps, m, nil)
			found := false
			for _, h := range hits {
				if h.ID == nbs[len(nbs)-1].ID {
					found = true
				}
			}
			if !found || len(hits) < len(nbs) {
				t.Fatalf("%s trial %d: eps=%v (the 7th-NN distance) returned %d hits missing the 7th NN %+v",
					m.Name(), trial, eps, len(hits), nbs[len(nbs)-1])
			}
		}
	}
}

func TestSortNeighborsLong(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	ns := make([]par.Neighbor, 500)
	for i := range ns {
		ns[i] = par.Neighbor{ID: rng.Intn(100), Dist: float64(rng.Intn(40))}
	}
	par.SortNeighbors(ns)
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist < ns[i-1].Dist ||
			(ns[i].Dist == ns[i-1].Dist && ns[i].ID < ns[i-1].ID) {
			t.Fatalf("not sorted at %d: %v %v", i, ns[i-1], ns[i])
		}
	}
}
