package search_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	rbc "repro"
	"repro/internal/bruteforce"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/vec"
)

// TestPublicBruteForceBitIdentical: the public rbc.BruteForce and
// rbc.BruteForceK are the exact primitive — bit-identical (ids, distance
// bits, order) to the per-query reference bruteforce.SearchOneK on the
// equivalence corpus and on off-lattice data, where a reassociating
// kernel would drift in trailing ulps.
func TestPublicBruteForceBitIdentical(t *testing.T) {
	check := func(t *testing.T, db, queries *vec.Dataset, k int) {
		m := rbc.Euclidean()
		gotK := rbc.BruteForceK(queries, db, k, m)
		got1 := rbc.BruteForce(queries, db, m)
		for i := 0; i < queries.N(); i++ {
			want := bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
			if !neighborsEqual(gotK[i], want) {
				t.Fatalf("query %d: BruteForceK %v, reference %v", i, gotK[i], want)
			}
			want1 := rbc.Result{ID: -1, Dist: math.Inf(1)}
			if nbs := bruteforce.SearchOneK(queries.Row(i), db, 1, m, nil); len(nbs) > 0 {
				want1 = rbc.Result{ID: nbs[0].ID, Dist: nbs[0].Dist}
			}
			if got1[i] != want1 {
				t.Fatalf("query %d: BruteForce %+v, reference %+v", i, got1[i], want1)
			}
		}
	}
	search.ForEachEquivalenceInput(t, check)
	for _, c := range []struct {
		seed   int64
		n, dim int
	}{{101, 600, 8}, {102, 1000, 21}, {103, 300, 64}} {
		t.Run(fmt.Sprintf("off-lattice/seed=%d/n=%d/dim=%d", c.seed, c.n, c.dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			uniform := func(n int) *vec.Dataset {
				d := vec.New(c.dim, n)
				row := make([]float32, c.dim)
				for i := 0; i < n; i++ {
					for j := range row {
						row[j] = rng.Float32()*2 - 1
					}
					d.Append(row)
				}
				return d
			}
			db := uniform(c.n)
			check(t, db, uniform(40), 10)
		})
	}
}

func neighborsEqual(a, b []par.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
