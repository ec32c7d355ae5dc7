package search_test

import (
	"fmt"
	"math/rand"
	"testing"

	rbc "repro"
	"repro/internal/bruteforce"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/vec"
)

// TestPublicBruteForceBitIdentical: the public rbc.BruteForceK is the
// exact primitive — bit-identical (ids, distance bits, order) to the
// per-query reference bruteforce.SearchOneK on the equivalence corpus and
// on off-lattice data, where a reassociating kernel would drift in
// trailing ulps — at the corpus k and at k = 1, the 1-NN search.
func TestPublicBruteForceBitIdentical(t *testing.T) {
	check := func(t *testing.T, db, queries *vec.Dataset, k int) {
		m := rbc.Euclidean()
		for _, kk := range []int{k, 1} {
			got := rbc.BruteForceK(queries, db, kk, m)
			for i := 0; i < queries.N(); i++ {
				want := bruteforce.SearchOneK(queries.Row(i), db, kk, m, nil)
				if !neighborsEqual(got[i], want) {
					t.Fatalf("k=%d query %d: BruteForceK %v, reference %v", kk, i, got[i], want)
				}
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
