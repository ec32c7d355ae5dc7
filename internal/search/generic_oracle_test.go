package search

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/vec"
)

// The executable spec: core.GenericExact is the paper's exact search
// verbatim — one Distance call per pair, no tiles, no fast-grade
// brackets, no grouping — so it is the oracle for core.Exact's answers
// AND for its work counters (the paper's own measure). Built over the
// same rows, seed and params, every Exact query path must return the
// same neighbours bit for bit and the same Stats field by field.
//
// Rules for what "same" means, each structural rather than a tolerance:
//
//   - PointEvals counts every position of the home probe's run and of a
//     kept list's admissible window (less the probed run on the home
//     list), representatives included — they are skipped as candidates,
//     not as work. See core.Stats.
//   - Exact evaluates every representative once, in phase 1, so
//     RepEvals is |R| per query on both sides.
//   - GenericExact calls m.Distance where Exact calls the exact-grade
//     kernel. Euclidean.Distance accumulates in one chain and the kernel
//     in four, so the two agree bit for bit only where float64 sums are
//     exact — the half-integer lattice of the equivalence corpus. Off
//     the lattice the generic side runs over a metric that calls the
//     kernel (kernelMetric), which pins the arithmetic without touching
//     the algorithm under test.
//   - Owners are chosen in ordering space by Exact and in distance space
//     by GenericExact. Two representatives at distinct squared distances
//     whose square roots round to the same float64 would be a tie only
//     for the generic side; neither corpus produces one (lattice squares
//     are small multiples of 1/4, and the off-lattice seeds are fixed).

// FuzzGenericOracle shares the equivalence corpus: same seeds, same
// dim/n selectors (the k selector is unused — k ∈ {1, 10} always run).
func FuzzGenericOracle(f *testing.F) {
	for _, c := range equivalenceCorpus {
		f.Add(c.seed, c.dimSel, c.nSel)
	}
	f.Fuzz(func(t *testing.T, seed int64, dimSel, nSel uint8) {
		dim := []int{1, 3, 17, 64}[int(dimSel)%4]
		n := []int{0, 1, 37, 1000}[int(nSel)%4]
		if n == 0 {
			return // index builds reject empty databases
		}
		rng := rand.New(rand.NewSource(seed))
		db := tieRich(rng, n, dim)
		queries := tieRich(rng, 12, dim)
		copy(queries.Row(0), db.Row(rng.Intn(n)))
		checkGenericOracle(t, seed, db, queries, metric.Euclidean{})
	})
}

// TestGenericOracleOffLattice runs the oracle on Gaussian rows, where
// only the kernel-backed metric keeps the two sides in the same
// arithmetic.
func TestGenericOracleOffLattice(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		n, dim int
	}{{101, 600, 8}, {102, 1000, 21}, {103, 300, 64}} {
		t.Run(fmt.Sprintf("seed=%d/n=%d/dim=%d", c.seed, c.n, c.dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			gauss := func(n int) *vec.Dataset {
				d := vec.New(c.dim, n)
				row := make([]float32, c.dim)
				for i := 0; i < n; i++ {
					for j := range row {
						row[j] = float32(rng.NormFloat64())
					}
					d.Append(row)
				}
				return d
			}
			db, queries := gauss(c.n), gauss(12)
			copy(queries.Row(0), db.Row(rng.Intn(c.n)))
			checkGenericOracle(t, c.seed, db, queries, kernelMetric(metric.Euclidean{}, c.dim))
		})
	}
}

// kernelMetric is m evaluated through the exact-grade kernel: the same
// per-pair arithmetic core.Exact reports answers in.
func kernelMetric(m metric.Metric[[]float32], dim int) metric.Metric[[]float32] {
	ker := metric.NewKernel(m)
	return metric.Func[[]float32]{Label: m.Name(), F: func(a, b []float32) float64 {
		var o [1]float64
		ker.Ordering(a, b, dim, o[:])
		return ker.ToDistance(o[0])
	}}
}

// checkGenericOracle compares core.Exact (built with Euclidean) against
// core.GenericExact (built with gm over the same rows) on every query
// path, k ∈ {1, 10}.
func checkGenericOracle(t *testing.T, seed int64, db, queries *vec.Dataset, gm metric.Metric[[]float32]) {
	t.Helper()
	m := metric.Euclidean{}
	nq := queries.N()
	prm := core.ExactParams{Seed: seed}
	idx, err := core.BuildExact(db, m, prm)
	if err != nil {
		t.Fatalf("BuildExact: %v", err)
	}
	gen, err := core.BuildGenericExact(db.Rows(), gm, prm)
	if err != nil {
		t.Fatalf("BuildGenericExact: %v", err)
	}
	if idx.NumReps() != gen.NumReps() {
		t.Fatalf("%d representatives, generic %d", idx.NumReps(), gen.NumReps())
	}
	for _, k := range []int{1, 10} {
		label := fmt.Sprintf("k=%d", k)
		var wantAgg core.Stats
		want := make([][]Neighbor, nq)
		for i := 0; i < nq; i++ {
			var st core.Stats
			want[i], st = gen.KNN(queries.Row(i), k)
			wantAgg.Add(st)
			got, gst := idx.KNN(queries.Row(i), k)
			assertBitEqual(t, fmt.Sprintf("%s query %d Exact.KNN vs generic", label, i), got, want[i])
			if gst != st {
				t.Fatalf("%s query %d: Exact.KNN stats %+v, generic %+v", label, i, gst, st)
			}
		}
		batch, bst := idx.KNNBatch(queries, k)
		for i := 0; i < nq; i++ {
			assertBitEqual(t, fmt.Sprintf("%s query %d Exact.KNNBatch vs generic", label, i), batch[i], want[i])
		}
		if bst != wantAgg {
			t.Fatalf("%s: Exact.KNNBatch stats %+v, generic sum %+v", label, bst, wantAgg)
		}
	}
	for i := 0; i < nq; i++ {
		// eps at a neighbour's distance, so the inclusive boundary and
		// its ties are on the path.
		nbs := bruteforce.SearchOneK(queries.Row(i), db, 5, m, nil)
		eps := nbs[len(nbs)-1].Dist
		want, st := gen.Range(queries.Row(i), eps)
		got, gst := idx.Range(queries.Row(i), eps)
		assertBitEqual(t, fmt.Sprintf("query %d Exact.Range vs generic", i), got, want)
		if gst != st {
			t.Fatalf("query %d: Exact.Range stats %+v, generic %+v", i, gst, st)
		}
	}
}
