package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metric"
	"repro/internal/par"
)

// Tests for the tiled batch front halves: the BF(Q,R) phase of Exact and
// OneShot batch search must route through the tiled kernels, match the
// per-query path bit for bit, and stay free of per-query allocations.

func TestExactBatchGoesThroughTiledKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := randomDataset(rng, 900, 6)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 3, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 64, 6)
	before := metric.TileInvocations()
	e.Search(queries)
	if metric.TileInvocations() == before {
		t.Fatal("Exact.Search performed no tiled kernel invocations")
	}
	before = metric.TileInvocations()
	e.SearchK(queries, 3)
	if metric.TileInvocations() == before {
		t.Fatal("Exact.SearchK performed no tiled kernel invocations")
	}
}

func TestOneShotBatchGoesThroughTiledKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := randomDataset(rng, 900, 6)
	o, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 64, 6)
	before := metric.TileInvocations()
	o.Search(queries)
	if metric.TileInvocations() == before {
		t.Fatal("OneShot.Search performed no tiled kernel invocations")
	}
}

// TestPhase1RowMatchesFrontHalf pins what lets one kernel serve both
// phases of Exact: a single query's phase-1 row (phase1 with no batched
// row: the row kernel over repData) equals that query's row of the
// batched tileFrontHalf bit for bit — over every lane remainder of dims
// 1…67, representative counts that are not multiples of the tile width or
// of the four-row body, and a query block that ends on an odd query.
func TestPhase1RowMatchesFrontHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	for dim := 1; dim <= 67; dim++ {
		_, tp := metric.TileShape(dim)
		for _, nr := range []int{1, 7, tp + 5} {
			db := randomDataset(rng, nr+20, dim)
			e, err := BuildExact(db, metric.Euclidean{}, ExactParams{NumReps: nr, ExactCount: true, Seed: int64(dim)})
			if err != nil {
				t.Fatal(err)
			}
			if e.NumReps() != nr {
				t.Fatalf("dim=%d: %d reps, want %d", dim, e.NumReps(), nr)
			}
			queries := randomDataset(rng, 11, dim)
			rows := make([]float64, queries.N()*nr)
			tileFrontHalf(e.ker, queries, e.repData,
				func(q0, q1 int, tile []float64, _ *par.Scratch, _ *metric.TileScratch) Stats {
					copy(rows[q0*nr:q1*nr], tile)
					return Stats{}
				})
			for i := 0; i < queries.N(); i++ {
				row := e.phase1(queries.Row(i), nil, sc)
				for j, o := range row {
					if want := rows[i*nr+j]; math.Float64bits(o) != math.Float64bits(want) {
						t.Fatalf("dim=%d nr=%d q=%d rep=%d: row %v, front half %v", dim, nr, i, j, o, want)
					}
				}
			}
		}
	}
}

// TestOneShotSearchBatchMatchesOne mirrors TestExactSearchBatch: the tiled
// batch front half must agree with the per-query path bit for bit.
func TestOneShotSearchBatchMatchesOne(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := clusteredDataset(rng, 700, 5, 8)
	for _, probes := range []int{1, 3} {
		o, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{Seed: 9, Probes: probes})
		if err != nil {
			t.Fatal(err)
		}
		queries := randomDataset(rng, 40, 5)
		batch, st := o.Search(queries)
		if st.RepEvals != int64(queries.N()*o.NumReps()) {
			t.Fatalf("RepEvals=%d, want %d", st.RepEvals, queries.N()*o.NumReps())
		}
		for i := 0; i < queries.N(); i++ {
			one, _ := o.One(queries.Row(i))
			if batch[i] != one {
				t.Fatalf("probes=%d batch[%d]=%+v, One=%+v", probes, i, batch[i], one)
			}
		}
		batchK, _ := o.SearchK(queries, 4)
		for i := 0; i < queries.N(); i++ {
			oneK, _ := o.KNN(queries.Row(i), 4)
			if len(batchK[i]) != len(oneK) {
				t.Fatalf("probes=%d: batchK[%d] has %d results, KNN %d", probes, i, len(batchK[i]), len(oneK))
			}
			for j := range oneK {
				if batchK[i][j] != oneK[j] {
					t.Fatalf("probes=%d batchK[%d][%d]=%+v, KNN %+v", probes, i, j, batchK[i][j], oneK[j])
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go; the race runtime allocates on its
// own, so the allocation guards only run in normal builds.
var raceEnabled bool

// Allocation regression guards (-benchmem equivalent): per-query work must
// come from pooled scratch. KNN may allocate only the returned slice (plus
// Results' sort bookkeeping); batch Search must stay amortized zero.
func TestSearchAllocGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(25))
	db := clusteredDataset(rng, 2000, 8, 10)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 7, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildOneShot(db, m, OneShotParams{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := db.Row(42)
	queries := db.Subset(seqInts(0, 128))

	e.One(q) // warm pools
	if allocs := testing.AllocsPerRun(20, func() { e.One(q) }); allocs > 2 {
		t.Fatalf("Exact.One allocates %.1f per query, want ~0", allocs)
	}
	e.KNN(q, 5)
	if allocs := testing.AllocsPerRun(20, func() { e.KNN(q, 5) }); allocs > 3 {
		t.Fatalf("Exact.KNN allocates %.1f per query, want only the result slice", allocs)
	}
	o.One(q)
	if allocs := testing.AllocsPerRun(20, func() { o.One(q) }); allocs > 2 {
		t.Fatalf("OneShot.One allocates %.1f per query, want ~0", allocs)
	}
	o.KNN(q, 5)
	if allocs := testing.AllocsPerRun(20, func() { o.KNN(q, 5) }); allocs > 3 {
		t.Fatalf("OneShot.KNN allocates %.1f per query, want only the result slice", allocs)
	}

	e.Search(queries)
	if allocs := testing.AllocsPerRun(5, func() { e.Search(queries) }); allocs > float64(queries.N())/4 {
		t.Fatalf("Exact.Search allocates %.0f for %d queries, want amortized zero", allocs, queries.N())
	}
	o.Search(queries)
	if allocs := testing.AllocsPerRun(5, func() { o.Search(queries) }); allocs > float64(queries.N())/4 {
		t.Fatalf("OneShot.Search allocates %.0f for %d queries, want amortized zero", allocs, queries.N())
	}
}
