package bruteforce

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// quantTieRich builds a dataset on a coarse half-integer grid with ~20%
// duplicated rows — the adversarial tie regime for the two-pass scan's
// candidate heap boundary. Mirrors the equivalence-harness generator.
func quantTieRich(rng *rand.Rand, n, dim int) *vec.Dataset {
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			copy(row, d.Row(rng.Intn(i)))
		} else {
			for j := range row {
				row[j] = float32(rng.Intn(17)-8) * 0.5
			}
		}
		d.Append(row)
	}
	return d
}

func neighborsBitEqual(a, b []par.Neighbor) bool {
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

// distancesBitEqual checks the ordering-tie grade: the reported distance
// at every rank is bit-identical, with id substitution allowed inside
// exact-tie classes.
func distancesBitEqual(a, b []par.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// TestSearchKQuantizedMatchesExactRandom: on tie-free random data the
// two-pass scan must reproduce SearchK bit for bit — ids, ordering and
// reported distance bits.
func TestSearchKQuantizedMatchesExactRandom(t *testing.T) {
	m := metric.Euclidean{}
	for _, dim := range []int{1, 3, 17, 64} {
		rng := rand.New(rand.NewSource(int64(100 + dim)))
		db := randomDataset(rng, 900, dim)
		queries := randomDataset(rng, 25, dim)
		for _, k := range []int{1, 3, 10} {
			want := SearchK(queries, db, k, m, nil)
			got := SearchKQuantized(queries, db, k, m, nil)
			for i := range want {
				if !neighborsBitEqual(got[i], want[i]) {
					t.Fatalf("dim=%d k=%d query %d:\n got %v\nwant %v", dim, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchKQuantizedTieRich: on the adversarial tie grid the reported
// distances must still match SearchK bit for bit at every rank (ids may
// legally swap inside exact-tie classes when the quantized candidate pass
// truncates a duplicate class at the over-fetch boundary).
func TestSearchKQuantizedTieRich(t *testing.T) {
	m := metric.Euclidean{}
	for _, dim := range []int{1, 3, 17, 64} {
		rng := rand.New(rand.NewSource(int64(200 + dim)))
		db := quantTieRich(rng, 1000, dim)
		queries := quantTieRich(rng, 20, dim)
		// Plant exact self-queries so the zero-distance tie class is hit.
		copy(queries.Row(0), db.Row(rng.Intn(db.N())))
		for _, k := range []int{1, 3, 10} {
			want := SearchK(queries, db, k, m, nil)
			got := SearchKQuantized(queries, db, k, m, nil)
			for i := range want {
				if !distancesBitEqual(got[i], want[i]) {
					t.Fatalf("dim=%d k=%d query %d: distance multiset diverged\n got %v\nwant %v",
						dim, k, i, got[i], want[i])
				}
				for j, nb := range got[i] {
					if d := m.Distance(queries.Row(i), db.Row(nb.ID)); d != nb.Dist {
						t.Fatalf("dim=%d k=%d query %d rank %d: id %d does not achieve reported distance (%v vs %v)",
							dim, k, i, j, nb.ID, nb.Dist, d)
					}
				}
			}
		}
	}
}

// TestSearchKQuantizedExactWhenOverfetchCoversN: whenever k' ≥ n the
// candidate pass keeps every row and the result is exact by construction
// — even on data crafted to maximize quantization error.
func TestSearchKQuantizedExactWhenOverfetchCoversN(t *testing.T) {
	m := metric.Euclidean{}
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 5, 33} {
		db := vec.New(dim, 40)
		row := make([]float32, dim)
		for i := 0; i < 40; i++ {
			for j := range row {
				// Huge magnitude spread: quantization noise dwarfs many gaps.
				row[j] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(9)-4)))
			}
			db.Append(row)
		}
		queries := db
		if kp := quantPassK(1, db.N()); kp < db.N() {
			t.Fatalf("dim=%d: expected full coverage, kp=%d n=%d", dim, kp, db.N())
		}
		for _, k := range []int{1, 4, 45} {
			want := SearchK(queries, db, k, m, nil)
			got := SearchKQuantized(queries, db, k, m, nil)
			for i := range want {
				if !neighborsBitEqual(got[i], want[i]) {
					t.Fatalf("dim=%d k=%d query %d:\n got %v\nwant %v", dim, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchKQuantizedRecallAtK: recall@k of the two-pass scan is 1.0 on
// the fuzz-style corpora — every reported rank carries the true k-NN
// distance (the standard tie-aware recall definition).
func TestSearchKQuantizedRecallAtK(t *testing.T) {
	m := metric.Euclidean{}
	total, hit := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := []int{1, 3, 17, 64}[rng.Intn(4)]
		db := quantTieRich(rng, 200+rng.Intn(800), dim)
		queries := quantTieRich(rng, 10, dim)
		k := 1 + rng.Intn(10)
		want := SearchK(queries, db, k, m, nil)
		got := SearchKQuantized(queries, db, k, m, nil)
		for i := range want {
			for j := range want[i] {
				total++
				if j < len(got[i]) && got[i][j].Dist == want[i][j].Dist {
					hit++
				}
			}
		}
	}
	if total == 0 || hit != total {
		t.Fatalf("recall@k = %d/%d, want 1.0", hit, total)
	}
}

// TestSearchQuantizedMatchesSearch: the 1-NN form of the two-pass scan
// reproduces the exact batch Search bit for bit on tie-free data.
func TestSearchQuantizedMatchesSearch(t *testing.T) {
	m := metric.Euclidean{}
	rng := rand.New(rand.NewSource(11))
	db := randomDataset(rng, 700, 9)
	queries := randomDataset(rng, 30, 9)
	want := Search(queries, db, m, nil)
	got := SearchKQuantized(queries, db, 1, m, nil)
	for i := range want {
		if len(got[i]) != 1 || got[i][0] != want[i] {
			t.Fatalf("query %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestSearchKQuantizedEdgeCases(t *testing.T) {
	m := metric.Euclidean{}
	var empty vec.Dataset
	rng := rand.New(rand.NewSource(13))
	db := randomDataset(rng, 10, 4)
	queries := randomDataset(rng, 3, 4)

	if got := SearchKQuantized(&empty, db, 3, m, nil); len(got) != 0 {
		t.Fatalf("empty queries: %v", got)
	}
	got := SearchKQuantized(queries, &vec.Dataset{Dim: 4}, 3, m, nil)
	if len(got) != 3 || got[0] != nil {
		t.Fatalf("empty db: %v", got)
	}
	if got := SearchKQuantized(queries, db, 0, m, nil); len(got) != 3 || got[0] != nil {
		t.Fatalf("k=0: %v", got)
	}
	// k > n clamps.
	full := SearchKQuantized(queries, db, 25, m, nil)
	for i, ns := range full {
		if len(ns) != db.N() {
			t.Fatalf("query %d: k>n returned %d neighbors, want %d", i, len(ns), db.N())
		}
	}
}

func TestSearchKQuantizedViewMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := randomDataset(rng, 50, 4)
	other := randomDataset(rng, 40, 4)
	v := metric.NewQuantizedView(other.Data, other.Dim)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on view/db mismatch")
		}
	}()
	SearchKQuantizedView(randomDataset(rng, 1, 4), db, 1, v, metric.Euclidean{}, nil)
}

func TestSearchKQuantizedCountsEvaluations(t *testing.T) {
	m := metric.Euclidean{}
	rng := rand.New(rand.NewSource(19))
	db := randomDataset(rng, 500, 6)
	queries := randomDataset(rng, 4, 6)
	k := 2
	var c Counter
	SearchKQuantized(queries, db, k, m, &c)
	kp := quantPassK(k, db.N())
	want := int64(queries.N() * (db.N() + kp))
	if c.Load() != want {
		t.Fatalf("evals=%d, want %d (n=%d + kp=%d per query)", c.Load(), want, db.N(), kp)
	}
}

// TestQuantizedTwoPassFasterSmoke pins the end-to-end claim on the CI
// box: at n=100k/dim=64 the two-pass quantized k-NN scan beats the exact
// SearchK (measured ≈ 1.7×). Gated on RBC_BENCH_SMOKE like the other
// smokes because wall-clock ratios are meaningless on loaded shared
// machines.
func TestQuantizedTwoPassFasterSmoke(t *testing.T) {
	if os.Getenv("RBC_BENCH_SMOKE") == "" {
		t.Skip("set RBC_BENCH_SMOKE=1 to run wall-clock smoke tests")
	}
	const n, dim, nq, k = 100_000, 64, 16, 10
	rng := rand.New(rand.NewSource(29))
	db := randomDataset(rng, n, dim)
	queries := randomDataset(rng, nq, dim)
	m := metric.Euclidean{}
	v := metric.NewQuantizedView(db.Data, db.Dim)

	best := func(f func()) time.Duration {
		b := time.Duration(math.MaxInt64)
		for r := 0; r < 5; r++ {
			start := time.Now()
			f()
			if el := time.Since(start); el < b {
				b = el
			}
		}
		return b
	}
	exact := best(func() { SearchK(queries, db, k, m, nil) })
	quant := best(func() { SearchKQuantizedView(queries, db, k, v, m, nil) })
	ratio := float64(exact) / float64(quant)
	t.Logf("n=%d dim=%d k=%d: exact=%v quantized=%v ratio=%.2f", n, dim, k, exact, quant, ratio)
	if ratio <= 1 {
		t.Fatalf("two-pass quantized scan not faster: exact=%v quantized=%v ratio=%.2f", exact, quant, ratio)
	}
}

func BenchmarkSearchKQuantized100k(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	db := randomDataset(rng, 100_000, 64)
	queries := randomDataset(rng, 8, 64)
	m := metric.Euclidean{}
	v := metric.NewQuantizedView(db.Data, db.Dim)
	b.SetBytes(int64(queries.N()) * int64(v.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SearchKQuantizedView(queries, db, 10, v, m, nil)
	}
}

func BenchmarkSearchKExact100k(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	db := randomDataset(rng, 100_000, 64)
	queries := randomDataset(rng, 8, 64)
	m := metric.Euclidean{}
	b.SetBytes(int64(queries.N()) * int64(db.N()) * int64(db.Dim) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SearchK(queries, db, 10, m, nil)
	}
}
