package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/covertree"
	"repro/internal/distributed"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Cross-backend equivalence harness: every backend must agree with the
// brute-force reference over randomized tie-rich datasets (duplicates,
// quantized coordinates, degenerate sizes), and every KNNBatch must be
// bit-identical to its own per-query KNN.
//
// Three comparison grades exist, strongest applicable wins:
//
//   - BIT-FOR-BIT (same ids, same distance bits, same order): every
//     backend's KNNBatch against its own per-query KNN; bruteforce and
//     OneShot-at-S=n against the reference (their scans see every point,
//     so (dist, id) selection is total); core.Exact against the
//     reference (every pruning rule is strict, so no list holding a point
//     at exactly γ_k is pruned and every tied id is seen); and the
//     windowed distributed cluster against the single-node core.Exact
//     built with the same parameters (windows change work done, never
//     results — the shard-side window contract).
//   - ORDERING-TIE RULE (distance bits pinned position by position, ids
//     free within an equal-distance class but verified to achieve the
//     class distance, no duplicates): the quantized two-pass scan. Exact
//     rescoring makes its reported distances bit-true, but the candidate
//     heap may truncate a duplicate class at the over-fetch boundary.
//   - ULP-TOLERANT tie rule: the cover tree, table3's comparison. It
//     reports exact-grade distances but documents no tie-breaking
//     contract; distances must match within tolerance and ids must match
//     exactly wherever the reference is unambiguous (strictly inside the
//     k-boundary tie band).

// equivalenceCorpus is the checked-in fuzz seed corpus. `go test` runs
// every entry deterministically (both through the corpus test below and
// as FuzzSearchEquivalence's seed inputs), so CI fails reproducibly on
// any regression. Selectors map onto dims {1,3,17,64}, n {0,1,37,1000},
// k {1,3,n+5}, the metrics of equivalenceMetrics and the grid steps of
// equivalenceSteps.
var equivalenceCorpus = []struct {
	seed                                   int64
	dimSel, nSel, kSel, metricSel, stepSel uint8
}{
	{1, 0, 0, 0, 0, 0},
	{2, 1, 1, 1, 0, 0},
	{3, 2, 2, 2, 0, 0},
	{4, 3, 3, 0, 0, 0},
	{5, 3, 2, 1, 0, 0},
	{6, 2, 3, 2, 0, 0},
	{7, 1, 2, 0, 0, 0},
	{8, 0, 3, 1, 0, 0},
	{9, 2, 2, 0, 0, 0},
	{10, 3, 1, 2, 0, 0},
	{11, 0, 2, 2, 0, 0},
	{12, 1, 3, 1, 0, 0},
	{13, 2, 0, 1, 0, 0},
	{14, 3, 2, 2, 0, 0},
	// Seeds 15–20 re-cover the selector grid for the cluster checks.
	{15, 0, 2, 1, 0, 0},
	{16, 1, 2, 2, 0, 0},
	{17, 2, 3, 0, 0, 0},
	{18, 3, 3, 2, 0, 0},
	{19, 2, 2, 1, 0, 0},
	{20, 1, 1, 0, 0, 0},
	// Seeds 21–40 run every metric at both grid steps, at k = 1 and
	// k = 3. The fine step puts every distance below 1, where a
	// Euclidean-only ordering prefilter (o > t·t) answers the other
	// metrics wrongly.
	{21, 2, 3, 0, 0, 1},
	{22, 1, 2, 1, 0, 1},
	{23, 2, 3, 0, 1, 0},
	{24, 1, 2, 1, 1, 0},
	{25, 2, 3, 0, 1, 1},
	{26, 3, 2, 1, 1, 1},
	{27, 2, 3, 0, 2, 0},
	{28, 1, 2, 1, 2, 0},
	{29, 2, 3, 0, 2, 1},
	{30, 3, 2, 1, 2, 1},
	{31, 2, 3, 0, 3, 0},
	{32, 1, 2, 1, 3, 0},
	{33, 2, 3, 0, 3, 1},
	{34, 3, 2, 1, 3, 1},
	{35, 2, 3, 0, 4, 0},
	{36, 1, 2, 1, 4, 0},
	{37, 2, 3, 0, 4, 1},
	{38, 3, 2, 1, 4, 1},
	{39, 1, 3, 1, 1, 1},
	{40, 3, 3, 0, 3, 1},
}

// equivalenceMetrics are the metrics the corpus selects from: the
// squared-ordering Euclidean, three identity orderings and one
// math.Pow-based ordering.
var equivalenceMetrics = []metric.Metric[[]float32]{
	metric.Euclidean{}, metric.Manhattan{}, metric.Chebyshev{}, metric.NewMinkowski(3), metric.Angular{},
}

// equivalenceSteps are the grid steps the corpus selects from. Both are
// powers of two, so scaling keeps every tie of the half-integer grid.
var equivalenceSteps = []float32{0.5, 1.0 / 128}

func equivalenceMetric(sel uint8) metric.Metric[[]float32] {
	return equivalenceMetrics[int(sel)%len(equivalenceMetrics)]
}

func FuzzSearchEquivalence(f *testing.F) {
	for _, c := range equivalenceCorpus {
		f.Add(c.seed, c.dimSel, c.nSel, c.kSel, c.metricSel, c.stepSel)
	}
	f.Fuzz(func(t *testing.T, seed int64, dimSel, nSel, kSel, metricSel, stepSel uint8) {
		checkEquivalence(t, seed, dimSel, nSel, kSel, metricSel, stepSel)
	})
}

// TestSearchEquivalenceCorpus runs the seed corpus as plain subtests, so
// the matrix is visible (and individually addressable) in -v output.
func TestSearchEquivalenceCorpus(t *testing.T) {
	for _, c := range equivalenceCorpus {
		c := c
		t.Run(equivalenceName(c.seed, c.dimSel, c.nSel, c.kSel, c.metricSel, c.stepSel), func(t *testing.T) {
			checkEquivalence(t, c.seed, c.dimSel, c.nSel, c.kSel, c.metricSel, c.stepSel)
		})
	}
}

// equivalenceName names a corpus entry's subtest. Entries on the
// original Euclidean half-integer grid keep their original names.
func equivalenceName(seed int64, dimSel, nSel, kSel, metricSel, stepSel uint8) string {
	name := fmt.Sprintf("seed=%d/dim=%d/n=%d/k=%d", seed, dimSel, nSel, kSel)
	if metricSel != 0 || stepSel != 0 {
		name += fmt.Sprintf("/%s/step=%g", equivalenceMetric(metricSel).Name(), equivalenceSteps[int(stepSel)%len(equivalenceSteps)])
	}
	return name
}

// tieRich builds a dataset on a coarse half-integer grid with ~20%
// duplicated rows, so equal distances (and equal coordinates) are the
// norm rather than the exception.
func tieRich(rng *rand.Rand, n, dim int) *vec.Dataset {
	return tieRichStep(rng, n, dim, 0.5)
}

// tieRichStep is tieRich on a grid of the given step.
func tieRichStep(rng *rand.Rand, n, dim int, step float32) *vec.Dataset {
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			d.Append(d.Row(rng.Intn(i)))
			continue
		}
		for j := range row {
			row[j] = float32(rng.Intn(17)-8) * step
		}
		d.Append(row)
	}
	return d
}

// equivalenceInputs materializes one corpus entry: the tie-rich database,
// its query block and k.
func equivalenceInputs(seed int64, dimSel, nSel, kSel, stepSel uint8) (db, queries *vec.Dataset, k int) {
	dim := []int{1, 3, 17, 64}[int(dimSel)%4]
	n := []int{0, 1, 37, 1000}[int(nSel)%4]
	k = [3]int{1, 3, n + 5}[int(kSel)%3]
	step := equivalenceSteps[int(stepSel)%len(equivalenceSteps)]
	rng := rand.New(rand.NewSource(seed))
	db = tieRichStep(rng, n, dim, step)
	queries = tieRichStep(rng, 12, dim, step)
	if n > 0 {
		// Plant exact self-queries: zero distances stress tie handling.
		copy(queries.Row(0), db.Row(rng.Intn(n)))
		copy(queries.Row(1), db.Row(rng.Intn(n)))
	}
	return db, queries, k
}

func checkEquivalence(t *testing.T, seed int64, dimSel, nSel, kSel, metricSel, stepSel uint8) {
	db, queries, k := equivalenceInputs(seed, dimSel, nSel, kSel, stepSel)
	n, nq := db.N(), queries.N()
	m := equivalenceMetric(metricSel)
	_, euclid := m.(metric.Euclidean)

	want := make([][]par.Neighbor, nq)
	for i := 0; i < nq; i++ {
		want[i] = bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
	}

	// The quantized two-pass scan rescores survivors with the exact
	// kernel, so its reported distances are bit-true against the
	// reference at every rank; ids fall under the ordering-tie rule.
	// The scan's codes are Euclidean-only.
	if euclid {
		quant := bruteforce.SearchKQuantized(queries, db, k, m, nil)
		for i := 0; i < nq; i++ {
			assertOrderingTie(t, fmt.Sprintf("quantized two-pass query %d vs reference", i), quant[i], want[i], queries.Row(i), db, m)
		}
	}

	// Assemble backends. Index builds reject empty databases — that IS
	// the n=0 contract — so only the index-free backends run there.
	exactBits := map[string]backend{
		"bruteforce": bruteForceBackend(db, m, k),
	}
	var exactIdx *core.Exact
	if n > 0 {
		var err error
		exactIdx, err = core.BuildExact(db, m, core.ExactParams{Seed: seed})
		if err != nil {
			t.Fatalf("BuildExact: %v", err)
		}
		exactBits["exact"] = indexBackend(exactIdx.KNN, exactIdx.KNNBatch, k)
		// One-shot is approximate in general, but with S = n every
		// ownership list holds the whole database, so any probed list
		// yields the exact answer through the same ordering-space
		// pipeline — a configuration in which it must match bit-for-bit.
		oneshot, err := core.BuildOneShot(db, m, core.OneShotParams{Seed: seed, S: n})
		if err != nil {
			t.Fatalf("BuildOneShot: %v", err)
		}
		exactBits["oneshot-full"] = indexBackend(oneshot.KNN, oneshot.KNNBatch, k)
	} else {
		if _, err := core.BuildExact(db, m, core.ExactParams{Seed: seed}); err == nil {
			t.Fatal("BuildExact accepted an empty database")
		}
	}
	tree := coverTreeBackend(covertree.Build(db.Rows(), m), k)

	for name, b := range exactBits {
		batch, _ := b.batch(queries)
		for i := 0; i < nq; i++ {
			assertBitEqual(t, fmt.Sprintf("%s query %d vs reference", name, i), batch[i], want[i])
			assertBitEqual(t, fmt.Sprintf("%s query %d batch vs per-query", name, i), batch[i], b.knn(queries.Row(i)))
		}
	}
	treeBatch, _ := tree.batch(queries)
	for i := 0; i < nq; i++ {
		assertTieEquivalent(t, fmt.Sprintf("covertree query %d vs reference", i), treeBatch[i], want[i])
		assertBitEqual(t, fmt.Sprintf("covertree query %d batch vs per-query", i), treeBatch[i], tree.knn(queries.Row(i)))
	}

	// Exact range search must return brute force's hits bit for bit, at
	// an eps on a neighbour's distance so the inclusive boundary and its
	// ties are on the path, and RangeBatch must match Range.
	if n > 0 {
		eps := make([]float64, nq)
		for i := range eps {
			eps[i] = want[i][len(want[i])-1].Dist
		}
		for i := 0; i < nq; i++ {
			got, _ := exactIdx.Range(queries.Row(i), eps[i])
			ref := bruteforce.RangeSearch(queries.Row(i), db, eps[i], m, nil)
			assertBitEqual(t, fmt.Sprintf("exact range query %d (eps %v) vs reference", i, eps[i]), got, ref)
			block, _ := exactIdx.RangeBatch(vec.FromFlat(queries.Row(i), db.Dim), eps[i])
			assertBitEqual(t, fmt.Sprintf("exact range query %d batch vs per-query", i), block[0], got)
		}
	}

	// The distributed cluster must match the single-node exact index
	// BIT-FOR-BIT — same parameters, same reported distance bits, same
	// ids at razor ties (the tiled shard-scan contract): its
	// per-(query, segment) admissible windows clip work, never answers.
	if n > 0 {
		shards := 1 + int(seed&3)
		cl, err := distributed.Build(db, m, core.ExactParams{Seed: seed}, shards, distributed.DefaultCostModel())
		if err != nil {
			t.Fatalf("distributed.Build: %v", err)
		}
		defer cl.Close()
		got, _, _ := cl.KNNBatch(queries, k)
		wantIdx, _ := exactIdx.KNNBatch(queries, k)
		for i := 0; i < nq; i++ {
			assertBitEqual(t, fmt.Sprintf("cluster(shards=%d) query %d vs core.Exact", shards, i), got[i], wantIdx[i])
			one, _, _ := cl.KNN(queries.Row(i), k)
			assertBitEqual(t, fmt.Sprintf("cluster(shards=%d) query %d batch vs per-query", shards, i), got[i], one)
		}
	}
}

func assertBitEqual(t *testing.T, label string, got, want []par.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for p := range want {
		if got[p] != want[p] {
			t.Fatalf("%s pos %d: %+v want %+v (bit-for-bit)", label, p, got[p], want[p])
		}
	}
}

// assertOrderingTie pins the distance sequence bitwise against the
// reference and verifies the ids: no duplicates, and every id whose
// position disagrees with the reference must genuinely achieve its
// position's distance (recomputed with the reference arithmetic). This
// is the ordering-tie rule of the quantized two-pass scan: its candidate
// heap can truncate an equal-distance class at the over-fetch boundary,
// so a boundary tie may legitimately surface a different member.
func assertOrderingTie(t *testing.T, label string, got, want []par.Neighbor, q []float32, db *vec.Dataset, m metric.Metric[[]float32]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	ker := metric.NewKernel(m)
	seen := make(map[int]bool, len(got))
	var ord [1]float64
	for p := range want {
		if got[p].Dist != want[p].Dist {
			t.Fatalf("%s pos %d: dist %v, want %v (distance multiset must match bitwise)", label, p, got[p].Dist, want[p].Dist)
		}
		if seen[got[p].ID] {
			t.Fatalf("%s pos %d: duplicate id %d", label, p, got[p].ID)
		}
		seen[got[p].ID] = true
		if got[p].ID == want[p].ID {
			continue
		}
		if got[p].ID < 0 || got[p].ID >= db.N() {
			t.Fatalf("%s pos %d: id %d out of range", label, p, got[p].ID)
		}
		ker.Ordering(q, db.Row(got[p].ID), db.Dim, ord[:])
		if d := ker.ToDistance(ord[0]); d != got[p].Dist {
			t.Fatalf("%s pos %d: id %d is at distance %v, not the reported %v — invalid tie substitution",
				label, p, got[p].ID, d, got[p].Dist)
		}
	}
}

// assertTieEquivalent applies the ordering-tie rule with tolerance:
// distances agree within relTol position by position, and ids agree
// exactly outside the k-boundary tie band (entries whose reference
// distance is strictly below the k-th distance minus tolerance must
// appear on both sides; inside the band, ulp drift may legitimately
// reorder razor ties).
func assertTieEquivalent(t *testing.T, label string, got, want []par.Neighbor) {
	t.Helper()
	const relTol = 1e-9
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	tol := relTol * math.Max(1, want[len(want)-1].Dist)
	for p := range want {
		if math.Abs(got[p].Dist-want[p].Dist) > tol {
			t.Fatalf("%s pos %d: dist %v, want %v (beyond tolerance %g)", label, p, got[p].Dist, want[p].Dist, tol)
		}
	}
	cut := want[len(want)-1].Dist - tol
	gotIDs := make(map[int]bool, len(got))
	wantIDs := make(map[int]bool, len(want))
	for _, nb := range got {
		gotIDs[nb.ID] = true
	}
	for _, nb := range want {
		wantIDs[nb.ID] = true
	}
	for _, nb := range want {
		if nb.Dist < cut && !gotIDs[nb.ID] {
			t.Fatalf("%s: unambiguous neighbor id %d (dist %v) missing", label, nb.ID, nb.Dist)
		}
	}
	for _, nb := range got {
		if nb.Dist < cut && !wantIDs[nb.ID] {
			t.Fatalf("%s: spurious unambiguous neighbor id %d (dist %v)", label, nb.ID, nb.Dist)
		}
	}
}
