package distributed

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Tests for the shard-side admissible windows (see the package
// comment): cluster answers must be bit-identical to brute force, to
// per-query calls and to the single-node core.Exact index; PointEvals
// must never exceed the total length of the routed segments (eval
// monotonicity against a whole-segment scan); work accounting must stay
// in exact batch-vs-per-query parity; and the hot path must stay free of
// per-pair m.Distance calls.

// routedSegmentEvals is the PointEvals a block would cost if every routed
// (query, segment) pair scanned its whole segment: the total length of
// the segments plan routes the block to.
func routedSegmentEvals(c *Cluster, queries *vec.Dataset, k int) int64 {
	var met QueryMetrics
	_, _, batches := c.plan(queries, k, &met)
	var total int64
	for sid, sb := range batches {
		off := c.shards[sid].offsets
		for _, seg := range sb.segs {
			total += int64(off[seg+1] - off[seg])
		}
	}
	return total
}

// tieRichDB builds a dataset on a coarse half-integer grid with ~20%
// duplicated rows, matching the equivalence harness's corpus shape, so
// boundary ties are the norm.
func tieRichDB(rng *rand.Rand, n, dim int) *vec.Dataset {
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			d.Append(d.Row(rng.Intn(i)))
			continue
		}
		for j := range row {
			row[j] = float32(rng.Intn(17)-8) * 0.5
		}
		d.Append(row)
	}
	return d
}

// Windowed cluster answers must be bit-identical to the full brute-force
// scan AND to the single-node core.Exact index — the acceptance bar for
// the windowed scans.
func TestWindowedBitIdenticalToFullScanAndExact(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	db := clustered(rng, 1800, 7, 9)
	m := metric.Euclidean{}
	prm := core.ExactParams{Seed: 409}
	exact, err := core.BuildExact(db, m, prm)
	if err != nil {
		t.Fatal(err)
	}
	queries := clustered(rand.New(rand.NewSource(419)), 50, 7, 9)
	for _, shards := range []int{1, 5} {
		cl, err := Build(db, m, prm, shards, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 11} {
			got, _, _ := cl.KNNBatch(queries, k)
			wantExact, _ := exact.KNNBatch(queries, k)
			for i := 0; i < queries.N(); i++ {
				want := bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
				if len(got[i]) != len(want) || len(wantExact[i]) != len(want) {
					t.Fatalf("shards=%d k=%d query %d: %d results, core.Exact %d, want %d",
						shards, k, i, len(got[i]), len(wantExact[i]), len(want))
				}
				for p := range want {
					if got[i][p] != want[p] {
						t.Fatalf("shards=%d k=%d query %d pos %d: windowed %+v, full scan %+v",
							shards, k, i, p, got[i][p], want[p])
					}
					if got[i][p] != wantExact[i][p] {
						t.Fatalf("shards=%d k=%d query %d pos %d: windowed %+v, core.Exact %+v",
							shards, k, i, p, got[i][p], wantExact[i][p])
					}
				}
			}
		}
		cl.Close()
	}
}

// offHomeProbes counts the (query, shard) requests of a planned block
// whose local home is not the query's nearest representative: every
// entry the shard receives for the query lies strictly farther than the
// query's nearest routed representative (which always survives pruning).
func offHomeProbes(c *Cluster, queries *vec.Dataset, k int) int {
	_, _, batches := c.plan(queries, k, &QueryMetrics{})
	nearest := make([]float64, queries.N())
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	local := make([][]float64, len(batches))
	for sid, sb := range batches {
		start := 0
		for t, qi := range sb.qidx {
			m := math.Inf(1)
			for _, d := range sb.dists[start:sb.ends[t]] {
				m = min(m, d)
			}
			local[sid] = append(local[sid], m)
			nearest[qi] = min(nearest[qi], m)
			start = sb.ends[t]
		}
	}
	off := 0
	for sid, sb := range batches {
		for t, qi := range sb.qidx {
			if local[sid][t] > nearest[qi] {
				off++
			}
		}
	}
	return off
}

// The shard-side home probe must stay exact where the probing shard does
// not own the query's nearest representative: its local home is then
// some other routed segment, and the bound it tightens to comes from
// there. On tie-rich and clustered corpora at 1, 2 and 4 shards, cluster
// answers must equal core.Exact's and brute force's bit for bit, ids
// included; KNNBatch must equal per-query KNN in answers and in every
// per-query counter (ShardsContacted, Messages and SimTimeUS are what
// batching amortizes, so they are left out); and PointEvals must stay
// within the routed segments' total length.
func TestShardProbeOffHomeEquivalence(t *testing.T) {
	m := metric.Euclidean{}
	for _, c := range []struct {
		name    string
		tieRich bool
		seed    int64
	}{{"tieRich", true, 811}, {"clustered", false, 821}} {
		rng := rand.New(rand.NewSource(c.seed))
		var db, queries *vec.Dataset
		if c.tieRich {
			// Dim 2 puts answers on window edges often enough that a
			// window clipped even 0.1 % too tight returns a wrong id.
			db, queries = tieRichDB(rng, 1500, 2), tieRichDB(rng, 40, 2)
		} else {
			db, queries = clustered(rng, 1500, 6, 9), clustered(rand.New(rand.NewSource(c.seed+1)), 40, 6, 9)
		}
		prm := core.ExactParams{Seed: c.seed}
		exact, err := core.BuildExact(db, m, prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			cl, err := Build(db, m, prm, shards, DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 4, 10} {
				tag := fmt.Sprintf("%s shards=%d k=%d", c.name, shards, k)
				if off := offHomeProbes(cl, queries, k); shards > 1 && off == 0 {
					t.Fatalf("%s: no shard probed away from the query's nearest representative", tag)
				}
				got, bm, err := cl.KNNBatch(queries, k)
				if err != nil {
					t.Fatal(err)
				}
				if full := routedSegmentEvals(cl, queries, k); bm.PointEvals > full {
					t.Errorf("%s: PointEvals %d > routed segments' length %d", tag, bm.PointEvals, full)
				}
				wantExact, _ := exact.KNNBatch(queries, k)
				var pq QueryMetrics
				for i := 0; i < queries.N(); i++ {
					one, om, err := cl.KNN(queries.Row(i), k)
					if err != nil {
						t.Fatal(err)
					}
					pq.Add(om)
					want := bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
					for _, other := range [][]par.Neighbor{wantExact[i], one} {
						if len(other) != len(want) || len(got[i]) != len(want) {
							t.Fatalf("%s query %d: %d results, core.Exact/per-query %d, want %d",
								tag, i, len(got[i]), len(other), len(want))
						}
					}
					for p := range want {
						if got[i][p] != want[p] || wantExact[i][p] != want[p] || one[p] != want[p] {
							t.Fatalf("%s query %d pos %d: batch %+v, per-query %+v, core.Exact %+v, brute force %+v",
								tag, i, p, got[i][p], one[p], wantExact[i][p], want[p])
						}
					}
				}
				bm.ShardsContacted, bm.Messages, bm.SimTimeUS = 0, 0, 0
				pq.ShardsContacted, pq.Messages, pq.SimTimeUS = 0, 0, 0
				if bm != pq {
					t.Errorf("%s: batch counters %+v, per-query %+v", tag, bm, pq)
				}
			}
			cl.Close()
		}
	}
}

// Eval-monotonicity property: on every corpus entry, windowed shard
// scans must report PointEvals ≤ the routed segments' total length, one
// window per routed (query, segment) pair, RepEvals of one phase-1 scan
// per query and answers bit-identical to brute force. The corpus mixes
// clustered and tie-rich/duplicate-heavy datasets across dims, sizes and
// shard counts.
func TestWindowedEvalMonotonicity(t *testing.T) {
	corpus := []struct {
		seed      int64
		n, dim    int
		tieRich   bool
		shards, k int
	}{
		{1, 400, 3, false, 2, 1},
		{2, 1000, 6, false, 4, 5},
		{3, 1000, 1, true, 3, 3},
		{4, 700, 17, true, 5, 1},
		{5, 1500, 4, false, 6, 9},
		{6, 900, 3, true, 1, 4},
		{7, 1200, 8, false, 8, 2},
		{8, 500, 64, true, 2, 6},
	}
	for _, c := range corpus {
		rng := rand.New(rand.NewSource(c.seed))
		var db *vec.Dataset
		if c.tieRich {
			db = tieRichDB(rng, c.n, c.dim)
		} else {
			db = clustered(rng, c.n, c.dim, 8)
		}
		cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: c.seed * 31}, c.shards, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		var queries *vec.Dataset
		if c.tieRich {
			queries = tieRichDB(rng, 24, c.dim)
		} else {
			queries = clustered(rand.New(rand.NewSource(c.seed*37)), 24, c.dim, 8)
		}
		got, met, _ := cl.KNNBatch(queries, c.k)
		if full := routedSegmentEvals(cl, queries, c.k); met.PointEvals > full {
			t.Errorf("corpus %+v: windowed PointEvals %d > routed segments' length %d", c, met.PointEvals, full)
		}
		if want := int64(queries.N() * cl.repData.N()); met.RepEvals != want {
			t.Errorf("corpus %+v: RepEvals %d, want %d", c, met.RepEvals, want)
		}
		var pairs int64
		_, _, batches := cl.plan(queries, c.k, &QueryMetrics{})
		for _, sb := range batches {
			pairs += int64(len(sb.segs))
		}
		if met.Windows == 0 || met.Windows != pairs {
			t.Errorf("corpus %+v: %d windows shipped for %d routed pairs", c, met.Windows, pairs)
		}
		for i := range got {
			want := bruteforce.SearchOneK(queries.Row(i), db, c.k, metric.Euclidean{}, nil)
			for p := range want {
				if got[i][p] != want[p] {
					t.Fatalf("corpus %+v query %d pos %d: windowed %+v, brute force %+v", c, i, p, got[i][p], want[p])
				}
			}
		}
		cl.Close()
	}
}

// Work accounting on the windowed cluster must be identical between the
// batched scan and the per-query path — including the new Windows and
// EmptyWindows counters.
func TestWindowedAccountingParityBatchVsPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	db := clustered(rng, 2200, 6, 10)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 433}, 6, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(439)), 48, 6, 10)
	for _, k := range []int{1, 6} {
		batch, bm, _ := cl.KNNBatch(queries, k)
		var pq QueryMetrics
		for i := 0; i < queries.N(); i++ {
			one, m, _ := cl.KNN(queries.Row(i), k)
			pq.Add(m)
			for p := range one {
				if batch[i][p] != one[p] {
					t.Fatalf("k=%d query %d pos %d: batch %+v, per-query %+v", k, i, p, batch[i][p], one[p])
				}
			}
		}
		if bm.PointEvals != pq.PointEvals {
			t.Fatalf("k=%d: batch PointEvals %d, per-query %d", k, bm.PointEvals, pq.PointEvals)
		}
		if bm.RepEvals != pq.RepEvals {
			t.Fatalf("k=%d: batch RepEvals %d, per-query %d", k, bm.RepEvals, pq.RepEvals)
		}
		if bm.Windows != pq.Windows {
			t.Fatalf("k=%d: batch Windows %d, per-query %d", k, bm.Windows, pq.Windows)
		}
		if bm.EmptyWindows != pq.EmptyWindows {
			t.Fatalf("k=%d: batch EmptyWindows %d, per-query %d", k, bm.EmptyWindows, pq.EmptyWindows)
		}
		if bm.Evals != pq.Evals || bm.Evals != bm.RepEvals+bm.PointEvals {
			t.Fatalf("k=%d: eval totals inconsistent: batch %+v per-query %+v", k, bm, pq)
		}
		if pq.ShardsContacted <= bm.ShardsContacted {
			t.Fatalf("k=%d: no message amortization: batch %d, per-query %d", k, bm.ShardsContacted, pq.ShardsContacted)
		}
	}
}

// The windowed hot path must stay free of per-pair m.Distance calls: the
// window computation is a binary search over precomputed sorted
// distances, and the clipped scans ride the same tiled kernels.
func TestWindowedScansAvoidPerPairDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	db := clustered(rng, 1000, 8, 6)
	var calls atomic.Int64
	m := countingMetric{calls: &calls}
	cl, err := Build(db, m, core.ExactParams{Seed: 449}, 4, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(457)), 32, 8, 6)
	calls.Store(0)
	if _, met, _ := cl.KNNBatch(queries, 3); met.PointEvals == 0 || met.Windows == 0 {
		t.Fatal("windowed batch reported no shard-side work or no windows")
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("windowed query path made %d per-pair m.Distance calls, want 0", got)
	}
	got, _, _ := cl.KNN(queries.Row(0), 3)
	want := bruteforce.SearchOneK(queries.Row(0), db, 3, m, nil)
	for p := range want {
		if got[p] != want[p] {
			t.Fatalf("pos %d: %+v want %+v", p, got[p], want[p])
		}
	}
}

// An empty admissible window — the query's current k-th candidate lies
// strictly inside the gap between a surviving representative's member
// distances — must skip the segment entirely (zero point evals for it)
// while answers stay exact. The construction plants an isolated
// representative r that is NOT the query's nearest: its segment holds
// only itself (distance 0) and far members (distance ≈4), while the
// query sits at distance ≈2.5 with a k-th candidate at ≈1 — so r
// survives both pruning rules (ψ_r ≈ 4 and d ≤ 3γ) yet its admissible
// window [d−γ, d+γ] ≈ [1.5, 3.5] contains no member at all.
func TestEmptyWindowSkipsSegment(t *testing.T) {
	// dim-1 layout: a 200-point clump at 0, one isolated point at 3.5,
	// and three points near 7.5 whose nearest representative is the
	// isolated point whenever that point is sampled as a representative.
	build := func(seed int64) (*vec.Dataset, *Cluster, bool) {
		rng := rand.New(rand.NewSource(seed))
		db := vec.New(1, 204)
		for i := 0; i < 200; i++ {
			db.Append([]float32{float32(rng.NormFloat64()) * 0.05})
		}
		isoID := db.N()
		db.Append([]float32{3.5})
		for i := 0; i < 3; i++ {
			db.Append([]float32{7.5 + float32(i)*0.1})
		}
		prm := core.ExactParams{Seed: seed, NumReps: 24, ExactCount: true}
		win, err := Build(db, metric.Euclidean{}, prm, 3, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		isoIsRep := false
		farIsRep := false
		for _, id := range win.repIDs {
			if id == isoID {
				isoIsRep = true
			}
			if id > isoID {
				farIsRep = true
			}
		}
		return db, win, isoIsRep && !farIsRep
	}
	for seed := int64(1); seed <= 64; seed++ {
		db, win, usable := build(seed)
		if !usable {
			win.Close()
			continue
		}
		// Query at 1: the k=1 candidate is a clump rep at distance ≈1,
		// the isolated rep at 3.5 survives pruning (its radius ≈4 beats
		// d−γ ≈ 1.5), and its window [≈1.5, ≈3.5] holds no member — its
		// own distance-0 entry and its ≈4-distance members both miss it.
		q := []float32{1}
		gotWin, mWin, _ := win.KNN(q, 1)
		if mWin.EmptyWindows == 0 {
			t.Fatalf("seed %d: expected an empty window, metrics %+v", seed, mWin)
		}
		if full := routedSegmentEvals(win, vec.FromFlat(q, 1), 1); mWin.PointEvals >= full {
			t.Fatalf("seed %d: empty window saved nothing: windowed %d, routed segments %d",
				seed, mWin.PointEvals, full)
		}
		want := bruteforce.SearchOneK(q, db, 1, metric.Euclidean{}, nil)
		for p := range want {
			if gotWin[p] != want[p] {
				t.Fatalf("seed %d pos %d: windowed %+v, want %+v", seed, p, gotWin[p], want[p])
			}
		}
		win.Close()
		return
	}
	t.Fatal("no seed in 1..64 sampled the isolated point as a representative — reshape the construction")
}

// With k larger than the representative count, the rep-seeded heap never
// fills, the pruning bound stays +Inf, and every shipped window must
// cover its whole segment: PointEvals equal the routed segments' total
// length exactly (the monotonicity boundary) and every point comes back.
func TestWindowsCoverWholeSegmentWhenHeapNotFull(t *testing.T) {
	rng := rand.New(rand.NewSource(461))
	db := clustered(rng, 60, 5, 3)
	m := metric.Euclidean{}
	win, err := Build(db, m, core.ExactParams{Seed: 463}, 4, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	queries := clustered(rand.New(rand.NewSource(467)), 10, 5, 3)
	for _, k := range []int{59, 60, 200} { // ≥ any segment size and ≥ nr
		gotWin, mWin, _ := win.KNNBatch(queries, k)
		if full := routedSegmentEvals(win, queries, k); mWin.PointEvals != full {
			t.Fatalf("k=%d: infinite windows must scan everything: windowed %d, routed segments %d",
				k, mWin.PointEvals, full)
		}
		if mWin.Windows == 0 {
			t.Fatalf("k=%d: no windows shipped", k)
		}
		if mWin.EmptyWindows != 0 {
			t.Fatalf("k=%d: infinite windows reported %d empty clips", k, mWin.EmptyWindows)
		}
		for i := 0; i < queries.N(); i++ {
			want := bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
			if len(gotWin[i]) != len(want) {
				t.Fatalf("k=%d query %d: %d results, want %d", k, i, len(gotWin[i]), len(want))
			}
			for p := range want {
				if gotWin[i][p] != want[p] {
					t.Fatalf("k=%d query %d pos %d: windowed %+v, want %+v", k, i, p, gotWin[i][p], want[p])
				}
			}
		}
	}
}

// Duplicate representatives produce zero-length sorted segments; the
// windowed scan must skip them without panicking and stay exact.
func TestWindowedEmptySegmentsFromDuplicateReps(t *testing.T) {
	rng := rand.New(rand.NewSource(471))
	db := clustered(rng, 400, 4, 4)
	for i := 0; i < 200; i++ {
		copy(db.Row(200+i), db.Row(i%20))
	}
	m := metric.Euclidean{}
	cl, err := Build(db, m, core.ExactParams{Seed: 137, NumReps: 60, ExactCount: true}, 3, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	empty := 0
	for _, sh := range cl.shards {
		for seg := 0; seg < len(sh.offsets)-1; seg++ {
			if sh.offsets[seg] == sh.offsets[seg+1] {
				empty++
			}
		}
	}
	if empty == 0 {
		t.Fatal("test setup failed to produce an empty segment (no duplicate representatives sampled)")
	}
	queries := clustered(rand.New(rand.NewSource(479)), 20, 4, 4)
	got, met, _ := cl.KNNBatch(queries, 4)
	for i := 0; i < queries.N(); i++ {
		want := bruteforce.SearchOneK(queries.Row(i), db, 4, m, nil)
		for p := range want {
			if got[i][p] != want[p] {
				t.Fatalf("query %d pos %d: %+v want %+v", i, p, got[i][p], want[p])
			}
		}
	}
	// Duplicate-rep segments that survive pruning ship windows that can
	// match nothing; every such futile window must be visible in
	// EmptyWindows (queries here sit on top of duplicated points, so
	// zero-length segments of the duplicate reps do get routed to).
	if met.EmptyWindows == 0 {
		t.Fatalf("no empty windows counted over zero-length segments: %+v", met)
	}
}

// Single-query degeneration through KNN: the one-query block must take
// the same windowed path, produce the same bits as its row in any
// batched call, and match brute force.
func TestWindowedSingleQueryDegeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(487))
	db := clustered(rng, 500, 5, 5)
	m := metric.Euclidean{}
	cl, err := Build(db, m, core.ExactParams{Seed: 491}, 1, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(499)), 8, 5, 5)
	batch, _, _ := cl.KNNBatch(queries, 5)
	for i := 0; i < queries.N(); i++ {
		one, met, _ := cl.KNN(queries.Row(i), 5)
		if met.ShardsContacted > 1 {
			t.Fatalf("query %d: single shard contacted %d times", i, met.ShardsContacted)
		}
		if math.IsNaN(met.SimTimeUS) || met.SimTimeUS < 0 {
			t.Fatalf("query %d: bad sim time %v", i, met.SimTimeUS)
		}
		want := bruteforce.SearchOneK(queries.Row(i), db, 5, m, nil)
		for p := range want {
			if one[p] != want[p] {
				t.Fatalf("query %d pos %d: %+v want %+v", i, p, one[p], want[p])
			}
			if one[p] != batch[i][p] {
				t.Fatalf("query %d pos %d: per-query %+v, batch row %+v", i, p, one[p], batch[i][p])
			}
		}
	}
}

// Shard segments must carry their sort keys and be sorted ascending by
// distance-to-representative after Build — the invariant every window
// computation assumes.
func TestShardSegmentsSortedAtBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	db := tieRichDB(rng, 900, 3)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 509}, 4, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, sh := range cl.shards {
		if len(sh.segDists) != len(sh.ids) {
			t.Fatalf("shard %d: %d segDists for %d ids", sh.id, len(sh.segDists), len(sh.ids))
		}
		for seg := 0; seg < len(sh.offsets)-1; seg++ {
			lo, hi := sh.offsets[seg], sh.offsets[seg+1]
			for p := lo + 1; p < hi; p++ {
				if sh.segDists[p] < sh.segDists[p-1] {
					t.Fatalf("shard %d segment %d: dists not ascending at %d (%v < %v)",
						sh.id, seg, p, sh.segDists[p], sh.segDists[p-1])
				}
				if sh.segDists[p] == sh.segDists[p-1] && sh.ids[p] < sh.ids[p-1] {
					t.Fatalf("shard %d segment %d: tie not id-ordered at %d", sh.id, seg, p)
				}
			}
		}
	}
}

// Smoke-sized ratio assertion for CI: at a realistic configuration the
// windowed cluster must do measurably less shard-side work than scanning
// the routed segments whole (ratio strictly below 1).
func TestWindowedEvalRatioSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	db := clustered(rng, 4000, 16, 12)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 523, NumReps: 126, ExactCount: true}, 4, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(541)), 64, 16, 12)
	_, met, _ := cl.KNNBatch(queries, 10)
	full := routedSegmentEvals(cl, queries, 10)
	ratio := float64(met.PointEvals) / float64(full)
	t.Logf("PointEvals: routed segments=%d windowed=%d ratio=%.3f (windows=%d empty=%d)",
		full, met.PointEvals, ratio, met.Windows, met.EmptyWindows)
	if !(ratio < 1) {
		t.Fatalf("windowed/routed-segment PointEvals ratio %.3f, want < 1", ratio)
	}
}

// raceEnabled is set by raceflag_test.go under -race: the race detector
// randomly drops sync.Pool entries, so allocation counts are inflated.
var raceEnabled bool

// TestWindowedPlanAllocationsParity guards the pooled survivor/window
// slabs in plan(): with them pooled through par.Scratch a block allocates
// a few objects per query (its heap and results), however many windows it
// ships. Per-query survivor and window appends would add several more
// per query.
func TestWindowedPlanAllocationsParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(601))
	db := clustered(rng, 3000, 16, 10)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 607, NumReps: 100, ExactCount: true}, 3, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(613)), 128, 16, 10)
	for _, k := range []int{1, 10} {
		cl.KNNBatch(queries, k) // warm the pools so steady state is measured
		allocs := testing.AllocsPerRun(3, func() { cl.KNNBatch(queries, k) })
		_, met, _ := cl.KNNBatch(queries, k)
		t.Logf("k=%d: %.0f allocations per block, %d windows", k, allocs, met.Windows)
		if limit := 8*float64(queries.N()) + 128; allocs > limit {
			t.Fatalf("k=%d: KNNBatch allocates %.0f per block (limit %.0f); window slabs not pooled?", k, allocs, limit)
		}
	}
}
