package distributed

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/vec"
)

func clustered(rng *rand.Rand, n, dim, k int) *vec.Dataset {
	centers := make([][]float32, k)
	for i := range centers {
		centers[i] = make([]float32, dim)
		for j := range centers[i] {
			centers[i][j] = rng.Float32()*20 - 10
		}
	}
	d := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(k)]
		for j := range row {
			row[j] = c[j] + float32(rng.NormFloat64())*0.3
		}
		d.Append(row)
	}
	return d
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := clustered(rng, 200, 4, 4)
	if _, err := Build(db, metric.Euclidean{}, core.ExactParams{}, 0, DefaultCostModel()); err == nil {
		t.Fatal("0 shards should error")
	}
	var empty vec.Dataset
	if _, err := Build(&empty, metric.Euclidean{}, core.ExactParams{}, 2, DefaultCostModel()); err == nil {
		t.Fatal("empty db should error")
	}
	// The cluster is exact-only: the (1+ε)-approximate mode would break
	// the bit-identity contract with the single-node index.
	if _, err := Build(db, metric.Euclidean{}, core.ExactParams{ApproxEps: 0.5}, 2, DefaultCostModel()); err == nil {
		t.Fatal("ApproxEps > 0 should error")
	}
}

// TestBuildSegmentsAreIndexLists: Build runs BF(X,R) once, inside
// core.BuildExact, and every shard segment is that index's own list —
// same member order, same distance-to-representative column, same
// gathered rows, rep flags by id. Tie-rich rows (half-integer lattice
// with duplicates) make owner and sort ties common.
func TestBuildSegmentsAreIndexLists(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n, dim = 700, 3
		db := vec.New(dim, n)
		row := make([]float32, dim)
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(5) == 0 {
				db.Append(db.Row(rng.Intn(i)))
				continue
			}
			for j := range row {
				row[j] = float32(rng.Intn(17)-8) * 0.5
			}
			db.Append(row)
		}
		prm := core.ExactParams{Seed: seed}
		idx, err := core.BuildExact(db, metric.Euclidean{}, prm)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(db, metric.Euclidean{}, prm, 1+int(seed%3), DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		isRep := make(map[int32]bool)
		for _, id := range idx.RepIDs() {
			isRep[int32(id)] = true
		}
		for rep := range idx.RepIDs() {
			sh := c.shards[c.repShard[rep]]
			lo, hi := sh.offsets[c.repSeg[rep]], sh.offsets[c.repSeg[rep]+1]
			ids, dists, rows := idx.List(rep)
			if !reflect.DeepEqual(sh.ids[lo:hi], ids) || !reflect.DeepEqual(sh.gather[lo*dim:hi*dim], rows) {
				t.Fatalf("seed %d rep %d: segment differs from the index's list", seed, rep)
			}
			if !reflect.DeepEqual(sh.segDists[lo:hi], dists) {
				t.Fatalf("seed %d rep %d: segment distance column differs from the index's", seed, rep)
			}
			for p := lo; p < hi; p++ {
				if sh.isRep[p] != isRep[sh.ids[p]] {
					t.Fatalf("seed %d rep %d pos %d: rep flag %v for id %d", seed, rep, p, sh.isRep[p], sh.ids[p])
				}
			}
		}
		c.Close()
	}
}

func TestRoutedQueryIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := clustered(rng, 1500, 5, 10)
	m := metric.Euclidean{}
	cl, err := Build(db, m, core.ExactParams{Seed: 3}, 4, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for trial := 0; trial < 50; trial++ {
		q := make([]float32, 5)
		for j := range q {
			q[j] = rng.Float32()*20 - 10
		}
		got, _, _ := cl.KNN(q, 1)
		want := bruteforce.SearchOne(q, db, m, nil)
		if got[0].Dist != want.Dist {
			t.Fatalf("trial %d: got %v want %v", trial, got[0].Dist, want.Dist)
		}
	}
}

func TestBroadcastQueryIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := clustered(rng, 800, 4, 6)
	m := metric.Euclidean{}
	cl, err := Build(db, m, core.ExactParams{Seed: 5}, 3, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for trial := 0; trial < 30; trial++ {
		q := make([]float32, 4)
		for j := range q {
			q[j] = rng.Float32()*20 - 10
		}
		got, met, _ := cl.QueryBroadcast(q)
		want := bruteforce.SearchOne(q, db, m, nil)
		if len(got) != 1 || got[0].Dist != want.Dist {
			t.Fatalf("trial %d: got %v want %+v", trial, got, want)
		}
		if met.ShardsContacted != 3 {
			t.Fatalf("broadcast must contact all shards, got %d", met.ShardsContacted)
		}
	}
}

func TestRoutingContactsFewerShards(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := clustered(rng, 3000, 6, 12)
	m := metric.Euclidean{}
	const shards = 8
	cl, err := Build(db, m, core.ExactParams{Seed: 7}, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var routed, broadcast QueryMetrics
	const queries = 40
	for trial := 0; trial < queries; trial++ {
		q := db.Row(rng.Intn(db.N()))
		_, mr, _ := cl.KNN(q, 1)
		routed.Add(mr)
		_, mb, _ := cl.QueryBroadcast(q)
		broadcast.Add(mb)
	}
	if routed.ShardsContacted >= broadcast.ShardsContacted {
		t.Fatalf("routing contacted %d shards vs broadcast %d — no savings",
			routed.ShardsContacted, broadcast.ShardsContacted)
	}
	if routed.Evals >= broadcast.Evals {
		t.Fatalf("routing evals %d >= broadcast %d", routed.Evals, broadcast.Evals)
	}
	if routed.Bytes >= broadcast.Bytes {
		t.Fatalf("routing bytes %d >= broadcast %d", routed.Bytes, broadcast.Bytes)
	}
}

func TestShardLoadsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := clustered(rng, 2000, 4, 16)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 9}, 4, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	loads := cl.ShardLoads()
	if len(loads) != 4 {
		t.Fatalf("loads: %v", loads)
	}
	total, max, min := 0, 0, 1<<62
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	if total != db.N() {
		t.Fatalf("shards hold %d points, want %d", total, db.N())
	}
	// LPT assignment should keep the imbalance modest.
	if max > 3*min+50 {
		t.Fatalf("severe imbalance: %v", loads)
	}
}

func TestQueryMetricsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := clustered(rng, 600, 4, 5)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 11}, 2, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, met, _ := cl.KNN(db.Row(0), 1)
	if met.Evals == 0 || met.SimTimeUS <= 0 && met.ShardsContacted > 0 {
		t.Fatalf("metrics: %+v", met)
	}
	if met.Messages != 2*met.ShardsContacted {
		t.Fatalf("messages %d for %d shards", met.Messages, met.ShardsContacted)
	}
}

func TestCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := clustered(rng, 300, 3, 3)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 13}, 2, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // must not panic
}

func TestSingleShardDegeneratesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := clustered(rng, 500, 4, 4)
	m := metric.Euclidean{}
	cl, err := Build(db, m, core.ExactParams{Seed: 15}, 1, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := db.Row(42)
	got, met, _ := cl.KNN(q, 1)
	if got[0].Dist != 0 {
		t.Fatalf("self-query: %+v", got)
	}
	if met.ShardsContacted > 1 {
		t.Fatalf("single shard contacted %d times", met.ShardsContacted)
	}
}

// A 1-NN query block through KNNBatch must return exactly what per-query
// KNN returns, while contacting each shard at most once.
func TestQueryBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := clustered(rng, 2000, 5, 10)
	m := metric.Euclidean{}
	const shards = 6
	cl, err := Build(db, m, core.ExactParams{Seed: 23}, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(29)), 64, 5, 10)
	batch, bm, _ := cl.KNNBatch(queries, 1)
	var perQuery QueryMetrics
	for i := 0; i < queries.N(); i++ {
		one, om, _ := cl.KNN(queries.Row(i), 1)
		if len(one) != 1 || !slices.Equal(batch[i], one) {
			t.Fatalf("query %d: batch %+v, per-query %+v", i, batch[i], one)
		}
		perQuery.Add(om)
	}
	if bm.ShardsContacted > shards {
		t.Fatalf("batch contacted %d shard requests for %d shards", bm.ShardsContacted, shards)
	}
	if bm.Messages >= perQuery.Messages {
		t.Fatalf("batch fan-out sent %d messages, per-query %d — no amortization", bm.Messages, perQuery.Messages)
	}
	if bm.Evals != perQuery.Evals {
		t.Fatalf("batch evals %d, per-query %d", bm.Evals, perQuery.Evals)
	}
}

// KNNBatch must be exact: every query's k results equal the single-machine
// brute-force reference (ids and distances, ties toward lower id).
func TestKNNBatchIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := clustered(rng, 1500, 4, 8)
	m := metric.Euclidean{}
	cl, err := Build(db, m, core.ExactParams{Seed: 37}, 5, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(41)), 40, 4, 8)
	for _, k := range []int{1, 3, 7} {
		got, met, _ := cl.KNNBatch(queries, k)
		if met.ShardsContacted > cl.NumShards() {
			t.Fatalf("k=%d: %d shard requests", k, met.ShardsContacted)
		}
		for i := 0; i < queries.N(); i++ {
			want := bruteforce.SearchOneK(queries.Row(i), db, k, m, nil)
			if len(got[i]) != len(want) {
				t.Fatalf("k=%d query %d: %d results, want %d", k, i, len(got[i]), len(want))
			}
			for p := range want {
				if got[i][p].ID != want[p].ID || math.Abs(got[i][p].Dist-want[p].Dist) > 1e-12 {
					t.Fatalf("k=%d query %d pos %d: %+v want %+v", k, i, p, got[i][p], want[p])
				}
			}
		}
	}
}

// Duplicate points that are both representatives must not produce
// duplicate ids in k-NN results (the shard-side representative skip).
func TestKNNBatchNoDuplicateIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := clustered(rng, 600, 3, 4)
	// Plant exact duplicates.
	for i := 0; i < 20; i++ {
		copy(db.Row(i+100), db.Row(i))
	}
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 47}, 3, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(53)), 30, 3, 4)
	got, _, _ := cl.KNNBatch(queries, 6)
	for i, nbs := range got {
		seen := map[int]bool{}
		for _, nb := range nbs {
			if seen[nb.ID] {
				t.Fatalf("query %d: duplicate id %d in %v", i, nb.ID, nbs)
			}
			seen[nb.ID] = true
		}
	}
}

// Property: routed distributed answers always equal single-machine brute
// force, over random shard counts and seeds.
func TestQuickDistributedExact(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, shardsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := int(shardsRaw)%6 + 1
		db := clustered(rng, 400, 3, 5)
		cl, err := Build(db, m, core.ExactParams{Seed: seed}, shards, DefaultCostModel())
		if err != nil {
			return false
		}
		defer cl.Close()
		for trial := 0; trial < 5; trial++ {
			q := make([]float32, 3)
			for j := range q {
				q[j] = rng.Float32()*20 - 10
			}
			got, _, _ := cl.KNN(q, 1)
			if got[0].Dist != bruteforce.SearchOne(q, db, m, nil).Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
