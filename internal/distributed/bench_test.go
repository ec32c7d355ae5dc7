package distributed

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Benchmarks for the tiled shard-scan path. The baseline resurrects the
// pre-tiling shard loop — per-pair m.Distance calls over each surviving
// segment, shards working concurrently — on top of the same coordinator
// routing, so the delta isolates exactly what the tiled scans buy.

const (
	benchN      = 10000
	benchDim    = 64
	benchQ      = 256
	benchK      = 10
	benchShards = 8
)

var benchState struct {
	once    sync.Once
	cl      *Cluster
	queries *vec.Dataset
}

func benchCluster(b *testing.B) (*Cluster, *vec.Dataset) {
	benchState.once.Do(func() {
		rng := rand.New(rand.NewSource(5150))
		db := clustered(rng, benchN, benchDim, 32)
		prm := core.ExactParams{NumReps: 200, Seed: 5153, ExactCount: true}
		cl, err := Build(db, metric.Euclidean{}, prm, benchShards, DefaultCostModel())
		if err != nil {
			panic(err)
		}
		benchState.cl = cl
		benchState.queries = clustered(rand.New(rand.NewSource(5157)), benchQ, benchDim, 32)
	})
	return benchState.cl, benchState.queries
}

// perPairKNNBatch is the pre-tiling reference implementation: the same
// survivor routing, but distance-space heaps and one m.Distance call per
// (query, point) pair over each surviving segment, scanned whole, inside
// each shard — the memory-bound shape the paper argues against. Shards
// run concurrently, as the cluster's fan-out does.
func perPairKNNBatch(cl *Cluster, queries *vec.Dataset, k int) [][]par.Neighbor {
	nq := queries.N()
	nr := cl.repData.N()
	out := make([][]par.Neighbor, nq)
	heaps := make([]*par.KHeap, nq)
	survivors := make([][]int32, nq)
	ker := metric.NewKernel(cl.m)
	par.For(nq, 8, func(lo, hi int) {
		dists := make([]float64, nr)
		kk := k
		if kk > nr {
			kk = nr
		}
		for i := lo; i < hi; i++ {
			ker.Ordering(queries.Row(i), cl.repData.Data, cl.dim, dists)
			for j, o := range dists {
				dists[j] = ker.ToDistance(o)
			}
			sel := par.NewKHeap(kk)
			for j, d := range dists {
				sel.Push(j, d)
			}
			best, _ := sel.Best()
			gamma1 := best.Dist
			gammaK := math.Inf(1)
			if w, full := sel.Worst(); full && k <= nr {
				gammaK = w
			}
			tripleBound := 2*gammaK + gamma1
			h := par.NewKHeap(k)
			for j, d := range dists {
				h.Push(cl.repIDs[j], d)
			}
			heaps[i] = h
			var surv []int32
			for j := 0; j < nr; j++ {
				if dists[j] >= gammaK+cl.radii[j] {
					continue
				}
				if !math.IsInf(tripleBound, 1) && dists[j] > tripleBound {
					continue
				}
				surv = append(surv, int32(j))
			}
			survivors[i] = surv
		}
	})
	batches := make([]shardBatch, len(cl.shards))
	for i := 0; i < nq; i++ {
		for _, j := range survivors[i] {
			batches[cl.repShard[j]].add(i, int(cl.repSeg[j]))
		}
	}
	type reply struct {
		sid int
		knn [][]par.Neighbor
	}
	ch := make(chan reply, len(cl.shards))
	contacted := 0
	for sid := range batches {
		sb := &batches[sid]
		if len(sb.qidx) == 0 {
			continue
		}
		contacted++
		go func(sid int, sb *shardBatch) {
			s := cl.shards[sid]
			knn := make([][]par.Neighbor, len(sb.qidx))
			segs := sb.querySegs()
			for t, qi := range sb.qidx {
				q := queries.Row(qi)
				h := par.NewKHeap(k)
				for _, seg := range segs[t] {
					lo, hi := s.offsets[seg], s.offsets[seg+1]
					for p := lo; p < hi; p++ {
						if s.isRep[p] {
							continue
						}
						h.Push(int(s.ids[p]), cl.m.Distance(q, s.gather[p*s.dim:(p+1)*s.dim]))
					}
				}
				knn[t] = h.Results()
			}
			ch <- reply{sid, knn}
		}(sid, sb)
	}
	for r := 0; r < contacted; r++ {
		rp := <-ch
		for t, qi := range batches[rp.sid].qidx {
			for _, nb := range rp.knn[t] {
				heaps[qi].Push(nb.ID, nb.Dist)
			}
		}
	}
	for i, h := range heaps {
		out[i] = h.Results()
	}
	return out
}

// BenchmarkClusterKNNBatch measures the tiled batch-and-tile shard path
// at the acceptance configuration (n=10k, dim 64, |Q|=256): sorted
// segments, the shard-side home probe and per-(query, segment)
// admissible windows clipping every taker's scan range.
func BenchmarkClusterKNNBatch(b *testing.B) {
	cl, queries := benchCluster(b)
	_, met, _ := cl.KNNBatch(queries, benchK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.KNNBatch(queries, benchK)
	}
	// After the loop: ResetTimer would discard metrics reported before it.
	b.ReportMetric(float64(met.PointEvals)/float64(benchQ), "pointevals/query")
}

// BenchmarkClusterKNNBatchPerPair is the pre-tiling per-pair baseline on
// identical routing; the acceptance bar is KNNBatch ≥ 1.5× faster.
func BenchmarkClusterKNNBatchPerPair(b *testing.B) {
	cl, queries := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perPairKNNBatch(cl, queries, benchK)
	}
}

// BenchmarkClusterKNNPerQuery drives the tiled path one query at a time —
// the degenerate block shape — to expose what block batching itself buys.
func BenchmarkClusterKNNPerQuery(b *testing.B) {
	cl, queries := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi := 0; qi < queries.N(); qi++ {
			cl.KNN(queries.Row(qi), benchK)
		}
	}
}

// The per-pair baseline must agree with the tiled path on ids (a guard
// that the benchmark baseline measures the same search).
func TestPerPairBaselineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5159))
	db := clustered(rng, 800, 6, 8)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 5167}, 3, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := clustered(rand.New(rand.NewSource(5171)), 30, 6, 8)
	tiled, _, _ := cl.KNNBatch(queries, 5)
	base := perPairKNNBatch(cl, queries, 5)
	for i := range tiled {
		if len(tiled[i]) != len(base[i]) {
			t.Fatalf("query %d: tiled %d results, per-pair %d", i, len(tiled[i]), len(base[i]))
		}
		for p := range tiled[i] {
			if tiled[i][p].ID != base[i][p].ID {
				t.Fatalf("query %d pos %d: tiled id %d, per-pair id %d", i, p, tiled[i][p].ID, base[i][p].ID)
			}
		}
	}
}
