package distributed

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/vec"
)

// TestClusterPointEvalsRegression pins the shard-side home probe's work
// on the core.TestExactPointEvalsRegression corpus: 20 000 Robot rows,
// 256 held-out queries. Each bound is 2× the measured mean point
// evaluations per query. Pruning only at the representative γ_k, with no
// shard probe, costs ≈ 1443 at k = 1 and ≈ 8317 at k = 10 at every shard
// count, past every bound here. On 2 shards the query's nearest
// representative lives on one shard only; the other shard's local home
// rarely beats the representative γ_k, hence the gap to 1 shard.
func TestClusterPointEvalsRegression(t *testing.T) {
	const n, nq, seed = 20_000, 256, 20120501
	all := dataset.Robot(n+nq, seed)
	cut := n * all.Dim
	db := vec.FromFlat(all.Data[:cut:cut], all.Dim)
	queries := vec.FromFlat(all.Data[cut:], all.Dim)
	for _, c := range []struct {
		shards, k int
		measured  float64
	}{{1, 1, 11.5}, {1, 10, 212}, {2, 1, 505}, {2, 10, 2135}} {
		cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: seed}, c.shards, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		_, met, err := cl.KNNBatch(queries, c.k)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		mean := float64(met.PointEvals) / nq
		t.Logf("shards=%d k=%d: %.2f point evals/query", c.shards, c.k, mean)
		if mean > 2*c.measured {
			t.Errorf("shards=%d k=%d: %.2f point evals/query, want ≤ %.1f (2× the measured %.1f)",
				c.shards, c.k, mean, 2*c.measured, c.measured)
		}
	}
}
