package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/vec"
)

// TestExactPointEvalsRegression pins the phase-2 work of the pruned
// search on the paper's low-dimensional workload: a 20 k-row Robot
// corpus asked 256 held-out rows, corpus and representatives drawn from
// the benchmark's corpus seed. Each bound is 2× the measured
// mean PointEvals per query. Pruning at the representative γ alone costs
// 1443 at k = 1 and 8317 at k = 10, so a change that loses the home probe,
// or stops tightening γ_k with it, fails here.
func TestExactPointEvalsRegression(t *testing.T) {
	const n, nq, seed = 20_000, 256, 20120501
	all := dataset.Robot(n+nq, seed)
	cut := n * all.Dim
	db := vec.FromFlat(all.Data[:cut:cut], all.Dim)
	queries := vec.FromFlat(all.Data[cut:], all.Dim)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k        int
		measured float64
	}{{1, 8.52}, {10, 149.3}} {
		_, st := e.KNNBatch(queries, c.k)
		if mean := float64(st.PointEvals) / nq; mean > 2*c.measured {
			t.Errorf("k=%d: %.2f point evals/query, want ≤ %.1f (2× the measured %.2f)", c.k, mean, 2*c.measured, c.measured)
		}
	}
}
