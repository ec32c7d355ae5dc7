package distributed

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Stress test for concurrent batch callers over shared shards, designed
// for the -race CI job: many goroutines interleave calls against one
// cluster, and every result must stay bit-identical to a single-threaded
// reference — concurrency must not leak scratch state between requests,
// now that loopback scans run on the callers' fan-out goroutines. The
// windowed run interleaves KNNBatch at several k, 1-NN blocks and
// per-query calls, whose per-request window buffers ride the pooled
// scratch; the full-scan run interleaves QueryBroadcast calls, whose
// requests carry no windows and scan whole segments.
func TestConcurrentBatchCallers(t *testing.T) {
	t.Run("full-scan", func(t *testing.T) { runConcurrentBatchCallers(t, true) })
	t.Run("windowed", func(t *testing.T) { runConcurrentBatchCallers(t, false) })
}

func runConcurrentBatchCallers(t *testing.T, broadcast bool) {
	rng := rand.New(rand.NewSource(211))
	db := clustered(rng, 1500, 6, 8)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 223}, 5, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type testCase struct {
		queries *vec.Dataset
		k       int
		knn     [][]par.Neighbor // single-threaded reference
		best    [][]par.Neighbor // single-threaded 1-NN reference
	}
	cases := make([]testCase, 4)
	for b := range cases {
		cases[b].queries = clustered(rand.New(rand.NewSource(int64(300+b))), 24, 6, 8)
		cases[b].k = 1 + b*2
		cases[b].knn, _, _ = cl.KNNBatch(cases[b].queries, cases[b].k)
		cases[b].best, _, _ = cl.KNNBatch(cases[b].queries, 1)
	}

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cse := cases[(w+r)%len(cases)]
				if broadcast {
					for i := range cse.best {
						got, _, _ := cl.QueryBroadcast(cse.queries.Row(i))
						if len(got) != 1 || got[0] != cse.best[i][0] {
							t.Errorf("worker %d round %d: QueryBroadcast diverged at query %d", w, r, i)
							return
						}
					}
					continue
				}
				switch (w + r) % 3 {
				case 0:
					got, _, _ := cl.KNNBatch(cse.queries, cse.k)
					for i := range cse.knn {
						for p := range cse.knn[i] {
							if got[i][p] != cse.knn[i][p] {
								t.Errorf("worker %d round %d: KNNBatch diverged at query %d pos %d", w, r, i, p)
								return
							}
						}
					}
				case 1:
					got, _, _ := cl.KNNBatch(cse.queries, 1)
					for i := range cse.best {
						if got[i][0] != cse.best[i][0] {
							t.Errorf("worker %d round %d: 1-NN KNNBatch diverged at query %d", w, r, i)
							return
						}
					}
				default:
					i := (w * r) % cse.queries.N()
					got, _, _ := cl.KNN(cse.queries.Row(i), cse.k)
					for p := range cse.knn[i] {
						if got[p] != cse.knn[i][p] {
							t.Errorf("worker %d round %d: KNN diverged at query %d pos %d", w, r, i, p)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
