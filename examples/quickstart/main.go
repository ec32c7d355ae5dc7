// Quickstart: build both RBC index types over a small synthetic database,
// run exact and one-shot queries, and show the work savings over brute
// force — the 60-second tour of the public API.
package main

import (
	"fmt"
	"log"
	"math/rand"

	rbc "repro"
)

func main() {
	// 1. Assemble a database: 20,000 points in 16 dimensions drawn from a
	// handful of clusters (realistic data is clustered — that is what
	// gives it low intrinsic dimensionality, which the RBC exploits).
	rng := rand.New(rand.NewSource(42))
	const (
		n   = 20000
		dim = 16
	)
	db := rbc.NewDataset(dim)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		center := float32(rng.Intn(12)) * 5
		for j := range row {
			row[j] = center + float32(rng.NormFloat64())
		}
		db.Append(row)
	}

	// 2. Build the exact index. The zero-value params pick the paper's
	// standard setting (≈√n representatives, both pruning bounds).
	exact, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact index: %d representatives over %d points\n", exact.NumReps(), db.N())

	// 3. Query it: KNN at k = 1 is the paper's 1-NN search. Stats show how
	// much of the database was examined.
	query := db.Row(137) // a database point: its NN is itself
	nn, st := exact.KNN(query, 1)
	fmt.Printf("exact 1-NN: id=%d dist=%.4f — examined %d of %d points (%.1f%%)\n",
		nn[0].ID, nn[0].Dist, st.TotalEvals(), db.N(), 100*float64(st.TotalEvals())/float64(db.N()))

	// 4. Larger k and range queries come along for free.
	knn, _ := exact.KNN(query, 5)
	fmt.Printf("exact 5-NN ids: ")
	for _, nb := range knn {
		fmt.Printf("%d ", nb.ID)
	}
	fmt.Println()
	hits, _ := exact.Range(query, 5.0)
	fmt.Printf("range(5.0): %d points\n", len(hits))

	// 5. The one-shot index trades a little accuracy for speed: one
	// representative scan plus one list scan, no pruning logic at all.
	// Theorem 2 wants n_r = s = c·sqrt(n·ln(1/δ)); with a modest constant
	// that is ~1200 here.
	oneshot, err := rbc.BuildOneShot(db, rbc.Euclidean(), rbc.OneShotParams{NumReps: 1200, S: 1200})
	if err != nil {
		log.Fatal(err)
	}

	// 6. Batch queries run in parallel across all cores; compare the two
	// algorithms' accuracy and work on the same 1000 queries.
	queries := rbc.NewDataset(dim)
	for i := 0; i < 1000; i++ {
		queries.Append(db.Row(rng.Intn(n)))
	}
	batch, stBatch := exact.KNNBatch(queries, 1)
	fmt.Printf("exact batch:    %d queries, mean %.0f evals/query (brute force would be %d)\n",
		len(batch), float64(stBatch.TotalEvals())/float64(len(batch)), db.N())
	osBatch, stOS := oneshot.KNNBatch(queries, 1)
	correct := 0
	for i := range osBatch {
		if osBatch[i][0].Dist == batch[i][0].Dist {
			correct++
		}
	}
	fmt.Printf("one-shot batch: recall %.1f%% at %.0f evals/query — no pruning logic, two flat scans\n",
		100*float64(correct)/float64(len(osBatch)),
		float64(stOS.TotalEvals())/float64(len(osBatch)))
}
