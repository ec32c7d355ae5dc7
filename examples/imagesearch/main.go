// Imagesearch: the paper's TinyIm workload end to end — synthetic image
// patches, Johnson–Lindenstrauss projection to a small descriptor, and a
// one-shot RBC over the descriptors, sweeping the accuracy/speed knob
// exactly as Figure 1 does.
//
// The paper's motivating application (§1) is computer vision: finding the
// most similar images in a large corpus. Here a held-out patch queries
// the database at several n_r = s settings, showing the rank-error/work
// tradeoff the one-shot algorithm exposes.
package main

import (
	"fmt"
	"log"
	"math"

	rbc "repro"
	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/stats"
)

func main() {
	const (
		nDB      = 30000
		nQueries = 200
		outDim   = 16
		seed     = 7
	)
	fmt.Printf("generating %d synthetic image patches, projecting 256 -> %d dims (JL)\n",
		nDB+nQueries, outDim)
	all := dataset.TinyImages(nDB+nQueries, outDim, seed)
	ids := make([]int, nDB)
	for i := range ids {
		ids[i] = i
	}
	db := all.Subset(ids)
	qids := make([]int, nQueries)
	for i := range qids {
		qids[i] = nDB + i
	}
	queries := all.Subset(qids)

	m := metric.Euclidean{}
	truth := bruteforce.Search(queries, db, m, nil)
	trueDists := make([]float64, nQueries)
	for i, r := range truth {
		trueDists[i] = r.Dist
	}

	fmt.Printf("\n%-10s %-10s %-12s %-12s %-8s\n", "nr=s", "evals/q", "work-speedup", "mean-rank", "recall")
	for _, factor := range []float64{0.5, 1, 2, 4} {
		nr := int(factor * math.Sqrt(nDB))
		idx, err := rbc.BuildOneShot(db, rbc.Euclidean(), rbc.OneShotParams{
			NumReps: nr, S: nr, Seed: seed, ExactCount: true})
		if err != nil {
			log.Fatal(err)
		}
		res, st := idx.KNNBatch(queries, 1)
		got := make([]float64, nQueries)
		for i, r := range res {
			got[i] = r[0].Dist
		}
		evalsPerQ := float64(st.TotalEvals()) / nQueries
		fmt.Printf("%-10d %-10.0f %-12.1f %-12.3f %-8.3f\n",
			nr, evalsPerQ, float64(nDB)/evalsPerQ,
			stats.MeanRank(queries, db, got, m),
			stats.Recall(got, trueDists))
	}

	// Show one retrieval: the five most similar patches to query 0.
	idx, err := rbc.BuildOneShot(db, rbc.Euclidean(), rbc.OneShotParams{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	nbs, _ := idx.KNN(queries.Row(0), 5)
	fmt.Printf("\nmost similar patches to query 0:\n")
	for rank, nb := range nbs {
		fmt.Printf("  %d. patch #%d (descriptor distance %.4f)\n", rank+1, nb.ID, nb.Dist)
	}
}
