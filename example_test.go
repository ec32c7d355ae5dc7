package rbc_test

import (
	"fmt"
	"math"
	"math/rand"

	rbc "repro"
	"repro/internal/dataset"
)

// ExampleBruteForceK answers a small batch with the tiled brute-force
// primitive — no index, one pass over the database shared by the whole
// query block.
func ExampleBruteForceK() {
	db := rbc.FromRows([][]float32{
		{0, 0}, {1, 0}, {2, 0}, {3, 0},
	})
	queries := rbc.FromRows([][]float32{{1.9, 0}})

	for _, nb := range rbc.BruteForceK(queries, db, 2, rbc.Euclidean())[0] {
		fmt.Printf("id=%d dist=%.1f\n", nb.ID, nb.Dist)
	}
	// Output:
	// id=2 dist=0.1
	// id=1 dist=0.9
}

// ExampleExact_KNNBatch builds the exact RBC index and answers a query
// block in one batched call. Answers are exact, so the output does not
// depend on the representative seed.
func ExampleExact_KNNBatch() {
	db := rbc.NewDataset(2)
	for i := 0; i < 100; i++ {
		db.Append([]float32{float32(i % 10), float32(i / 10)})
	}
	idx, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{Seed: 42})
	if err != nil {
		fmt.Println(err)
		return
	}

	queries := rbc.FromRows([][]float32{
		{2.2, 0},
		{8.6, 9},
	})
	nbrs, stats := idx.KNNBatch(queries, 2)
	for qi, ns := range nbrs {
		fmt.Printf("query %d:", qi)
		for _, nb := range ns {
			fmt.Printf(" (id=%d dist=%.1f)", nb.ID, nb.Dist)
		}
		fmt.Println()
	}
	fmt.Println("pruning saved work:", stats.TotalEvals() < int64(queries.N()*db.N()))
	// Output:
	// query 0: (id=2 dist=0.2) (id=3 dist=0.8)
	// query 1: (id=99 dist=0.4) (id=98 dist=0.6)
	// pruning saved work: true
}

// Example_quickstart is the tour of the public API: build both RBC index
// types over a clustered database, run exact k-NN, range and batch
// queries, and compare the one-shot index's accuracy and work with the
// exact one's.
func Example_quickstart() {
	// A database of 4,000 points in 16 dimensions drawn from a handful
	// of clusters. Clustered data has low intrinsic dimension, which is
	// what the RBC exploits.
	rng := rand.New(rand.NewSource(42))
	const (
		n   = 4000
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

	// The zero-value params pick the paper's standard setting: about √n
	// representatives and both pruning bounds.
	exact, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("exact index: %d representatives over %d points\n", exact.NumReps(), db.N())

	// KNN at k = 1 is the paper's 1-NN search. A database point's nearest
	// neighbor is itself; Stats count the distance evaluations spent.
	query := db.Row(137)
	nn, st := exact.KNN(query, 1)
	fmt.Printf("exact 1-NN: id=%d dist=%.4f, examined %d of %d points\n",
		nn[0].ID, nn[0].Dist, st.TotalEvals(), db.N())
	knn, _ := exact.KNN(query, 5)
	fmt.Print("exact 5-NN ids:")
	for _, nb := range knn {
		fmt.Printf(" %d", nb.ID)
	}
	fmt.Println()
	hits, _ := exact.Range(query, 5.0)
	fmt.Printf("range(5.0): %d points\n", len(hits))

	// The one-shot index scans one representative list per query and no
	// more. Theorem 2 wants n_r = s = c·sqrt(n·ln(1/δ)); at δ = 0.01 and
	// c ≈ 1.5 that is 200 here.
	oneshot, err := rbc.BuildOneShot(db, rbc.Euclidean(), rbc.OneShotParams{NumReps: 200, S: 200})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Batch queries run across all cores. The exact answers match brute
	// force; the one-shot answers mostly do.
	queries := rbc.NewDataset(dim)
	for i := 0; i < 200; i++ {
		queries.Append(db.Row(rng.Intn(n)))
	}
	want := rbc.BruteForceK(queries, db, 1, rbc.Euclidean())
	batch, stBatch := exact.KNNBatch(queries, 1)
	osBatch, stOS := oneshot.KNNBatch(queries, 1)
	diverged, correct := 0, 0
	for i := range want {
		if batch[i][0] != want[i][0] {
			diverged++
		}
		if osBatch[i][0].Dist == want[i][0].Dist {
			correct++
		}
	}
	fmt.Printf("exact batch: %d of %d answers diverged from brute force, %.0f evals/query\n",
		diverged, len(batch), float64(stBatch.TotalEvals())/float64(len(batch)))
	fmt.Printf("one-shot batch: recall %.1f%%, %.0f evals/query\n",
		100*float64(correct)/float64(len(osBatch)), float64(stOS.TotalEvals())/float64(len(osBatch)))
	// Output:
	// exact index: 63 representatives over 4000 points
	// exact 1-NN: id=137 dist=0.0000, examined 71 of 4000 points
	// exact 5-NN ids: 137 3364 976 3808 726
	// range(5.0): 23 points
	// exact batch: 0 of 200 answers diverged from brute force, 71 evals/query
	// one-shot batch: recall 98.5%, 391 evals/query
}

// Example_robotarm is nearest-neighbor inverse dynamics on the simulated
// 7-joint arm, the paper's Robot workload (§7.1). Local learning control
// predicts the torques for a desired (angle, velocity) state by averaging
// the torques of the k nearest stored states. The lookup must be exact,
// since a wrong neighbor means a wrong torque, which is the exact RBC's
// use case.
func Example_robotarm() {
	const (
		joints   = 7
		nDB      = 20000
		nQueries = 200
		k        = 8
		seed     = 3
	)
	all := dataset.Robot(nDB+nQueries, seed)
	ids := make([]int, nDB)
	for i := range ids {
		ids[i] = i
	}
	db := all.Subset(ids)
	states := rbc.NewDataset(all.Dim)
	for qi := 0; qi < nQueries; qi++ {
		states.Append(all.Row(nDB + qi))
	}

	// n_r = 2√n: the paper's standard setting with a small constant for
	// the expansion-rate factor.
	idx, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{
		NumReps: 2 * rbc.DefaultNumReps(nDB), Seed: seed})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("exact RBC: %d representatives over %d states\n", idx.NumReps(), db.N())

	// Predict each joint's torque (the last 7 columns) by
	// distance-weighted averaging over the k nearest stored states, and
	// compare with the simulator's true torques.
	nbrs, st := idx.KNNBatch(states, k)
	var sumErr, sumMag float64
	for qi, nbs := range nbrs {
		var pred [joints]float64
		var wsum float64
		for _, nb := range nbs {
			w := 1.0 / (1e-6 + nb.Dist)
			wsum += w
			row := db.Row(nb.ID)
			for j := range pred {
				pred[j] += w * float64(row[2*joints+j])
			}
		}
		state := states.Row(qi)
		for j := range pred {
			truth := float64(state[2*joints+j])
			sumErr += math.Abs(pred[j]/wsum - truth)
			sumMag += math.Abs(truth)
		}
	}
	fmt.Printf("torque prediction: %.1f%% relative L1 error over %d states\n",
		100*sumErr/sumMag, nQueries)
	fmt.Printf("work: %.0f evals/query against %d for brute force\n",
		float64(st.TotalEvals())/nQueries, db.N())

	// Control needs the certificate of exactness: every lookup's nearest
	// stored state is brute force's, to the bit.
	want := rbc.BruteForceK(states, db, 1, rbc.Euclidean())
	diverged := 0
	for qi := range want {
		if nbrs[qi][0] != want[qi][0] {
			diverged++
		}
	}
	fmt.Printf("verification: %d of %d lookups diverged from brute force\n", diverged, nQueries)
	// Output:
	// exact RBC: 281 representatives over 20000 states
	// torque prediction: 0.3% relative L1 error over 200 states
	// work: 341 evals/query against 20000 for brute force
	// verification: 0 of 200 lookups diverged from brute force
}
