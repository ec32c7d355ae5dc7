// Robotarm: nearest-neighbor inverse-dynamics lookup on the simulated
// 7-joint arm — the paper's Robot workload (§7.1, data from a Barrett
// WAM; see Nguyen-Tuong & Peters 2010). Local learning control predicts
// the torque needed for a desired (angle, velocity) state by averaging
// the torques of the k nearest previously-seen states; the lookup must be
// exact (a wrong neighbor means a wrong torque) and fast (control runs at
// hundreds of Hz), which is precisely the exact RBC's use case.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	rbc "repro"
	"repro/internal/dataset"
)

const joints = 7

func main() {
	const (
		nDB      = 100000
		nQueries = 2000
		seed     = 3
	)
	fmt.Printf("simulating %d samples of 7-joint arm dynamics (q, dq, tau)\n", nDB+nQueries)
	all := dataset.Robot(nDB+nQueries, seed)
	ids := make([]int, nDB)
	for i := range ids {
		ids[i] = i
	}
	db := all.Subset(ids)

	// n_r = 2√n: the paper's standard setting with a small constant for
	// the expansion-rate factor.
	idx, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{
		NumReps: 2 * rbc.DefaultNumReps(nDB), Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact RBC: %d representatives over %d states\n", idx.NumReps(), db.N())

	// Control-loop style evaluation: for each new state, fetch the k
	// nearest stored states and predict torques by distance-weighted
	// averaging; compare against the simulator's true torques.
	const k = 8
	var sumErr, sumMag float64
	var evals int64
	start := time.Now()
	for qi := 0; qi < nQueries; qi++ {
		state := all.Row(nDB + qi)
		nbs, st := idx.KNN(state, k)
		evals += st.TotalEvals()
		// Weighted torque prediction per joint.
		var pred [joints]float64
		var wsum float64
		for _, nb := range nbs {
			w := 1.0 / (1e-6 + nb.Dist)
			wsum += w
			row := db.Row(nb.ID)
			for j := 0; j < joints; j++ {
				pred[j] += w * float64(row[2*joints+j])
			}
		}
		for j := 0; j < joints; j++ {
			pred[j] /= wsum
			truth := float64(state[2*joints+j])
			sumErr += math.Abs(pred[j] - truth)
			sumMag += math.Abs(truth)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("torque prediction: %.1f%% relative L1 error over %d queries\n",
		100*sumErr/sumMag, nQueries)
	fmt.Printf("lookup rate: %.0f queries/sec (%.0f evals/query vs %d for brute force)\n",
		float64(nQueries)/elapsed.Seconds(), float64(evals)/float64(nQueries), db.N())

	// The certificate of exactness matters for control: verify a few
	// lookups against brute force.
	bad := 0
	for qi := 0; qi < 50; qi++ {
		state := all.Row(nDB + qi)
		got, _ := idx.KNN(state, 1)
		want := bruteForce1NN(db, state)
		if got[0].Dist != want {
			bad++
		}
	}
	fmt.Printf("verification: %d/50 lookups diverged from brute force (expect 0)\n", bad)
}

func bruteForce1NN(db *rbc.Dataset, q []float32) float64 {
	best := math.Inf(1)
	for i := 0; i < db.N(); i++ {
		row := db.Row(i)
		var s float64
		for j := range q {
			d := float64(q[j]) - float64(row[j])
			s += d * d
		}
		if s < best {
			best = s
		}
	}
	return math.Sqrt(best)
}
