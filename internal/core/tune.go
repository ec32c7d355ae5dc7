package core

import (
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/vec"
)

// AutoTuneResult reports the representative-count search performed by
// AutoTuneExact.
type AutoTuneResult struct {
	// NumReps is the selected representative count.
	NumReps int
	// EvalsPerQuery is the measured work at the selected setting.
	EvalsPerQuery float64
	// Curve holds (numReps, evalsPerQuery) for every candidate tried, in
	// the order evaluated — the data behind the paper's Figure 3.
	Curve []AutoTunePoint
}

// AutoTunePoint is one sample of the tuning curve.
type AutoTunePoint struct {
	NumReps       int
	EvalsPerQuery float64
}

// AutoTuneExact selects the representative count for an exact index by
// measuring work on a held-out probe set over a geometric grid of
// candidates around √n. Appendix C of the paper shows the speedup curve
// is flat near its optimum, so a coarse grid suffices; the returned count
// minimizes measured distance evaluations per probe query.
//
// probes must be non-empty and share db's dimension. The candidate grid
// is {√n/4, √n/2, √n, 2√n, 4√n, 8√n} clamped to [1, n].
func AutoTuneExact(db *vec.Dataset, m metric.Metric[[]float32], probes *vec.Dataset, seed int64) (AutoTuneResult, error) {
	if probes == nil || probes.N() == 0 {
		return AutoTuneResult{}, fmt.Errorf("core: AutoTuneExact needs probe queries")
	}
	if db.N() > 0 && probes.Dim != db.Dim {
		return AutoTuneResult{}, fmt.Errorf("core: probe dim %d != db dim %d", probes.Dim, db.Dim)
	}
	n := db.N()
	root := math.Sqrt(float64(n))
	var res AutoTuneResult
	best := math.Inf(1)
	seen := map[int]bool{}
	for _, f := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		nr := int(f * root)
		if nr < 1 {
			nr = 1
		}
		if nr > n {
			nr = n
		}
		if seen[nr] {
			continue
		}
		seen[nr] = true
		idx, err := BuildExact(db, m, ExactParams{
			NumReps: nr, Seed: seed, ExactCount: true})
		if err != nil {
			return AutoTuneResult{}, err
		}
		_, st := idx.KNNBatch(probes, 1)
		evals := float64(st.TotalEvals()) / float64(probes.N())
		res.Curve = append(res.Curve, AutoTunePoint{NumReps: nr, EvalsPerQuery: evals})
		if evals < best {
			best = evals
			res.NumReps = nr
			res.EvalsPerQuery = evals
		}
	}
	return res, nil
}

// AutoTuneOneShot selects n_r = s for a one-shot index subject to a
// recall target measured against exact answers on the probe set. It
// returns the smallest setting on the grid meeting the target, or the
// most accurate one if none does.
func AutoTuneOneShot(db *vec.Dataset, m metric.Metric[[]float32], probes *vec.Dataset, targetRecall float64, seed int64) (AutoTuneResult, error) {
	if probes == nil || probes.N() == 0 {
		return AutoTuneResult{}, fmt.Errorf("core: AutoTuneOneShot needs probe queries")
	}
	if targetRecall <= 0 || targetRecall > 1 {
		return AutoTuneResult{}, fmt.Errorf("core: target recall %v out of (0,1]", targetRecall)
	}
	n := db.N()
	root := math.Sqrt(float64(n))
	// Exact answers once, via the exact index (cheaper than brute force).
	exact, err := BuildExact(db, m, ExactParams{Seed: seed})
	if err != nil {
		return AutoTuneResult{}, err
	}
	truth, _ := exact.KNNBatch(probes, 1)

	var res AutoTuneResult
	bestRecall := -1.0
	for _, f := range []float64{0.5, 1, 2, 4, 8} {
		nr := int(f * root)
		if nr < 1 {
			nr = 1
		}
		if nr > n {
			nr = n
		}
		idx, err := BuildOneShot(db, m, OneShotParams{
			NumReps: nr, S: nr, Seed: seed, ExactCount: true})
		if err != nil {
			return AutoTuneResult{}, err
		}
		got, st := idx.KNNBatch(probes, 1)
		correct := 0
		for i := range got {
			if got[i][0].Dist == truth[i][0].Dist {
				correct++
			}
		}
		recall := float64(correct) / float64(len(got))
		evals := float64(st.TotalEvals()) / float64(probes.N())
		res.Curve = append(res.Curve, AutoTunePoint{NumReps: nr, EvalsPerQuery: evals})
		if recall > bestRecall {
			bestRecall = recall
			res.NumReps = nr
			res.EvalsPerQuery = evals
		}
		if recall >= targetRecall {
			res.NumReps = nr
			res.EvalsPerQuery = evals
			return res, nil
		}
	}
	return res, nil
}
