// Package stats provides the evaluation machinery for the experiments:
// the paper's rank error measure (§7.2), result tables and ASCII charts
// for figure reproduction.
package stats

import (
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Rank computes the paper's error measure for a single answer: the number
// of database points strictly closer to the query than the returned
// point. Rank 0 means the exact NN was returned, rank 1 the second
// nearest, and so on.
func Rank(q []float32, db *vec.Dataset, returnedDist float64, m metric.Metric[[]float32]) int {
	n := db.N()
	ker := metric.NewKernel(m)
	count := 0
	const chunk = 1024
	var scratch [chunk]float64
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out := scratch[:hi-lo]
		ker.Ordering(q, db.Data[lo*db.Dim:hi*db.Dim], db.Dim, out)
		for _, o := range out {
			if ker.ToDistance(o) < returnedDist {
				count++
			}
		}
	}
	return count
}

// MeanRank evaluates a batch of answers: returns the mean rank across
// queries. dists[i] is the distance of the answer returned for query i.
// This is the y-axis quantity of the paper's Figure 1 (averaged over
// queries; the paper plots values down to 10⁻³, i.e. one wrong answer per
// thousand queries).
func MeanRank(queries *vec.Dataset, db *vec.Dataset, dists []float64, m metric.Metric[[]float32]) float64 {
	if queries.N() == 0 {
		return 0
	}
	ranks := make([]int, queries.N())
	par.ForEach(queries.N(), 1, func(i int) {
		ranks[i] = Rank(queries.Row(i), db, dists[i], m)
	})
	total := 0
	for _, r := range ranks {
		total += r
	}
	return float64(total) / float64(len(ranks))
}

// Recall returns the fraction of answers whose distance matches the true
// NN distance exactly (distance-based, so ties among co-located points
// count as correct).
func Recall(got, want []float64) float64 {
	if len(got) == 0 {
		return 0
	}
	c := 0
	for i := range got {
		if got[i] == want[i] {
			c++
		}
	}
	return float64(c) / float64(len(got))
}
