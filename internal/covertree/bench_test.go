package covertree

import (
	"math/rand"
	"testing"

	"repro/internal/metric"
)

func benchRows(n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float32, n)
	for i := range rows {
		c := float32(rng.Intn(12)) * 4
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = c + float32(rng.NormFloat64())
		}
	}
	return rows
}

func BenchmarkBuild5k(b *testing.B) {
	rows := benchRows(5000, 8)
	m := metric.Metric[[]float32](metric.Euclidean{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(rows, m)
	}
}

func BenchmarkNN(b *testing.B) {
	rows := benchRows(20000, 8)
	tree := Build(rows, metric.Metric[[]float32](metric.Euclidean{}))
	q := rows[99]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(q, 1)
	}
}

func BenchmarkKNN10(b *testing.B) {
	rows := benchRows(20000, 8)
	tree := Build(rows, metric.Metric[[]float32](metric.Euclidean{}))
	q := rows[99]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(q, 10)
	}
}
