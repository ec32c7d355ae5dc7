package metric

import (
	"math/rand"
	"testing"
)

func benchVectors(dim int) (q []float32, flat []float32, out []float64) {
	rng := rand.New(rand.NewSource(1))
	const n = 1024
	q = make([]float32, dim)
	flat = make([]float32, n*dim)
	out = make([]float64, n)
	for i := range q {
		q[i] = rng.Float32()
	}
	for i := range flat {
		flat[i] = rng.Float32()
	}
	return
}

func benchmarkBatch(b *testing.B, m Metric[[]float32], dim int) {
	q, flat, out := benchVectors(dim)
	k := NewKernel(m)
	b.SetBytes(int64(len(flat) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Ordering(q, flat, dim, out)
	}
}

func BenchmarkEuclideanBatch16(b *testing.B) { benchmarkBatch(b, Euclidean{}, 16) }
func BenchmarkEuclideanBatch64(b *testing.B) { benchmarkBatch(b, Euclidean{}, 64) }
func BenchmarkManhattanBatch64(b *testing.B) { benchmarkBatch(b, Manhattan{}, 64) }
func BenchmarkChebyshevBatch64(b *testing.B) { benchmarkBatch(b, Chebyshev{}, 64) }
func BenchmarkMinkowskiFallback16(b *testing.B) {
	benchmarkBatch(b, NewMinkowski(3), 16)
}

func BenchmarkEuclideanScalar64(b *testing.B) {
	q, flat, _ := benchVectors(64)
	m := Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(q, flat[:64])
	}
}

func BenchmarkEditDistance(b *testing.B) {
	m := Edit{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance("accelerating", "acceleration")
	}
}
