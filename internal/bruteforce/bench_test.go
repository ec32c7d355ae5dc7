package bruteforce

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metric"
	"repro/internal/vec"
)

func benchData(n, dim int) (*vec.Dataset, []float32) {
	rng := rand.New(rand.NewSource(5))
	db := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Float32()
		}
		db.Append(row)
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = rng.Float32()
	}
	return db, q
}

func BenchmarkSearchOne20k(b *testing.B) {
	db, q := benchData(20000, 32)
	m := metric.Euclidean{}
	b.SetBytes(int64(db.N() * db.Dim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SearchOne(q, db, m, nil)
	}
}

func BenchmarkSearchOneK10(b *testing.B) {
	db, q := benchData(20000, 32)
	m := metric.Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SearchOneK(q, db, 10, m, nil)
	}
}

func BenchmarkBatchSearch(b *testing.B) {
	db, _ := benchData(5000, 32)
	queries, _ := benchData(64, 32)
	m := metric.Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(queries, db, m, nil)
	}
}

func BenchmarkRangeSearch(b *testing.B) {
	db, q := benchData(20000, 32)
	m := metric.Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RangeSearch(q, db, 0.5, m, nil)
	}
}

// BF(Q,X) benchmark setting from the acceptance criteria: n=10k, |Q|=256,
// dim swept over {16, 64, 256, 784}. BFTiledExact is the tiled
// matrix-matrix primitive behind Search; BFTiledFast is its 1-NN form on
// the Gram kernel (SearchKFast with k=1); BFPerQuery is the pre-tiling
// baseline (one database stream and one sqrt per candidate per query).

var bfDims = []int{16, 64, 256, 784}

const (
	bfN = 10000
	bfQ = 256
)

func benchQueries(nq, dim int) *vec.Dataset {
	rng := rand.New(rand.NewSource(7))
	qs := vec.New(dim, nq)
	row := make([]float32, dim)
	for i := 0; i < nq; i++ {
		for j := range row {
			row[j] = rng.Float32()
		}
		qs.Append(row)
	}
	return qs
}

func benchBF(b *testing.B, run func(queries, db *vec.Dataset)) {
	for _, dim := range bfDims {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			db, _ := benchData(bfN, dim)
			queries := benchQueries(bfQ, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(queries, db)
			}
			evals := float64(bfN) * float64(bfQ) * float64(b.N)
			b.ReportMetric(evals/b.Elapsed().Seconds(), "dist-evals/s")
		})
	}
}

func BenchmarkBFTiledFast(b *testing.B) {
	benchBF(b, func(queries, db *vec.Dataset) {
		SearchKFast(queries, db, 1, metric.Euclidean{}, nil)
	})
}

func BenchmarkBFTiledExact(b *testing.B) {
	benchBF(b, func(queries, db *vec.Dataset) {
		Search(queries, db, metric.Euclidean{}, nil)
	})
}

func BenchmarkBFPerQuery(b *testing.B) {
	benchBF(b, func(queries, db *vec.Dataset) {
		searchPerQuery(queries, db, metric.Euclidean{}, nil)
	})
}

func BenchmarkBFTiledK10(b *testing.B) {
	benchBF(b, func(queries, db *vec.Dataset) {
		SearchKFast(queries, db, 10, metric.Euclidean{}, nil)
	})
}
