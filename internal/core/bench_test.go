package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metric"
	"repro/internal/vec"
)

// Micro-benchmarks of the core RBC operations, kept small; the paper-
// artifact benchmarks live at the repository root.

func benchDB(n, dim int) *vec.Dataset {
	rng := rand.New(rand.NewSource(9))
	db := vec.New(dim, n)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		c := float32(rng.Intn(16)) * 4
		for j := range row {
			row[j] = c + float32(rng.NormFloat64())
		}
		db.Append(row)
	}
	return db
}

func BenchmarkBuildExact(b *testing.B) {
	db := benchDB(5000, 16)
	nr := int(2 * math.Sqrt(5000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildExact(db, metric.Euclidean{}, ExactParams{NumReps: nr, Seed: 1, ExactCount: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildOneShot(b *testing.B) {
	db := benchDB(5000, 16)
	nr := int(2 * math.Sqrt(5000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{NumReps: nr, S: nr, Seed: 1, ExactCount: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactOne and BenchmarkOneShotOne time the 1-NN search, KNN at
// k = 1; their names are pinned in BENCH_baseline.json.
func BenchmarkExactOne(b *testing.B) {
	db := benchDB(20000, 16)
	idx, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := db.Row(77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(q, 1)
	}
}

func BenchmarkExactKNN10(b *testing.B) {
	db := benchDB(20000, 16)
	idx, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := db.Row(77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(q, 10)
	}
}

func BenchmarkOneShotOne(b *testing.B) {
	db := benchDB(20000, 16)
	idx, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := db.Row(77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(q, 1)
	}
}

// BenchmarkOneShotKNNBatch times a 128-query block at k = 1 over
// BenchmarkOneShotOne's index: the tiled front half plus one list scan per
// query. Its name is pinned in BENCH_baseline.json.
func BenchmarkOneShotKNNBatch(b *testing.B) {
	db := benchDB(20000, 16)
	idx, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := db.Subset(seqInts(0, 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNNBatch(queries, 1)
	}
}

// BenchmarkExactKNNBatch times a 128-query block at k = 1 on a pristine
// index and after one Delete: of a point that is not a representative
// (the pruner then still reads no tombstone) and of a representative
// (it does). Both mutated blocks run the same grouped back half.
func BenchmarkExactKNNBatch(b *testing.B) {
	db := benchDB(20000, 16)
	queries := db.Subset(seqInts(0, 128))
	for _, c := range []struct {
		name   string
		victim func(e *Exact) int // -1: no Delete
	}{
		{"pristine", func(*Exact) int { return -1 }},
		{"delete-point", func(e *Exact) int {
			id := 128
			for e.isRep[id] {
				id++
			}
			return id
		}},
		{"delete-rep", func(e *Exact) int { return e.RepIDs()[0] }},
	} {
		b.Run(c.name, func(b *testing.B) {
			idx, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if id := c.victim(idx); id >= 0 {
				if err := idx.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.KNNBatch(queries, 1)
			}
		})
	}
}

func BenchmarkExactRange(b *testing.B) {
	db := benchDB(20000, 16)
	idx, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := db.Row(77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Range(q, 3.0)
	}
}

func BenchmarkGenericExactEdit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	words := make([]string, 2000)
	for i := range words {
		l := rng.Intn(8) + 4
		w := make([]byte, l)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(w)
	}
	idx, err := BuildGenericExact(words, metric.Metric[string](metric.Edit{}), ExactParams{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(words[i%len(words)], 1)
	}
}
