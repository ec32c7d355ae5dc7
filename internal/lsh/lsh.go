// Package lsh implements Euclidean locality-sensitive hashing (the
// p-stable scheme of Datar et al., the "E2LSH" family) — the other major
// line of sublinear NN work the paper's §2 discusses and contrasts with
// the RBC: provably sublinear and dimension-independent, but inherently
// approximate, tied to specific distance functions, and notoriously
// parameter-sensitive ("setting the parameters correctly can be complex",
// citing Dong et al.). Implementing it makes that comparison concrete:
// the harness's lsh-compare experiment measures recall/work for both.
//
// Scheme: each of L tables hashes a point to the concatenation of K
// quantized random projections h_i(x) = ⌊(a_i·x + b_i)/W⌋ with
// a_i ~ N(0,I) and b_i ~ U[0,W). A query probes its bucket in every
// table, collects the union of candidates, and ranks them by true
// distance. The ranking (candidate rescoring) runs through the exact row
// kernel via bruteforce.RescoreK, so reported distances match the
// brute-force reference.
package lsh

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Params configures an Index.
type Params struct {
	// L is the number of hash tables (default 8).
	L int
	// K is the number of concatenated projections per table (default 12).
	K int
	// W is the quantization width. Zero selects a data-driven default:
	// the mean distance from a sample of points to their nearest sampled
	// neighbor (so one bucket roughly spans nearest-neighbor scale).
	W float64
	// Seed drives the random projections.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.L <= 0 {
		p.L = 8
	}
	if p.K <= 0 {
		p.K = 12
	}
	return p
}

// Index is an LSH structure over a dataset (Euclidean metric only — one
// of the structural limitations §2 notes relative to general-metric
// methods like the RBC).
type Index struct {
	db  *vec.Dataset
	prm Params
	ker *metric.Kernel // candidate-rescoring kernel (exact grade)

	// proj holds L*K projection vectors of dimension dim, row-major;
	// offsets holds the matching L*K uniform shifts.
	proj    []float64
	offsets []float64
	tables  []map[uint64][]int32
	hseed   maphash.Seed
}

// Build constructs the index. The database must be non-empty.
func Build(db *vec.Dataset, prm Params) (*Index, error) {
	if db.N() == 0 || db.Dim == 0 {
		return nil, fmt.Errorf("lsh: empty database")
	}
	prm = prm.withDefaults()
	rng := rand.New(rand.NewSource(prm.Seed))
	if prm.W <= 0 {
		prm.W = estimateW(db, rng)
	}
	idx := &Index{
		db: db, prm: prm,
		proj:    make([]float64, prm.L*prm.K*db.Dim),
		offsets: make([]float64, prm.L*prm.K),
		tables:  make([]map[uint64][]int32, prm.L),
		hseed:   maphash.MakeSeed(),
		ker:     metric.NewKernel(metric.Euclidean{}),
	}
	for i := range idx.proj {
		idx.proj[i] = rng.NormFloat64()
	}
	for i := range idx.offsets {
		idx.offsets[i] = rng.Float64() * prm.W
	}
	// Hash every point into every table; tables fill in parallel (each
	// goroutine owns whole tables, so no locking).
	par.ForEach(prm.L, 1, func(t int) {
		table := make(map[uint64][]int32, db.N())
		keys := make([]int64, prm.K)
		for i := 0; i < db.N(); i++ {
			idx.hashInto(t, db.Row(i), keys)
			h := idx.bucketKey(keys)
			table[h] = append(table[h], int32(i))
		}
		idx.tables[t] = table
	})
	return idx, nil
}

// estimateW samples pairs to set the bucket width at nearest-neighbor
// scale.
func estimateW(db *vec.Dataset, rng *rand.Rand) float64 {
	const sample = 24
	n := db.N()
	if n == 1 {
		return 1
	}
	m := metric.Euclidean{}
	var total float64
	count := 0
	for s := 0; s < sample; s++ {
		i := rng.Intn(n)
		best := math.Inf(1)
		// Nearest among a bounded random subset: O(sample²) total work.
		for t := 0; t < 64; t++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			if d := m.Distance(db.Row(i), db.Row(j)); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) && best > 0 {
			total += best
			count++
		}
	}
	if count == 0 {
		return 1
	}
	// A bucket several times wider than nearest-neighbor scale keeps the
	// per-hash collision probability of true neighbors high enough to
	// survive K-fold concatenation (the standard E2LSH tuning guidance).
	return 4 * total / float64(count)
}

// hashInto computes the K quantized projections of x for table t.
func (idx *Index) hashInto(t int, x []float32, out []int64) {
	dim := idx.db.Dim
	for k := 0; k < idx.prm.K; k++ {
		row := idx.proj[(t*idx.prm.K+k)*dim : (t*idx.prm.K+k+1)*dim]
		dot := idx.offsets[t*idx.prm.K+k]
		for j, v := range x {
			dot += row[j] * float64(v)
		}
		out[k] = int64(math.Floor(dot / idx.prm.W))
	}
}

// bucketKey hashes the K-tuple into a table key.
func (idx *Index) bucketKey(keys []int64) uint64 {
	var h maphash.Hash
	h.SetSeed(idx.hseed)
	var buf [8]byte
	for _, k := range keys {
		u := uint64(k)
		for b := 0; b < 8; b++ {
			buf[b] = byte(u >> (8 * b))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// KNN returns up to k candidates ranked by true distance, and the number of
// distance evaluations performed (the LSH work measure). The bucket union
// is deduplicated and rescored in one pass through bruteforce.RescoreK, so
// the ranking inner loop rides the row kernel instead of per-pair Distance
// calls. With unlucky hashing the candidate set can be empty, and so is
// the answer — approximation is inherent to the scheme.
func (idx *Index) KNN(q []float32, k int) ([]par.Neighbor, int) {
	if k <= 0 {
		return nil, 0
	}
	keys := make([]int64, idx.prm.K)
	seen := make(map[int32]struct{}, 64)
	var cands []int
	for t := 0; t < idx.prm.L; t++ {
		idx.hashInto(t, q, keys)
		for _, id := range idx.tables[t][idx.bucketKey(keys)] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			cands = append(cands, int(id))
		}
	}
	return bruteforce.RescoreK(idx.ker, q, idx.db, cands, k, nil), len(cands)
}

// SearchK answers a batch of k-NN queries in parallel (table probes are
// read-only after Build, so queries are independent), returning per-query
// candidates and the total number of distance evaluations.
func (idx *Index) SearchK(queries *vec.Dataset, k int) ([][]par.Neighbor, int64) {
	out := make([][]par.Neighbor, queries.N())
	evals := make([]int, queries.N())
	par.ForEach(queries.N(), 1, func(i int) {
		out[i], evals[i] = idx.KNN(queries.Row(i), k)
	})
	var total int64
	for _, e := range evals {
		total += int64(e)
	}
	return out, total
}

// Params reports the (defaulted) parameters in use, including the
// data-driven W.
func (idx *Index) Params() Params { return idx.prm }

// BucketStats summarizes table occupancy — the diagnostic LSH tuning
// lives and dies by.
type BucketStats struct {
	Tables       int
	Buckets      int
	MaxBucket    int
	MeanBucket   float64
	EmptyQueries float64 // expected fraction of probes hitting no bucket
}

// Stats computes occupancy statistics across tables.
func (idx *Index) Stats() BucketStats {
	st := BucketStats{Tables: len(idx.tables)}
	total := 0
	for _, table := range idx.tables {
		st.Buckets += len(table)
		for _, ids := range table {
			total += len(ids)
			if len(ids) > st.MaxBucket {
				st.MaxBucket = len(ids)
			}
		}
	}
	if st.Buckets > 0 {
		st.MeanBucket = float64(total) / float64(st.Buckets)
	}
	return st
}
