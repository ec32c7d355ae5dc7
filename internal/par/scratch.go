package par

import "sync"

// Scratch is per-worker reusable buffer space for the tiled search paths:
// ordering tiles, distance rows, candidate heaps. A worker acquires one
// with GetScratch, carves buffers out of it by slot, and releases it with
// PutScratch, so steady-state searches perform no per-query allocation.
//
// Slots are small fixed indices chosen by the caller; two live buffers must
// use distinct slots. Requesting a slot again invalidates its previous
// contents (the backing array is reused). Within internal/core and the
// distributed shard scan built on it, the slot ownership convention is:
//
//   - float64 0, 1, 2 and 5 belong to the per-query pruning step: 0
//     holds the phase-1 orderings when a single query computes its own,
//     1 the representative distances, 2 the home probe's orderings, 5
//     the list-scan block that doubles as the buffer-scan cell;
//   - float64 3 and 4 belong to the batched front half
//     (core.tileFrontHalf: rows, kernel tile); float64 6 is unused;
//   - float64 7 is time-shared within one query tile: the pruner uses it
//     for the live-γ buffer, and core.ScanGrouped — which only runs once
//     every query of the tile has been pruned — re-carves it for its
//     kernel tile, along with float32 slot 0 and int slots 2–3 for its
//     block bookkeeping;
//   - int slot 0 holds a back half's kept (query, list, lo, hi)
//     quadruples, and core.ScanGrouped owns int slots 1, 4 and 5 (taker
//     windows, per-list taker counts, taker ids);
//   - int slot 6 belongs to the distributed shard scan: per query, its
//     local home entry and probed run, kept across the scan's two
//     core.ScanGrouped passes;
//   - heap slot 0 is a single query's result heap (or OneShot's probe
//     selector), heap slot 1 the k-th-smallest selector.
type Scratch struct {
	f64   [8][]float64
	f32   [2][]float32
	i8    [2][]int8
	ints  [7][]int
	heaps [2]*KHeap
	slab  []*KHeap
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled Scratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns s to the pool. The caller must not retain any buffer
// obtained from s afterwards.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// Float64 returns a length-n float64 buffer for slot. Contents are
// unspecified.
func (s *Scratch) Float64(slot, n int) []float64 {
	if cap(s.f64[slot]) < n {
		s.f64[slot] = make([]float64, n)
	}
	s.f64[slot] = s.f64[slot][:n]
	return s.f64[slot]
}

// Float32 returns a length-n float32 buffer for slot. Contents are
// unspecified.
func (s *Scratch) Float32(slot, n int) []float32 {
	if cap(s.f32[slot]) < n {
		s.f32[slot] = make([]float32, n)
	}
	s.f32[slot] = s.f32[slot][:n]
	return s.f32[slot]
}

// Int8s returns a length-n int8 buffer for slot. Contents are
// unspecified. Used by the quantized scan paths for encoded query codes.
func (s *Scratch) Int8s(slot, n int) []int8 {
	if cap(s.i8[slot]) < n {
		s.i8[slot] = make([]int8, n)
	}
	s.i8[slot] = s.i8[slot][:n]
	return s.i8[slot]
}

// Ints returns a length-n int buffer for slot. Contents are unspecified.
func (s *Scratch) Ints(slot, n int) []int {
	if cap(s.ints[slot]) < n {
		s.ints[slot] = make([]int, n)
	}
	s.ints[slot] = s.ints[slot][:n]
	return s.ints[slot]
}

// Heap returns an empty KHeap with capacity k for slot.
func (s *Scratch) Heap(slot, k int) *KHeap {
	if s.heaps[slot] == nil {
		s.heaps[slot] = NewKHeap(k)
		return s.heaps[slot]
	}
	s.heaps[slot].Reconfigure(k)
	return s.heaps[slot]
}

// HeapSlab returns n empty heaps of capacity k, for callers that select
// top-k for a block of queries at once.
func (s *Scratch) HeapSlab(n, k int) []*KHeap {
	for len(s.slab) < n {
		s.slab = append(s.slab, NewKHeap(k))
	}
	for i := 0; i < n; i++ {
		s.slab[i].Reconfigure(k)
	}
	return s.slab[:n]
}
