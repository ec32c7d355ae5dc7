package par

import (
	"math"
	"slices"
)

// Neighbor is a candidate result: a point id and its distance to the
// query.
type Neighbor struct {
	ID   int
	Dist float64
}

// KHeap keeps the k smallest-distance neighbors seen so far using a
// bounded binary max-heap: the root is the current worst kept neighbor, so
// a candidate is admitted only if it beats the root. Push is O(log k) and
// the heap never allocates after construction.
//
// Ties on distance break toward the smaller ID so that results are
// deterministic regardless of insertion order.
type KHeap struct {
	k    int
	data []Neighbor // max-heap on (Dist, ID)
}

// NewKHeap returns a heap that retains the k nearest neighbors. k must be
// positive.
func NewKHeap(k int) *KHeap {
	if k <= 0 {
		panic("par: KHeap needs k >= 1")
	}
	return &KHeap{k: k, data: make([]Neighbor, 0, k)}
}

// K reports the heap's capacity.
func (h *KHeap) K() int { return h.k }

// Len reports how many neighbors are currently held.
func (h *KHeap) Len() int { return len(h.data) }

// Full reports whether k neighbors are held.
func (h *KHeap) Full() bool { return len(h.data) == h.k }

// Worst returns the largest kept distance, or +Inf with ok=false when the
// heap is not yet full (every candidate is admissible). A candidate with
// dist > Worst is one Push would reject, so scans can test it first and
// skip the rest of their per-candidate work; ties at Worst must still be
// offered, since they win on a lower ID.
func (h *KHeap) Worst() (dist float64, ok bool) {
	if !h.Full() {
		return math.Inf(1), false
	}
	return h.data[0].Dist, true
}

// worse reports whether a should sift above b in the max-heap.
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// Push offers a candidate. It returns true if the candidate was kept.
func (h *KHeap) Push(id int, dist float64) bool {
	cand := Neighbor{ID: id, Dist: dist}
	if len(h.data) < h.k {
		h.data = append(h.data, cand)
		h.siftUp(len(h.data) - 1)
		return true
	}
	if !worse(h.data[0], cand) {
		return false
	}
	h.data[0] = cand
	h.siftDown(0)
	return true
}

func (h *KHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.data[i], h.data[p]) {
			return
		}
		h.data[i], h.data[p] = h.data[p], h.data[i]
		i = p
	}
}

func (h *KHeap) siftDown(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && worse(h.data[l], h.data[m]) {
			m = l
		}
		if r < n && worse(h.data[r], h.data[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.data[i], h.data[m] = h.data[m], h.data[i]
		i = m
	}
}

// Merge folds every neighbor of o into h. Used to combine per-worker heaps
// after a parallel scan.
func (h *KHeap) Merge(o *KHeap) {
	for _, nb := range o.data {
		h.Push(nb.ID, nb.Dist)
	}
}

// Results returns the kept neighbors sorted by ascending distance (ties by
// ascending ID). The heap is left unchanged.
func (h *KHeap) Results() []Neighbor {
	out := make([]Neighbor, len(h.data))
	copy(out, h.data)
	SortNeighbors(out)
	return out
}

// Reset empties the heap, retaining capacity.
func (h *KHeap) Reset() { h.data = h.data[:0] }

// Reconfigure empties the heap and sets a new capacity bound, reusing the
// backing array when possible. k must be positive.
func (h *KHeap) Reconfigure(k int) {
	if k <= 0 {
		panic("par: KHeap needs k >= 1")
	}
	h.k = k
	if cap(h.data) < k {
		h.data = make([]Neighbor, 0, k)
	} else {
		h.data = h.data[:0]
	}
}

// Best returns the smallest kept neighbor (ties toward the lower ID)
// without allocating. ok is false when the heap is empty.
func (h *KHeap) Best() (best Neighbor, ok bool) {
	if len(h.data) == 0 {
		return Neighbor{}, false
	}
	best = h.data[0]
	for _, nb := range h.data[1:] {
		if nb.Dist < best.Dist || (nb.Dist == best.Dist && nb.ID < best.ID) {
			best = nb
		}
	}
	return best, true
}

// Kept returns the retained neighbors in heap order (unsorted). The slice
// is borrowed: it is valid only until the next Push, Reset or Reconfigure.
func (h *KHeap) Kept() []Neighbor { return h.data }

// SortNeighbors orders ns by ascending (Dist, ID) without allocating.
// Callers that select in ordering space re-sort with this after converting
// to distances, because the conversion can map adjacent ordering values to
// equal distances (and math.Pow-based conversions are not even guaranteed
// monotone over adjacent floats).
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case a.Dist != b.Dist:
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		case a.ID != b.ID:
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
}
