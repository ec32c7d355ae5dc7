// Package kdtree implements a median-split k-d tree over float32 vectors
// under the Euclidean metric. The paper notes (§7.1) that in very low
// dimensions "basic data structures like kd-trees are extremely
// effective" — this package provides that reference baseline so the
// experiments can show where the crossover to metric methods happens.
//
// Leaf candidate rescoring rides the exact row kernel: the database is
// gathered into tree order at build time so every leaf is a contiguous
// block, and a leaf visit is one Kernel.Ordering call instead of
// per-pair Distance calls. Descents compare in ordering space, and
// reported distances match the brute-force reference.
package kdtree

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Tree is an immutable k-d tree built over a dataset.
type Tree struct {
	db    *vec.Dataset
	ker   *metric.Kernel
	nodes []node
	order []int32   // tree position → database id
	flat  []float32 // order-aligned gathered rows: leaves are contiguous
	root  int32
	// DistEvals counts full distance evaluations during queries
	// (diagnostic; not synchronized — meaningful for sequential use).
	DistEvals int64
	leafSize  int
	maxLeaf   int // widest leaf, sizes the per-query scan buffer
}

type node struct {
	// Internal nodes: axis >= 0, split value, children. Leaves: axis == -1
	// and [lo,hi) indexes into order.
	axis        int32
	split       float32
	left, right int32
	lo, hi      int32
}

// order maps tree positions to database ids; stored on Tree via closure
// would allocate, so it lives beside nodes.
type buildCtx struct {
	db    *vec.Dataset
	order []int32
	nodes []node
	leaf  int
}

// Build constructs the tree. leafSize controls when recursion stops;
// values of 8-32 are typical (0 selects 16).
func Build(db *vec.Dataset, leafSize int) *Tree {
	if leafSize <= 0 {
		leafSize = 16
	}
	n := db.N()
	ctx := &buildCtx{db: db, order: make([]int32, n), leaf: leafSize}
	for i := range ctx.order {
		ctx.order[i] = int32(i)
	}
	t := &Tree{db: db, ker: metric.NewKernel(metric.Euclidean{}), leafSize: leafSize}
	if n == 0 {
		t.root = -1
		return t
	}
	t.root = ctx.build(0, n)
	t.nodes = ctx.nodes
	t.order = ctx.order
	// Gather rows into tree order so each leaf's points are one
	// contiguous block the row kernel can stream.
	t.flat = make([]float32, n*db.Dim)
	for p, id := range t.order {
		copy(t.flat[p*db.Dim:(p+1)*db.Dim], db.Row(int(id)))
	}
	for _, nd := range t.nodes {
		if nd.axis < 0 {
			if w := int(nd.hi - nd.lo); w > t.maxLeaf {
				t.maxLeaf = w
			}
		}
	}
	return t
}

func (c *buildCtx) build(lo, hi int) int32 {
	if hi-lo <= c.leaf {
		c.nodes = append(c.nodes, node{axis: -1, lo: int32(lo), hi: int32(hi)})
		return int32(len(c.nodes) - 1)
	}
	// Pick the axis with the widest spread over this cell.
	dim := c.db.Dim
	axis := 0
	bestSpread := float32(-1)
	for a := 0; a < dim; a++ {
		mn, mx := c.db.Row(int(c.order[lo]))[a], c.db.Row(int(c.order[lo]))[a]
		for i := lo + 1; i < hi; i++ {
			v := c.db.Row(int(c.order[i]))[a]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if spread := mx - mn; spread > bestSpread {
			bestSpread = spread
			axis = a
		}
	}
	if bestSpread == 0 {
		// All points in this cell are identical; make it a leaf.
		c.nodes = append(c.nodes, node{axis: -1, lo: int32(lo), hi: int32(hi)})
		return int32(len(c.nodes) - 1)
	}
	seg := c.order[lo:hi]
	mid := len(seg) / 2
	// Median split via full sort on the axis (simple and deterministic;
	// builds are measured separately from queries in the experiments).
	sort.Slice(seg, func(i, j int) bool {
		return c.db.Row(int(seg[i]))[axis] < c.db.Row(int(seg[j]))[axis]
	})
	split := c.db.Row(int(seg[mid]))[axis]
	// Guard against duplicates of the median crossing the boundary: move
	// mid to the first occurrence of split so left strictly < split is
	// not required, only the bounding logic below.
	idx := int32(len(c.nodes))
	c.nodes = append(c.nodes, node{axis: int32(axis), split: split})
	left := c.build(lo, lo+mid)
	right := c.build(lo+mid, hi)
	c.nodes[idx].left = left
	c.nodes[idx].right = right
	return idx
}

// KNN returns the k nearest database points sorted by ascending distance;
// an empty tree answers with an empty slice.
func (t *Tree) KNN(q []float32, k int) []par.Neighbor {
	res, evals := t.knn(q, k)
	t.DistEvals += evals
	return res
}

// knn is the counter-free descent: it returns the evaluations performed
// instead of bumping DistEvals, so batch callers can run queries in
// parallel and fold the counts in afterwards. The heap holds ordering
// distances; conversion happens once per result at the boundary, exactly
// like the brute-force reference.
func (t *Tree) knn(q []float32, k int) ([]par.Neighbor, int64) {
	if t.root < 0 || k <= 0 {
		return nil, 0
	}
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	h := sc.Heap(0, k)
	buf := sc.Float64(0, t.maxLeaf)
	var evals int64
	t.search(t.root, q, h, buf, &evals)
	res := h.Results()
	for i := range res {
		res[i].Dist = t.ker.ToDistance(res[i].Dist)
	}
	par.SortNeighbors(res)
	return res, evals
}

// KNNBatch answers a block of k-NN queries in parallel (queries are
// independent descents), returning per-query results and the total number
// of distance evaluations. DistEvals is bumped once by the total.
func (t *Tree) KNNBatch(queries *vec.Dataset, k int) ([][]par.Neighbor, int64) {
	out := make([][]par.Neighbor, queries.N())
	var total atomic.Int64
	par.ForEach(queries.N(), 1, func(i int) {
		res, evals := t.knn(queries.Row(i), k)
		out[i] = res
		total.Add(evals)
	})
	t.DistEvals += total.Load()
	return out, total.Load()
}

func (t *Tree) search(ni int32, q []float32, h *par.KHeap, buf []float64, evals *int64) {
	nd := &t.nodes[ni]
	if nd.axis < 0 {
		lo, hi := int(nd.lo), int(nd.hi)
		if lo == hi {
			return
		}
		// One row-kernel call rescores the whole leaf block.
		out := buf[:hi-lo]
		dim := t.db.Dim
		t.ker.Ordering(q, t.flat[lo*dim:hi*dim], dim, out)
		for i, o := range out {
			h.Push(int(t.order[lo+i]), o)
		}
		*evals += int64(hi - lo)
		return
	}
	diff := float64(q[nd.axis]) - float64(nd.split)
	near, far := nd.left, nd.right
	if diff > 0 {
		near, far = nd.right, nd.left
	}
	t.search(near, q, h, buf, evals)
	// Visit the far side only if the splitting plane is closer than the
	// current k-th distance (or the heap is not yet full); the heap holds
	// orderings, so the plane distance converts once.
	worst, full := h.Worst()
	if !full || t.ker.FromDistance(math.Abs(diff)) <= worst {
		t.search(far, q, h, buf, evals)
	}
}

// Range returns all points within eps of q sorted by ascending distance.
func (t *Tree) Range(q []float32, eps float64) []par.Neighbor {
	if t.root < 0 {
		return nil
	}
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	buf := sc.Float64(0, t.maxLeaf)
	// Ordering-space prefilter with distance-space confirmation, exactly
	// like bruteforce.RangeSearch, so the inclusive eps boundary survives
	// the ordering round trip.
	epsHi := t.ker.OrderingBound(eps)
	dim := t.db.Dim
	var hits []par.Neighbor
	var walk func(ni int32)
	walk = func(ni int32) {
		nd := &t.nodes[ni]
		if nd.axis < 0 {
			lo, hi := int(nd.lo), int(nd.hi)
			if lo == hi {
				return
			}
			out := buf[:hi-lo]
			t.ker.Ordering(q, t.flat[lo*dim:hi*dim], dim, out)
			t.DistEvals += int64(hi - lo)
			for i, o := range out {
				if o <= epsHi {
					if d := t.ker.ToDistance(o); d <= eps {
						hits = append(hits, par.Neighbor{ID: int(t.order[lo+i]), Dist: d})
					}
				}
			}
			return
		}
		diff := float64(q[nd.axis]) - float64(nd.split)
		near, far := nd.left, nd.right
		if diff > 0 {
			near, far = nd.right, nd.left
		}
		walk(near)
		if math.Abs(diff) <= eps {
			walk(far)
		}
	}
	walk(t.root)
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		return hits[i].ID < hits[j].ID
	})
	return hits
}

// Size reports the number of indexed points.
func (t *Tree) Size() int { return len(t.order) }
