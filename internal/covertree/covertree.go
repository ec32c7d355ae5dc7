// Package covertree implements the cover tree of Beygelzimer, Kakade and
// Langford ("Cover trees for nearest neighbor", ICML 2006) — the paper's
// state-of-the-art sequential baseline for the desktop comparison
// (Table 3). Like the RBC it is parameterized by the expansion rate, but
// its query algorithm is a deep, conditional tree descent: exactly the
// computational structure §3 of the RBC paper argues is hard to
// parallelize. It is kept sequential here for the same reason the paper
// ran it on one core.
//
// Invariants (base 2): a node at level i has children at level i-1 within
// distance 2^i; all descendants of a level-i node lie within 2^(i+1);
// nodes at a given level are pairwise > 2^i apart (maintained by the
// insertion rule). Duplicate points are stored in a per-node bag rather
// than as zero-distance subtrees.
package covertree

import (
	"math"

	"repro/internal/metric"
	"repro/internal/par"
)

// Tree is a cover tree over points of type P.
type Tree[P any] struct {
	m        metric.Metric[P]
	root     *node[P]
	minLevel int
	size     int
	// DistEvals counts metric evaluations across all operations; queries
	// are sequential so a plain counter suffices.
	DistEvals int64
}

type node[P any] struct {
	p        P
	id       int
	level    int
	children []*node[P]
	dups     []int // ids of points identical to p
}

// floorLevel is the level below which two points are treated as
// duplicates (distance < 2^floorLevel ≈ 1e-18).
const floorLevel = -60

// New creates an empty cover tree using metric m.
func New[P any](m metric.Metric[P]) *Tree[P] {
	return &Tree[P]{m: m, minLevel: math.MaxInt32}
}

// Build constructs a tree over db by sequential insertion, returning the
// tree. IDs are the indices into db.
func Build[P any](db []P, m metric.Metric[P]) *Tree[P] {
	t := New(m)
	for i, p := range db {
		t.Insert(p, i)
	}
	return t
}

// Size reports the number of points stored (including duplicates).
func (t *Tree[P]) Size() int { return t.size }

func (t *Tree[P]) dist(a, b P) float64 {
	t.DistEvals++
	return t.m.Distance(a, b)
}

func pow2(i int) float64 { return math.Ldexp(1, i) }

// levelFor returns the smallest level l with d ≤ 2^l.
func levelFor(d float64) int {
	l := int(math.Ceil(math.Log2(d)))
	if l < floorLevel {
		l = floorLevel
	}
	return l
}

// Insert adds point p with identifier id.
func (t *Tree[P]) Insert(p P, id int) {
	t.size++
	if t.root == nil {
		t.root = &node[P]{p: p, id: id, level: floorLevel}
		return
	}
	d := t.dist(p, t.root.p)
	if d < pow2(floorLevel) {
		t.root.dups = append(t.root.dups, id)
		return
	}
	// Grow the root's level until it covers the new point.
	if lvl := levelFor(d); lvl > t.root.level {
		t.root.level = lvl
	}
	if !t.insert(p, id, []qnode[P]{{t.root, d}}, t.root.level) {
		// Cannot happen once the root covers p, but guard against
		// floating-point edge cases by growing once more and retrying.
		t.root.level++
		if !t.insert(p, id, []qnode[P]{{t.root, t.dist(p, t.root.p)}}, t.root.level) {
			panic("covertree: insertion failed after root growth")
		}
	}
}

// qnode pairs a node with its (already computed) distance to the point
// being inserted or queried, so no distance is evaluated twice.
type qnode[P any] struct {
	n *node[P]
	d float64
}

// insert implements the BKL recursive insertion. Qi is the level-i cover
// set: nodes whose subtrees may adopt p. Returns false if p cannot be
// placed below this cover set.
func (t *Tree[P]) insert(p P, id int, qi []qnode[P], level int) bool {
	if level <= floorLevel {
		// Deep recursion means p is (numerically) a duplicate of the
		// nearest cover node.
		best := qi[0]
		for _, q := range qi[1:] {
			if q.d < best.d {
				best = q
			}
		}
		best.n.dups = append(best.n.dups, id)
		return true
	}
	sep := pow2(level)
	// Candidate set: Qi plus Qi's children at level-1 (self-children are
	// implicit: the node itself stands for its copy at every lower level).
	cand := qi
	for _, q := range qi {
		for _, c := range q.n.children {
			if c.level == level-1 {
				cand = append(cand, qnode[P]{c, t.dist(p, c.p)})
			}
		}
	}
	minD := math.Inf(1)
	for _, c := range cand {
		if c.d < minD {
			minD = c.d
		}
	}
	if minD > sep {
		return false // p is separated from everything at this scale
	}
	if minD < pow2(floorLevel) {
		// Numerical duplicate: attach to the zero-distance node.
		for _, c := range cand {
			if c.d == minD {
				c.n.dups = append(c.n.dups, id)
				return true
			}
		}
	}
	// Next cover set: candidates within 2^level.
	var next []qnode[P]
	for _, c := range cand {
		if c.d <= sep {
			next = append(next, c)
		}
	}
	if t.insert(p, id, next, level-1) {
		return true
	}
	// The child levels refused p: adopt it here under any parent in Qi
	// within 2^level.
	for _, q := range qi {
		if q.d <= sep {
			child := &node[P]{p: p, id: id, level: level - 1}
			q.n.children = append(q.n.children, child)
			if level-1 < t.minLevel {
				t.minLevel = level - 1
			}
			return true
		}
	}
	return false
}

// KNN returns the k nearest stored points sorted by ascending distance; an
// empty tree answers with an empty slice.
// The search is the BKL batch descent: maintain a cover set per level,
// expand children, and discard nodes whose subtrees provably cannot
// contain a k-th nearest neighbor.
func (t *Tree[P]) KNN(q P, k int) []par.Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	h := par.NewKHeap(k)
	push := func(n *node[P], d float64) {
		h.Push(n.id, d)
		for _, dup := range n.dups {
			h.Push(dup, d)
		}
	}
	d0 := t.dist(q, t.root.p)
	push(t.root, d0)
	cover := []qnode[P]{{t.root, d0}}
	for level := t.root.level; level >= t.minLevel && len(cover) > 0; level-- {
		// Expand children living at level-1.
		next := cover
		for _, c := range cover {
			for _, ch := range c.n.children {
				if ch.level == level-1 {
					d := t.dist(q, ch.p)
					push(ch, d)
					next = append(next, qnode[P]{ch, d})
				}
			}
		}
		// Prune: after this expansion every unexplored descendant of a
		// node in next hangs below level-1, hence lies within 2^level of
		// it. worst is the current k-th distance (∞ while unfilled).
		worst := math.Inf(1)
		if w, ok := h.Worst(); ok {
			worst = w
		}
		bound := worst + pow2(level)
		kept := next[:0]
		for _, c := range next {
			if c.d <= bound && t.hasChildrenBelow(c.n, level-1) {
				kept = append(kept, c)
			}
		}
		cover = kept
	}
	return h.Results()
}

// KNNBatch answers a block of k-NN queries. The descent is a deep,
// conditional recursion (the structure §3 argues is hard to parallelize)
// and DistEvals is a plain counter, so the batch runs sequentially — the
// method exists to satisfy the batch query plane's interface, not to win
// throughput.
func (t *Tree[P]) KNNBatch(queries []P, k int) [][]par.Neighbor {
	out := make([][]par.Neighbor, len(queries))
	for i, q := range queries {
		out[i] = t.KNN(q, k)
	}
	return out
}

func (t *Tree[P]) hasChildrenBelow(n *node[P], level int) bool {
	for _, c := range n.children {
		if c.level <= level {
			return true
		}
	}
	return false
}

// Range returns every stored point within eps of q, sorted by ascending
// distance. Subtree pruning uses the same 2^level descendant bound with
// eps in place of the k-th distance.
func (t *Tree[P]) Range(q P, eps float64) []par.Neighbor {
	if t.root == nil {
		return nil
	}
	var hits []par.Neighbor
	collect := func(n *node[P], d float64) {
		if d <= eps {
			hits = append(hits, par.Neighbor{ID: n.id, Dist: d})
			for _, dup := range n.dups {
				hits = append(hits, par.Neighbor{ID: dup, Dist: d})
			}
		}
	}
	d0 := t.dist(q, t.root.p)
	collect(t.root, d0)
	cover := []qnode[P]{{t.root, d0}}
	for level := t.root.level; level >= t.minLevel && len(cover) > 0; level-- {
		next := cover
		for _, c := range cover {
			for _, ch := range c.n.children {
				if ch.level == level-1 {
					d := t.dist(q, ch.p)
					collect(ch, d)
					next = append(next, qnode[P]{ch, d})
				}
			}
		}
		bound := eps + pow2(level)
		kept := next[:0]
		for _, c := range next {
			if c.d <= bound && t.hasChildrenBelow(c.n, level-1) {
				kept = append(kept, c)
			}
		}
		cover = kept
	}
	// Insertion-sort: hits are few in typical range queries.
	for i := 1; i < len(hits); i++ {
		x := hits[i]
		j := i - 1
		for j >= 0 && (hits[j].Dist > x.Dist || (hits[j].Dist == x.Dist && hits[j].ID > x.ID)) {
			hits[j+1] = hits[j]
			j--
		}
		hits[j+1] = x
	}
	return hits
}

// Depth returns the number of explicit levels spanned by the tree — a
// diagnostic for the "deep tree" structure contrasted with the RBC's two
// flat scans.
func (t *Tree[P]) Depth() int {
	if t.root == nil || t.minLevel == math.MaxInt32 {
		return 0
	}
	return t.root.level - t.minLevel + 1
}

// Validate walks the tree checking the covering and separation
// invariants; it returns false (with a reason) on violation. Used by
// tests and available as a production sanity check.
func (t *Tree[P]) Validate() (bool, string) {
	if t.root == nil {
		return true, ""
	}
	var walk func(n *node[P]) (bool, string)
	walk = func(n *node[P]) (bool, string) {
		for _, c := range n.children {
			if c.level >= n.level {
				return false, "child level not below parent"
			}
			if d := t.m.Distance(n.p, c.p); d > pow2(c.level+1) {
				return false, "covering violated"
			}
			if ok, why := walk(c); !ok {
				return false, why
			}
		}
		// Separation: children at the same level must be > 2^level apart.
		for i := 0; i < len(n.children); i++ {
			for j := i + 1; j < len(n.children); j++ {
				a, b := n.children[i], n.children[j]
				if a.level == b.level {
					if d := t.m.Distance(a.p, b.p); d <= pow2(a.level) && d > 0 {
						return false, "separation violated"
					}
				}
			}
		}
		return true, ""
	}
	return walk(t.root)
}
