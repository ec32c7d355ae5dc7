package bruteforce

import (
	"math"

	"repro/internal/metric"
	"repro/internal/par"
)

// This file carries the generic (arbitrary point type) variants of the
// brute-force primitive, used by the RBC over non-vector metric spaces
// such as strings under edit distance or graph nodes under shortest-path
// distance.

// SearchOneGeneric returns the nearest neighbor of q among db under m.
func SearchOneGeneric[P any](q P, db []P, m metric.Metric[P], c *Counter) Result {
	best := Result{ID: -1, Dist: math.Inf(1)}
	for i := range db {
		d := m.Distance(q, db[i])
		if d < best.Dist {
			best = Result{ID: i, Dist: d}
		}
	}
	c.Add(len(db))
	return best
}

// SearchGeneric is BF(Q,X) for arbitrary point types, parallel over
// queries.
func SearchGeneric[P any](queries, db []P, m metric.Metric[P], c *Counter) []Result {
	out := make([]Result, len(queries))
	par.ForEach(len(queries), 1, func(i int) {
		out[i] = SearchOneGeneric(queries[i], db, m, c)
	})
	return out
}

// SearchOneKGeneric returns the k nearest neighbors of q among db, sorted
// by ascending distance.
func SearchOneKGeneric[P any](q P, db []P, k int, m metric.Metric[P], c *Counter) []par.Neighbor {
	if len(db) == 0 || k <= 0 {
		return nil
	}
	h := par.NewKHeap(k)
	for i := range db {
		h.Push(i, m.Distance(q, db[i]))
	}
	c.Add(len(db))
	return h.Results()
}

// RangeSearchGeneric returns all points of db within eps of q, sorted by
// ascending distance.
func RangeSearchGeneric[P any](q P, db []P, eps float64, m metric.Metric[P], c *Counter) []par.Neighbor {
	var hits []par.Neighbor
	for i := range db {
		if d := m.Distance(q, db[i]); d <= eps {
			hits = append(hits, par.Neighbor{ID: i, Dist: d})
		}
	}
	c.Add(len(db))
	sortNeighbors(hits)
	return hits
}
