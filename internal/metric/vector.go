package metric

import (
	"fmt"
	"math"
)

// Euclidean is the l2 metric, the distance used for all of the paper's
// experiments. Accumulation is in float64 so that exactness tests against
// brute force are tie-stable on float32 data.
type Euclidean struct{}

// Distance implements Metric.
func (Euclidean) Distance(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Distances implements Batch: the sqrt of the exact-grade orderings.
func (e Euclidean) Distances(q []float32, flat []float32, dim int, out []float64) {
	e.OrderingDistances(q, flat, dim, out)
	for i := range out {
		out[i] = math.Sqrt(out[i])
	}
}

// OrderingDistances implements OrderingBatch: squared distances in the
// exact grade's four-lane float64 accumulation (see exact.go), the sqrt
// deferred to the caller.
func (Euclidean) OrderingDistances(q []float32, flat []float32, dim int, out []float64) {
	euclidExactRows(q, flat, dim, out)
}

// ToDistance implements Orderer: the ordering distance is the square.
func (Euclidean) ToDistance(o float64) float64 { return math.Sqrt(o) }

// FromDistance implements Orderer.
func (Euclidean) FromDistance(d float64) float64 { return d * d }

// MultiDistances implements BatchMulti with the cache-blocked Gram kernel
// (squared-distance ordering; norms computed per call). Callers that reuse
// a point set across calls should go through Kernel with precomputed norms.
func (Euclidean) MultiDistances(qflat, pflat []float32, dim int, out []float64) {
	NewFastKernel(Euclidean{}).Tile(qflat, nil, pflat, nil, dim, out, nil)
}

// Manhattan is the l1 metric — the metric under which the paper's grid
// example has expansion rate exactly 2^d.
type Manhattan struct{}

// Distance implements Metric.
func (Manhattan) Distance(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s
}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// OrderingDistances implements OrderingBatch; the l1 ordering distance is
// the distance itself.
func (m Manhattan) OrderingDistances(q []float32, flat []float32, dim int, out []float64) {
	m.Distances(q, flat, dim, out)
}

// Distances implements Batch.
func (Manhattan) Distances(q []float32, flat []float32, dim int, out []float64) {
	for i := range out {
		row := flat[i*dim : (i+1)*dim]
		var s float64
		for j := 0; j < dim; j++ {
			s += math.Abs(float64(q[j]) - float64(row[j]))
		}
		out[i] = s
	}
}

// Chebyshev is the l-infinity metric.
type Chebyshev struct{}

// Distance implements Metric.
func (Chebyshev) Distance(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// Name implements Metric.
func (Chebyshev) Name() string { return "chebyshev" }

// OrderingDistances implements OrderingBatch; the l∞ ordering distance is
// the distance itself.
func (c Chebyshev) OrderingDistances(q []float32, flat []float32, dim int, out []float64) {
	c.Distances(q, flat, dim, out)
}

// Distances implements Batch.
func (Chebyshev) Distances(q []float32, flat []float32, dim int, out []float64) {
	for i := range out {
		row := flat[i*dim : (i+1)*dim]
		var m float64
		for j := 0; j < dim; j++ {
			d := math.Abs(float64(q[j]) - float64(row[j]))
			if d > m {
				m = d
			}
		}
		out[i] = m
	}
}

// Minkowski is the lp metric for p >= 1. p < 1 does not satisfy the
// triangle inequality, so the constructor rejects it.
type Minkowski struct {
	P float64
}

// NewMinkowski returns the lp metric. It panics if p < 1.
func NewMinkowski(p float64) Minkowski {
	if p < 1 {
		panic(fmt.Sprintf("metric: Minkowski p=%v is not a metric (need p >= 1)", p))
	}
	return Minkowski{P: p}
}

// Distance implements Metric.
func (m Minkowski) Distance(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(float64(a[i])-float64(b[i])), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// Name implements Metric.
func (m Minkowski) Name() string { return fmt.Sprintf("minkowski(p=%g)", m.P) }

// OrderingDistances implements OrderingBatch: the lp ordering distance is
// the p-th power sum, leaving the final root to the API boundary.
func (m Minkowski) OrderingDistances(q []float32, flat []float32, dim int, out []float64) {
	for i := range out {
		row := flat[i*dim : (i+1)*dim]
		var s float64
		for j := 0; j < dim; j++ {
			s += math.Pow(math.Abs(float64(q[j])-float64(row[j])), m.P)
		}
		out[i] = s
	}
}

// Distances implements Batch, sharing the power-sum loop with
// OrderingDistances so batch and scalar paths agree.
func (m Minkowski) Distances(q []float32, flat []float32, dim int, out []float64) {
	m.OrderingDistances(q, flat, dim, out)
	inv := 1 / m.P
	for i := range out {
		out[i] = math.Pow(out[i], inv)
	}
}

// ToDistance implements Orderer.
func (m Minkowski) ToDistance(o float64) float64 { return math.Pow(o, 1/m.P) }

// FromDistance implements Orderer.
func (m Minkowski) FromDistance(d float64) float64 { return math.Pow(d, m.P) }

// Angular is the angle between vectors in radians: a proper metric on the
// unit sphere (unlike raw cosine "distance", which violates the triangle
// inequality). Zero vectors are treated as orthogonal to everything.
type Angular struct{}

// Distance implements Metric.
func (Angular) Distance(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return math.Pi / 2
	}
	c := dot / math.Sqrt(na*nb)
	// Clamp against floating-point drift before acos.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Name implements Metric.
func (Angular) Name() string { return "angular" }
