package metric

// Metric is a distance function over points of type P. Implementations
// used with the exact RBC search and with the cover tree must satisfy the
// metric axioms, in particular the triangle inequality: the pruning rules
// are unsound otherwise.
type Metric[P any] interface {
	// Distance returns the distance between a and b. It must be
	// non-negative, symmetric and satisfy the triangle inequality.
	Distance(a, b P) float64
	// Name identifies the metric in reports and serialized indexes.
	Name() string
}

// Func adapts a plain function to the Metric interface.
type Func[P any] struct {
	F     func(a, b P) float64
	Label string
}

// Distance implements Metric.
func (f Func[P]) Distance(a, b P) float64 { return f.F(a, b) }

// Name implements Metric.
func (f Func[P]) Name() string {
	if f.Label == "" {
		return "func"
	}
	return f.Label
}
