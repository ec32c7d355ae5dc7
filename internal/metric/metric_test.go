package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEuclideanKnownValues(t *testing.T) {
	m := Euclidean{}
	if d := m.Distance([]float32{0, 0}, []float32{3, 4}); !almostEqual(d, 5, 1e-12) {
		t.Fatalf("d=%v, want 5", d)
	}
	if d := m.Distance([]float32{1, 1, 1}, []float32{1, 1, 1}); d != 0 {
		t.Fatalf("self distance %v", d)
	}
}

func TestManhattanKnownValues(t *testing.T) {
	m := Manhattan{}
	if d := m.Distance([]float32{0, 0}, []float32{3, -4}); !almostEqual(d, 7, 1e-12) {
		t.Fatalf("d=%v, want 7", d)
	}
}

func TestChebyshevKnownValues(t *testing.T) {
	m := Chebyshev{}
	if d := m.Distance([]float32{0, 0}, []float32{3, -4}); !almostEqual(d, 4, 1e-12) {
		t.Fatalf("d=%v, want 4", d)
	}
}

func TestMinkowskiSpecialCases(t *testing.T) {
	a := []float32{1, -2, 3}
	b := []float32{-1, 0, 4}
	m1 := NewMinkowski(1)
	if d1, dm := m1.Distance(a, b), (Manhattan{}).Distance(a, b); !almostEqual(d1, dm, 1e-9) {
		t.Fatalf("p=1: %v vs manhattan %v", d1, dm)
	}
	m2 := NewMinkowski(2)
	if d2, de := m2.Distance(a, b), (Euclidean{}).Distance(a, b); !almostEqual(d2, de, 1e-9) {
		t.Fatalf("p=2: %v vs euclidean %v", d2, de)
	}
}

func TestMinkowskiRejectsPBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p<1 should panic")
		}
	}()
	NewMinkowski(0.5)
}

func TestAngular(t *testing.T) {
	m := Angular{}
	if d := m.Distance([]float32{1, 0}, []float32{0, 1}); !almostEqual(d, math.Pi/2, 1e-9) {
		t.Fatalf("orthogonal: %v", d)
	}
	if d := m.Distance([]float32{1, 0}, []float32{2, 0}); !almostEqual(d, 0, 1e-6) {
		t.Fatalf("parallel: %v", d)
	}
	if d := m.Distance([]float32{1, 0}, []float32{-3, 0}); !almostEqual(d, math.Pi, 1e-6) {
		t.Fatalf("antiparallel: %v", d)
	}
	if d := m.Distance([]float32{0, 0}, []float32{1, 0}); !almostEqual(d, math.Pi/2, 1e-9) {
		t.Fatalf("zero vector: %v", d)
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{Euclidean{}.Name(), "euclidean"},
		{Manhattan{}.Name(), "manhattan"},
		{Chebyshev{}.Name(), "chebyshev"},
		{Angular{}.Name(), "angular"},
		{Edit{}.Name(), "edit"},
	}
	for _, c := range cases {
		if c.name != c.want {
			t.Fatalf("name %q, want %q", c.name, c.want)
		}
	}
	if NewMinkowski(3).Name() != "minkowski(p=3)" {
		t.Fatalf("minkowski name %q", NewMinkowski(3).Name())
	}
}

func TestFuncAdapter(t *testing.T) {
	f := Func[int]{F: func(a, b int) float64 { return math.Abs(float64(a - b)) }, Label: "absdiff"}
	if f.Distance(3, 7) != 4 {
		t.Fatal("Func.Distance")
	}
	if f.Name() != "absdiff" {
		t.Fatal("Func.Name")
	}
	unnamed := Func[int]{F: func(a, b int) float64 { return 0 }}
	if unnamed.Name() != "func" {
		t.Fatal("default Func name")
	}
}

// batchMatchesScalar verifies that a metric's OrderingDistances, converted
// with ToDistance, reproduces its scalar Distance bit for bit on random
// data.
func batchMatchesScalar(t *testing.T, m Metric[[]float32]) {
	t.Helper()
	b, ok := m.(OrderingBatch)
	if !ok {
		t.Fatalf("%s does not implement OrderingBatch", m.Name())
	}
	k := NewKernel(m)
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33} {
		n := 17
		flat := make([]float32, n*dim)
		q := make([]float32, dim)
		for i := range flat {
			flat[i] = rng.Float32()*4 - 2
		}
		for i := range q {
			q[i] = rng.Float32()*4 - 2
		}
		out := make([]float64, n)
		b.OrderingDistances(q, flat, dim, out)
		for i := 0; i < n; i++ {
			got := k.ToDistance(out[i])
			if want := m.Distance(q, flat[i*dim:(i+1)*dim]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s dim=%d row=%d: ordering batch %v scalar %v", m.Name(), dim, i, got, want)
			}
		}
	}
}

func TestBatchEuclidean(t *testing.T) { batchMatchesScalar(t, Euclidean{}) }
func TestBatchManhattan(t *testing.T) { batchMatchesScalar(t, Manhattan{}) }
func TestBatchChebyshev(t *testing.T) { batchMatchesScalar(t, Chebyshev{}) }

// TestEuclideanDistanceIsExactGrade: Euclidean.Distance reports the exact
// grade's bits — ToDistance of the kernel ordering — at every dimension,
// including those where a single-chain float64 sum would round
// differently from the four-lane one.
func TestEuclideanDistanceIsExactGrade(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	k := NewKernel(Euclidean{})
	for _, dim := range []int{1, 3, 5, 17, 21, 64} {
		a, b := make([]float32, dim), make([]float32, dim)
		var ord [1]float64
		for trial := 0; trial < 1000; trial++ {
			for i := range a {
				a[i], b[i] = rng.Float32()*2-1, rng.Float32()*2-1
			}
			k.Ordering(a, b, dim, ord[:])
			if got, want := (Euclidean{}).Distance(a, b), k.ToDistance(ord[0]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim=%d trial %d: Distance %v, kernel %v", dim, trial, got, want)
			}
		}
	}
}

// sanitize maps arbitrary quick-generated float32s into a safe range.
func sanitize(v float32) float32 {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return float32(math.Mod(f, 1e6))
}

// metricAxioms property-checks non-negativity, symmetry, identity and the
// triangle inequality for a vector metric.
func metricAxioms(t *testing.T, m Metric[[]float32]) {
	t.Helper()
	f := func(a, b, c [6]float32) bool {
		av, bv, cv := make([]float32, 6), make([]float32, 6), make([]float32, 6)
		for i := 0; i < 6; i++ {
			av[i], bv[i], cv[i] = sanitize(a[i]), sanitize(b[i]), sanitize(c[i])
		}
		dab := m.Distance(av, bv)
		dba := m.Distance(bv, av)
		dac := m.Distance(av, cv)
		dcb := m.Distance(cv, bv)
		daa := m.Distance(av, av)
		tol := 1e-6 * (1 + dab + dac + dcb)
		if dab < 0 || math.Abs(dab-dba) > tol {
			return false
		}
		if daa > tol {
			return false
		}
		return dab <= dac+dcb+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("%s violates metric axioms: %v", m.Name(), err)
	}
}

func TestQuickAxiomsEuclidean(t *testing.T) { metricAxioms(t, Euclidean{}) }
func TestQuickAxiomsManhattan(t *testing.T) { metricAxioms(t, Manhattan{}) }
func TestQuickAxiomsChebyshev(t *testing.T) { metricAxioms(t, Chebyshev{}) }
func TestQuickAxiomsMinkowski(t *testing.T) { metricAxioms(t, NewMinkowski(2.5)) }

func TestEditKnownValues(t *testing.T) {
	m := Edit{}
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "xy", 2},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
	}
	for _, c := range cases {
		if d := m.Distance(c.a, c.b); d != c.want {
			t.Fatalf("edit(%q,%q)=%v, want %v", c.a, c.b, d, c.want)
		}
	}
}

// Property: edit distance is a metric on short random strings.
func TestQuickEditAxioms(t *testing.T) {
	m := Edit{}
	clamp := func(s string) string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	f := func(a, b, c string) bool {
		a, b, c = clamp(a), clamp(b), clamp(c)
		dab := m.Distance(a, b)
		if dab != m.Distance(b, a) || dab < 0 {
			return false
		}
		if m.Distance(a, a) != 0 {
			return false
		}
		return dab <= m.Distance(a, c)+m.Distance(c, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphMetric(t *testing.T) {
	// A path graph 0-1-2-3 with unit weights plus a shortcut 0-3 of weight 1.5.
	g, err := NewGraph(4, []GraphEdge{
		{U: 0, V: 1, Weight: 1},
		{U: 1, V: 2, Weight: 1},
		{U: 2, V: 3, Weight: 1},
		{U: 0, V: 3, Weight: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Distance(0, 3); d != 1.5 {
		t.Fatalf("d(0,3)=%v, want 1.5 (shortcut)", d)
	}
	if d := g.Distance(0, 2); d != 2 {
		t.Fatalf("d(0,2)=%v, want 2", d)
	}
	if g.N() != 4 {
		t.Fatalf("N=%d", g.N())
	}
	if g.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestGraphMetricErrors(t *testing.T) {
	if _, err := NewGraph(0, nil); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := NewGraph(2, []GraphEdge{{U: 0, V: 5, Weight: 1}}); err == nil {
		t.Fatal("out-of-range edge should error")
	}
	if _, err := NewGraph(2, []GraphEdge{{U: 0, V: 1, Weight: -1}}); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := NewGraph(3, []GraphEdge{{U: 0, V: 1, Weight: 1}}); err == nil {
		t.Fatal("disconnected graph should error")
	}
}

// Property: the graph shortest-path distance satisfies the triangle
// inequality on a random connected graph.
func TestQuickGraphTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 12
	// Ring for connectivity plus random chords.
	edges := make([]GraphEdge, 0, n+10)
	for i := 0; i < n; i++ {
		edges = append(edges, GraphEdge{U: i, V: (i + 1) % n, Weight: 1 + rng.Float64()})
	}
	for k := 0; k < 10; k++ {
		edges = append(edges, GraphEdge{U: rng.Intn(n), V: rng.Intn(n), Weight: rng.Float64() * 3})
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if math.Abs(g.Distance(a, b)-g.Distance(b, a)) > 1e-12 {
				t.Fatalf("asymmetric at (%d,%d)", a, b)
			}
			for c := 0; c < n; c++ {
				if g.Distance(a, b) > g.Distance(a, c)+g.Distance(c, b)+1e-12 {
					t.Fatalf("triangle violated at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}
