package dataset

import (
	"math"
	"testing"

	"repro/internal/expansion"
	"repro/internal/metric"
	"repro/internal/vec"
)

func checkBasic(t *testing.T, d *vec.Dataset, n, dim int) {
	t.Helper()
	if d.N() != n || d.Dim != dim {
		t.Fatalf("got %dx%d, want %dx%d", d.N(), d.Dim, n, dim)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorShapes(t *testing.T) {
	checkBasic(t, Bio(300, 1), 300, BioDim)
	checkBasic(t, Covertype(300, 1), 300, CovertypeDim)
	checkBasic(t, Physics(300, 1), 300, PhysicsDim)
	checkBasic(t, Robot(300, 1), 300, RobotDim)
	checkBasic(t, TinyImages(300, 8, 1), 300, 8)
	checkBasic(t, UniformCube(300, 5, 1), 300, 5)
	checkBasic(t, GaussianClusters(300, 5, 4, 0.2, 1), 300, 5)
	checkBasic(t, Manifold(300, 3, 12, 0.05, 1), 300, 12)
}

func TestDeterminism(t *testing.T) {
	for name, gen := range map[string]func(int, int64) *vec.Dataset{
		"bio":   Bio,
		"robot": Robot,
		"tiny8": func(n int, s int64) *vec.Dataset { return TinyImages(n, 8, s) },
	} {
		a := gen(200, 42)
		b := gen(200, 42)
		if !a.Equal(b) {
			t.Fatalf("%s: same seed produced different data", name)
		}
		c := gen(200, 43)
		if a.Equal(c) {
			t.Fatalf("%s: different seeds produced identical data", name)
		}
	}
}

func TestCovertypeQuantizedColumns(t *testing.T) {
	d := Covertype(150, 7)
	for i := 0; i < d.N(); i++ {
		row := d.Row(i)
		for j := 10; j < CovertypeDim; j++ {
			if row[j] != 0 && row[j] != 1 {
				t.Fatalf("row %d col %d = %v, want binary", i, j, row[j])
			}
		}
	}
}

func TestRobotPhysicalStructure(t *testing.T) {
	d := Robot(500, 3)
	// Columns 0-6 are joint angles from bounded sinusoids: |q| must stay
	// below the sum of amplitudes (≈ 2·(1+1/2+1/3)).
	for i := 0; i < d.N(); i++ {
		row := d.Row(i)
		for j := 0; j < 7; j++ {
			if math.Abs(float64(row[j])) > 4 {
				t.Fatalf("joint angle %v out of physical range", row[j])
			}
		}
	}
}

func TestIntrinsicDimensionOrdering(t *testing.T) {
	// The substitution contract (the package comment): covertype must have
	// lower intrinsic dimension than physics, and tiny4 lower than tiny32.
	opts := expansion.Options{Samples: 16, Seed: 9}
	m := metric.Euclidean{}
	cov := expansion.Vectors(Covertype(1200, 5), m, opts)
	phy := expansion.Vectors(Physics(1200, 5), m, opts)
	if cov.Dim >= phy.Dim {
		t.Fatalf("covertype dim %v should be below physics dim %v", cov.Dim, phy.Dim)
	}
	t4 := expansion.Vectors(TinyImages(1200, 4, 5), m, opts)
	t32 := expansion.Vectors(TinyImages(1200, 32, 5), m, opts)
	if t4.Dim >= t32.Dim {
		t.Fatalf("tiny4 dim %v should be below tiny32 dim %v", t4.Dim, t32.Dim)
	}
}

func TestRandomProjectionPreservesDistances(t *testing.T) {
	// JL: projecting 256-dim data to 64 dims preserves pairwise distances
	// within a modest distortion for most pairs.
	src := tinyPatches(60, 11)
	proj := RandomProjection(src, 64, 13)
	m := metric.Euclidean{}
	var worst float64
	bad := 0
	for i := 0; i < 30; i++ {
		a, b := 2*i, 2*i+1
		orig := m.Distance(src.Row(a), src.Row(b))
		mapped := m.Distance(proj.Row(a), proj.Row(b))
		if orig == 0 {
			continue
		}
		ratio := mapped / orig
		if ratio < 0.6 || ratio > 1.4 {
			bad++
		}
		if r := math.Abs(ratio - 1); r > worst {
			worst = r
		}
	}
	if bad > 3 {
		t.Fatalf("%d/30 pairs distorted beyond 40%% (worst %.2f)", bad, worst)
	}
}

func TestRandomProjectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("outDim=0 should panic")
		}
	}()
	RandomProjection(UniformCube(10, 4, 1), 0, 1)
}

func TestTinyImagesPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("outDim=0 should panic")
		}
	}()
	TinyImages(10, 0, 1)
}

func TestCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog has %d entries, want 8", len(cat))
	}
	wantDims := map[string]int{
		"bio": BioDim, "cov": CovertypeDim, "phy": PhysicsDim, "robot": RobotDim,
		"tiny4": 4, "tiny8": 8, "tiny16": 16, "tiny32": 32,
	}
	for _, e := range cat {
		want, ok := wantDims[e.Name]
		if !ok {
			t.Fatalf("unexpected entry %q", e.Name)
		}
		if e.Dim != want {
			t.Fatalf("%s dim=%d want %d", e.Name, e.Dim, want)
		}
		d := e.Generate(64, 1)
		if d.N() != 64 || d.Dim != e.Dim {
			t.Fatalf("%s generated %dx%d", e.Name, d.N(), d.Dim)
		}
	}
}

func TestByName(t *testing.T) {
	e, err := ByName("robot")
	if err != nil || e.Name != "robot" {
		t.Fatalf("ByName(robot): %v %v", e, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestScaledN(t *testing.T) {
	e, _ := ByName("bio")
	if got := e.ScaledN(0.01); got != 2000 {
		t.Fatalf("ScaledN(0.01)=%d", got)
	}
	if got := e.ScaledN(0.0000001); got != 256 {
		t.Fatalf("floor: %d", got)
	}
}

func TestGaussianClustersAreClustered(t *testing.T) {
	d := GaussianClusters(400, 6, 3, 0.1, 21)
	// With spread 0.1 and centers in [-10,10], most nearest-neighbor
	// distances should be tiny compared to the data diameter.
	m := metric.Euclidean{}
	small := 0
	for i := 0; i < 50; i++ {
		best := math.Inf(1)
		for j := 0; j < d.N(); j++ {
			if j == i {
				continue
			}
			if dd := m.Distance(d.Row(i), d.Row(j)); dd < best {
				best = dd
			}
		}
		if best < 1 {
			small++
		}
	}
	if small < 45 {
		t.Fatalf("only %d/50 points have close neighbors; not clustered", small)
	}
}
