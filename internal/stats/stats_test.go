package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/metric"
	"repro/internal/vec"
)

func TestRankKnownValues(t *testing.T) {
	db := vec.FromRows([][]float32{{0}, {1}, {2}, {3}, {4}})
	m := metric.Euclidean{}
	q := []float32{0.25}
	// Return the true NN (id 0, dist 0.25): rank 0.
	if r := Rank(q, db, 0.25, m); r != 0 {
		t.Fatalf("rank=%d, want 0", r)
	}
	// Return id 2 (dist 1.75): ids 0 and 1 are closer → rank 2.
	if r := Rank(q, db, 1.75, m); r != 2 {
		t.Fatalf("rank=%d, want 2", r)
	}
	// Return something worse than everything → rank 5.
	if r := Rank(q, db, 100, m); r != 5 {
		t.Fatalf("rank=%d, want 5", r)
	}
}

func TestMeanRank(t *testing.T) {
	db := vec.FromRows([][]float32{{0}, {10}})
	m := metric.Euclidean{}
	queries := vec.FromRows([][]float32{{1}, {9}})
	// First query answered exactly (dist 1 → rank 0), second answered with
	// the far point (dist 9 → rank 1). Mean = 0.5.
	got := MeanRank(queries, db, []float64{1, 9}, m)
	if got != 0.5 {
		t.Fatalf("mean rank %v, want 0.5", got)
	}
	var empty vec.Dataset
	empty.Dim = 1
	if MeanRank(&empty, db, nil, m) != 0 {
		t.Fatal("empty queries")
	}
}

func TestRecall(t *testing.T) {
	if r := Recall([]float64{1, 2, 3}, []float64{1, 9, 3}); math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("recall %v", r)
	}
	if Recall(nil, nil) != 0 {
		t.Fatal("empty recall")
	}
}

// Property: rank is monotone in the returned distance.
func TestQuickRankMonotone(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, d1, d2 float64) bool {
		d1, d2 = math.Abs(math.Mod(d1, 10)), math.Abs(math.Mod(d2, 10))
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		rng := rand.New(rand.NewSource(seed))
		db := vec.New(2, 50)
		for i := 0; i < 50; i++ {
			db.Append([]float32{rng.Float32() * 10, rng.Float32() * 10})
		}
		q := []float32{rng.Float32() * 10, rng.Float32() * 10}
		return Rank(q, db, d1, m) <= Rank(q, db, d2, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Speedups", "dataset", "speedup")
	tb.AddRow("bio", 38.1)
	tb.AddRow("cov", 94.6)
	out := tb.String()
	if !strings.Contains(out, "Speedups") || !strings.Contains(out, "bio") || !strings.Contains(out, "38.1") {
		t.Fatalf("render:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(123456.0)
	tb.AddRow(42.0)
	tb.AddRow(0.5)
	tb.AddRow(0.0001)
	tb.AddRow(float32(2.5))
	tb.AddRow(7) // int passthrough
	rows := tb.Rows()
	want := []string{"0", "123456", "42.0", "0.500", "1.00e-04", "2.500", "7"}
	for i, w := range want {
		if rows[i][0] != w {
			t.Fatalf("row %d: %q want %q", i, rows[i][0], w)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `q"t`)
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"q""t"`) {
		t.Fatalf("csv:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("csv header:\n%s", out)
	}
}

func TestChartRender(t *testing.T) {
	c := NewChart("Fig 1: bio", "mean rank", "speedup")
	c.LogX, c.LogY = true, true
	c.Add("oneshot", []float64{0.001, 0.1, 10}, []float64{5, 50, 500})
	out := c.String()
	if !strings.Contains(out, "Fig 1: bio") || !strings.Contains(out, "*=oneshot") {
		t.Fatalf("chart:\n%s", out)
	}
	if !strings.Contains(out, "mean rank") {
		t.Fatal("missing axis label")
	}
	// All three points must land on the canvas (+1 for the legend).
	if strings.Count(out, "*") != 4 {
		t.Fatalf("expected 3 markers plus legend:\n%s", out)
	}
}

func TestChartLogDropsNonPositive(t *testing.T) {
	c := NewChart("t", "x", "y")
	c.LogX, c.LogY = true, true
	c.Add("s", []float64{0, -1, 1}, []float64{1, 1, 1})
	out := c.String()
	if strings.Count(out, "*") != 2 { // one surviving point + legend
		t.Fatalf("non-positive points must be dropped on log axes:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("t", "x", "y")
	if !strings.Contains(c.String(), "no data") {
		t.Fatal("empty chart should say so")
	}
}

func TestChartMultipleSeriesMarkers(t *testing.T) {
	c := NewChart("t", "x", "y")
	c.Add("a", []float64{1}, []float64{1})
	c.Add("b", []float64{2}, []float64{2})
	out := c.String()
	if !strings.Contains(out, "*=a") || !strings.Contains(out, "o=b") {
		t.Fatalf("legend:\n%s", out)
	}
}

func TestChartDegenerateSinglePoint(t *testing.T) {
	c := NewChart("t", "x", "y")
	c.Add("s", []float64{5}, []float64{5})
	out := c.String()
	if !strings.Contains(out, "*") {
		t.Fatalf("single point must render:\n%s", out)
	}
}
