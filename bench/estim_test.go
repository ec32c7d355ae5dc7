package main

import (
	"math"
	"testing"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN, so that report.put refuses it")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3,
// which is what the driver computes spreads from.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // overlaps 3 on [30,40)
		{ID: 3, Parent: 1, Start: 30, End: 60},  //
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Start: 15, End: 25},  // grandchild: not the root's child
		{ID: 6, Parent: 0, Start: 200, End: 250},
	}
	self, overlap := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if overlap != 10 {
		t.Errorf("sibling overlap = %d, want 10", overlap)
	}
}

// With serial children the self times of a tree sum to its root, which is
// what tracer.write insists on before it writes a span file.
func TestTraceFileSumsToRoots(t *testing.T) {
	tr := newTracer()
	for r := 0; r < 3; r++ {
		root := tr.begin(0, r, "bench", "round")
		call := tr.begin(root, r, "core", "core.KNNBatch")
		inner := tr.begin(call, r, "bruteforce", "inner")
		tr.end(inner)
		tr.end(call)
		replay := tr.begin(root, r, "bruteforce", "replay")
		tr.end(replay)
		tr.end(root)
	}
	tr.begin(0, 9, "distributed", "cut off by shutdown") // never ended: dropped
	f := tr.file("w", 1)
	if f.Roots != 3 || len(f.Spans) != 12 {
		t.Fatalf("roots = %d, spans = %d; want 3 and 12", f.Roots, len(f.Spans))
	}
	if f.SumSelfNS != f.RootNS || f.SiblingOverlapNS != 0 {
		t.Errorf("self times sum to %d, roots to %d, overlap %d", f.SumSelfNS, f.RootNS, f.SiblingOverlapNS)
	}
	var byLayer int64
	for _, ns := range f.SelfNSByLayer {
		byLayer += ns
	}
	if byLayer != f.SumSelfNS {
		t.Errorf("per-layer self times sum to %d, want %d", byLayer, f.SumSelfNS)
	}
	var nilTracer *tracer
	if id := nilTracer.begin(0, 0, "x", "y"); id != 0 {
		t.Errorf("nil tracer opened span %d", id)
	}
	nilTracer.end(0) // must not panic
}

func TestBestPerInput(t *testing.T) {
	// Three inputs, first sample belongs to input 2 (first = 2): inputs
	// 2, 0, 1, 2, 0, 1, 2. Bests: input 0 → 5, input 1 → 7, input 2 → 1.
	ns := []float64{9, 5, 8, 1, 6, 7, 4}
	if got := bestPerInput(ns, 2, 3); got != 5 {
		t.Errorf("bestPerInput = %v, want the median 5 of bests {5, 7, 1}", got)
	}
	// One disturbed repetition of every input moves nothing.
	quiet := []float64{10, 20, 30, 10, 20, 30}
	noisy := []float64{10, 20, 30, 15, 29, 44}
	if a, b := bestPerInput(quiet, 0, 3), bestPerInput(noisy, 0, 3); a != b {
		t.Errorf("a disturbed repetition moved the estimate: %v vs %v", a, b)
	}
	// An input no sample repeats does not count as infinitely slow.
	if got := bestPerInput([]float64{3, 4}, 0, 5); got != 3.5 {
		t.Errorf("bestPerInput over two of five inputs = %v, want 3.5", got)
	}
}
