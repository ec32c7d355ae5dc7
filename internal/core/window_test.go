package core

import (
	"math"
	"sort"
	"testing"
)

func TestSortSegmentOrdersByDistThenID(t *testing.T) {
	ids := []int32{9, 4, 7, 1, 3}
	dists := []float64{2, 1, 2, 1, 0.5}
	sortSegment(ids, dists)
	wantIDs := []int32{3, 1, 4, 7, 9}
	wantDists := []float64{0.5, 1, 1, 2, 2}
	for i := range ids {
		if ids[i] != wantIDs[i] || dists[i] != wantDists[i] {
			t.Fatalf("pos %d: (%d, %v), want (%d, %v)", i, ids[i], dists[i], wantIDs[i], wantDists[i])
		}
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatal("dists not ascending")
	}
}

func TestSortSegmentEmptyAndSingle(t *testing.T) {
	sortSegment(nil, nil) // must not panic
	ids, dists := []int32{5}, []float64{3}
	sortSegment(ids, dists)
	if ids[0] != 5 || dists[0] != 3 {
		t.Fatal("single-element segment mutated")
	}
}

func TestAdmissibleWindow(t *testing.T) {
	dists := []float64{1, 2, 2, 3, 5, 8}
	cases := []struct {
		dLo, dHi float64
		lo, hi   int
	}{
		{2, 3, 1, 4},                      // inclusive at both ends
		{1.5, 4.9, 1, 4},                  // strict interior
		{0, 0.5, 0, 0},                    // empty: below the segment
		{9, 20, 6, 6},                     // empty: above the segment
		{3.5, 4.5, 4, 4},                  // empty: interior gap
		{math.Inf(-1), math.Inf(1), 0, 6}, // unbounded: whole segment
		{1, 8, 0, 6},                      // boundary values at both extremes
		{5, 5, 4, 5},                      // degenerate interval hitting one member
		{4, 4, 4, 4},                      // degenerate interval missing
		{math.Inf(-1), 2, 0, 3},           // half-unbounded low
		{8, math.Inf(1), 5, 6},            // half-unbounded high
		{2, math.Nextafter(2, math.Inf(-1)), 1, 1}, // inverted after rounding: empty, not negative
	}
	for _, c := range cases {
		lo, hi := AdmissibleWindow(dists, c.dLo, c.dHi)
		if lo != c.lo || hi != c.hi {
			t.Errorf("AdmissibleWindow([%v], %v, %v) = [%d, %d), want [%d, %d)",
				dists, c.dLo, c.dHi, lo, hi, c.lo, c.hi)
		}
		if hi < lo {
			t.Errorf("window [%d, %d) is negative-length", lo, hi)
		}
	}
}

func TestAdmissibleWindowEmptySegment(t *testing.T) {
	if lo, hi := AdmissibleWindow(nil, 0, 10); lo != 0 || hi != 0 {
		t.Fatalf("empty segment: [%d, %d), want [0, 0)", lo, hi)
	}
}

// The window must agree with a full linear scan of the inclusive
// interval on tie-rich data — the property window exactness rests on.
func TestAdmissibleWindowMatchesLinearScan(t *testing.T) {
	dists := []float64{0, 0, 1, 1, 1, 2.5, 2.5, 4, 4, 4, 4, 7}
	for _, dLo := range []float64{-1, 0, 0.5, 1, 2.5, 4, 6, 7, 8} {
		for _, dHi := range []float64{-1, 0, 1, 2.5, 3, 4, 7, 9} {
			lo, hi := AdmissibleWindow(dists, dLo, dHi)
			for p, d := range dists {
				in := d >= dLo && d <= dHi
				got := p >= lo && p < hi
				if in != got {
					t.Fatalf("interval [%v, %v]: position %d (dist %v) in-window=%v, want %v",
						dLo, dHi, p, d, got, in)
				}
			}
		}
	}
}

func TestProbeRun(t *testing.T) {
	dists := []float64{1, 2, 2, 3, 5, 8}
	cases := []struct {
		d      float64
		m      int
		lo, hi int
	}{
		{3, 1, 3, 4},   // the insertion point's member itself
		{4, 2, 3, 5},   // gaps 1 (3) and 1 (5): both taken
		{4, 1, 3, 4},   // equal gaps: the lower side wins
		{2.4, 3, 1, 4}, // 2, 2 below and 3 above
		{0, 3, 0, 3},   // clamped at the start
		{9, 2, 4, 6},   // clamped at the end
		{4, 10, 0, 6},  // m past the list: the whole list
		{4, 0, 4, 4},   // empty run at the insertion point
	}
	for _, c := range cases {
		if lo, hi := ProbeRun(dists, c.d, c.m); lo != c.lo || hi != c.hi {
			t.Errorf("ProbeRun(d=%v, m=%d) = [%d,%d), want [%d,%d)", c.d, c.m, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := ProbeRun(nil, 1, 8); lo != 0 || hi != 0 {
		t.Errorf("ProbeRun on an empty list = [%d,%d), want [0,0)", lo, hi)
	}
}

func TestSplitAroundRun(t *testing.T) {
	cases := []struct {
		lo, hi, pLo, pHi int
		a, b             int
	}{
		{0, 10, 3, 6, 3, 6}, // run inside the window: both sides kept
		{4, 10, 2, 6, 4, 6}, // run over the window's start: nothing below
		{0, 5, 3, 8, 3, 5},  // run over the window's end: nothing above
		{4, 6, 2, 8, 4, 6},  // run covers the window: both sides empty
		{6, 10, 1, 3, 6, 6}, // run wholly below: [6,6) then [6,10)
		{0, 4, 6, 9, 4, 4},  // run wholly above: [0,4) then [4,4)
		{2, 8, 5, 5, 5, 5},  // empty run: the window, split at one point
	}
	for _, c := range cases {
		if a, b := SplitAroundRun(c.lo, c.hi, c.pLo, c.pHi); a != c.a || b != c.b {
			t.Errorf("SplitAroundRun([%d,%d) minus [%d,%d)) = %d, %d, want %d, %d", c.lo, c.hi, c.pLo, c.pHi, a, b, c.a, c.b)
		}
	}
}
