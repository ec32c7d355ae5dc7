package par

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1023, 4096} {
		seen := make([]int32, n)
		For(n, 8, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("n=%d: empty block [%d,%d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForSmallRangeRunsInline(t *testing.T) {
	// With n < minGrain the callback must run exactly once over the whole
	// range (inline fast path).
	calls := 0
	For(5, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 5 {
			t.Fatalf("block [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls=%d", calls)
	}
}

// TestForNeverSpawnsSubGrain pins the grain contract the cost-model
// constants rely on: whenever For splits the range, every block carries at
// least minGrain indices, so a tuned grain can never be silently diluted
// into sub-break-even spawns.
func TestForNeverSpawnsSubGrain(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 1000, 4096, 100000} {
		for _, grain := range []int{1, 8, 64, 1024} {
			var blocks int32
			var minBlock int64 = int64(n) + 1
			For(n, grain, func(lo, hi int) {
				atomic.AddInt32(&blocks, 1)
				for {
					cur := atomic.LoadInt64(&minBlock)
					if int64(hi-lo) >= cur || atomic.CompareAndSwapInt64(&minBlock, cur, int64(hi-lo)) {
						break
					}
				}
			})
			if blocks > 1 && minBlock < int64(grain) {
				t.Fatalf("n=%d grain=%d: %d blocks, smallest %d < grain", n, grain, blocks, minBlock)
			}
		}
	}
}

// TestForInlineBelowTwiceGrain: with fewer than two grains of work there is
// nothing to split, so For must run the callback inline — once, covering
// the whole range, without allocating.
func TestForInlineBelowTwiceGrain(t *testing.T) {
	const grain = 64
	n := 2*grain - 1
	calls := 0
	For(n, grain, func(lo, hi int) {
		calls++
		if lo != 0 || hi != n {
			t.Fatalf("block [%d,%d), want [0,%d)", lo, hi, n)
		}
	})
	if calls != 1 {
		t.Fatalf("calls=%d, want 1 (inline)", calls)
	}
	fn := func(lo, hi int) {}
	if allocs := testing.AllocsPerRun(100, func() { For(n, grain, fn) }); allocs != 0 {
		t.Fatalf("inline For allocated %v times per run", allocs)
	}
}

// TestArgMinSubGrainAllocFree: below two grains ArgMin must take the
// sequential scan path with zero allocations — the common case for
// per-query √n-sized representative rows.
func TestArgMinSubGrainAllocFree(t *testing.T) {
	dists := make([]float64, 2*ArgMinGrain-1)
	for i := range dists {
		dists[i] = float64((i*2654435761 + 17) % 1000003)
	}
	wantIdx, wantVal := 0, dists[0]
	for i, v := range dists {
		if v < wantVal {
			wantIdx, wantVal = i, v
		}
	}
	idx, val := ArgMin(dists)
	if idx != wantIdx || val != wantVal {
		t.Fatalf("ArgMin=(%d,%v), want (%d,%v)", idx, val, wantIdx, wantVal)
	}
	if allocs := testing.AllocsPerRun(100, func() { ArgMin(dists) }); allocs != 0 {
		t.Fatalf("sub-grain ArgMin allocated %v times per run", allocs)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 1, func(lo, hi int) { called = true })
	For(-3, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn must not run for n<=0")
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	ForEach(1000, 10, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 999*1000/2 {
		t.Fatalf("sum=%d", sum)
	}
}

func TestWorkers(t *testing.T) {
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers should mirror GOMAXPROCS")
	}
}

func TestTreeReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 129, 1025, 4097} {
		xs := make([]int, n)
		want := 0
		for i := range xs {
			xs[i] = i + 1
			want += i + 1
		}
		got := TreeReduce(xs, func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestTreeReduceDoesNotClobberInput(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5}
	TreeReduce(xs, func(a, b int) int { return a + b })
	for i, v := range xs {
		if v != i+1 {
			t.Fatal("TreeReduce must not modify its input")
		}
	}
}

func TestArgMin(t *testing.T) {
	cases := []struct {
		in  []float64
		idx int
		val float64
	}{
		{nil, -1, 0},
		{[]float64{3}, 0, 3},
		{[]float64{5, 2, 8, 2}, 1, 2}, // tie breaks low index
		{[]float64{1, 2, 3}, 0, 1},
		{[]float64{3, 2, 1}, 2, 1},
	}
	for _, c := range cases {
		idx, val := ArgMin(c.in)
		if idx != c.idx || (idx >= 0 && val != c.val) {
			t.Fatalf("ArgMin(%v) = (%d,%v), want (%d,%v)", c.in, idx, val, c.idx, c.val)
		}
	}
}

func TestArgMinLargeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	xs[rng.Intn(n)] = -1
	gotIdx, gotVal := ArgMin(xs)
	wantIdx, wantVal := 0, xs[0]
	for i, v := range xs {
		if v < wantVal {
			wantIdx, wantVal = i, v
		}
	}
	if gotIdx != wantIdx || gotVal != wantVal {
		t.Fatalf("got (%d,%v) want (%d,%v)", gotIdx, gotVal, wantIdx, wantVal)
	}
}

// Property: ArgMin agrees with a sequential scan for arbitrary inputs.
func TestQuickArgMin(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if v != v { // NaN poisons comparisons; skip those inputs
				xs[i] = 0
			}
		}
		gi, gv := ArgMin(xs)
		if len(xs) == 0 {
			return gi == -1
		}
		wi, wv := 0, xs[0]
		for i, v := range xs {
			if v < wv {
				wi, wv = i, v
			}
		}
		return gi == wi && gv == wv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKHeapBasics(t *testing.T) {
	h := NewKHeap(3)
	if h.K() != 3 || h.Len() != 0 || h.Full() {
		t.Fatal("fresh heap state")
	}
	if _, ok := h.Worst(); ok {
		t.Fatal("Worst on non-full heap should report ok=false")
	}
	h.Push(1, 5)
	h.Push(2, 3)
	h.Push(3, 7)
	if !h.Full() {
		t.Fatal("should be full")
	}
	if w, ok := h.Worst(); !ok || w != 7 {
		t.Fatalf("Worst=%v,%v", w, ok)
	}
	if kept := h.Push(4, 6); !kept {
		t.Fatal("6 should displace 7")
	}
	if kept := h.Push(5, 100); kept {
		t.Fatal("100 should be rejected")
	}
	res := h.Results()
	wantIDs := []int{2, 1, 4}
	for i, nb := range res {
		if nb.ID != wantIDs[i] {
			t.Fatalf("Results=%v", res)
		}
	}
}

func TestKHeapPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 should panic")
		}
	}()
	NewKHeap(0)
}

func TestKHeapTieBreaksOnID(t *testing.T) {
	h := NewKHeap(2)
	h.Push(9, 1)
	h.Push(4, 1)
	h.Push(7, 1) // same distance: the two smallest IDs must win
	res := h.Results()
	if res[0].ID != 4 || res[1].ID != 7 {
		t.Fatalf("tie-break results %v", res)
	}
}

func TestKHeapMergeAndReset(t *testing.T) {
	a := NewKHeap(2)
	b := NewKHeap(2)
	a.Push(1, 10)
	a.Push(2, 20)
	b.Push(3, 5)
	b.Push(4, 15)
	a.Merge(b)
	res := a.Results()
	if res[0].ID != 3 || res[1].ID != 1 {
		t.Fatalf("merged results %v", res)
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatal("Reset should empty the heap")
	}
}

// Property: KHeap retains exactly the k smallest (dist,id) pairs.
func TestQuickKHeapKeepsKSmallest(t *testing.T) {
	f := func(dists []float64, k8 uint8) bool {
		k := int(k8)%5 + 1
		for i, d := range dists {
			if d != d {
				dists[i] = 0
			}
		}
		h := NewKHeap(k)
		for i, d := range dists {
			h.Push(i, d)
		}
		type pair struct {
			id int
			d  float64
		}
		all := make([]pair, len(dists))
		for i, d := range dists {
			all[i] = pair{i, d}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return all[i].id < all[j].id
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := h.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].ID != want[i].id || got[i].Dist != want[i].d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKHeapBoundAdmissionMatchesPush: the scans' admission filter — skip a
// candidate whose dist > Worst() (+Inf until full), refresh the bound only
// after a Push that keeps — must leave Kept() identical to offering every
// candidate to Push. Streams draw from a small value lattice, so ties at
// the bound with lower and higher ids, duplicate (id, dist) pairs, +Inf,
// NaN and streams shorter than k all occur.
func TestKHeapBoundAdmissionMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := []float64{0, 1, 1, 2, 2, 2, 3, 5, math.Inf(1), math.NaN()}
	check := func(k int, ids []int, dists []float64) {
		plain, filtered := NewKHeap(k), NewKHeap(k)
		for i, d := range dists {
			plain.Push(ids[i], d)
		}
		bound, _ := filtered.Worst()
		for i, d := range dists {
			if d > bound {
				continue
			}
			if filtered.Push(ids[i], d) {
				bound, _ = filtered.Worst()
			}
		}
		got, want := filtered.Kept(), plain.Kept()
		if len(got) != len(want) {
			t.Fatalf("k=%d stream %v/%v: kept %d, plain Push kept %d", k, ids, dists, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("k=%d stream %v/%v: kept %v, plain Push kept %v", k, ids, dists, got, want)
			}
		}
	}
	for _, k := range []int{1, 3, 10} {
		// A tie at the bound offered with a higher and then a lower id.
		check(k, []int{5, 6, 7, 9, 1}, []float64{2, 2, 2, 2, 2})
		for trial := 0; trial < 3000; trial++ {
			n := rng.Intn(3*k + 3)
			ids := make([]int, n)
			dists := make([]float64, n)
			for i := range ids {
				ids[i] = rng.Intn(2*k + 4)
				dists[i] = vals[rng.Intn(len(vals))]
			}
			check(k, ids, dists)
		}
	}
}
