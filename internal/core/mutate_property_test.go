package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/vec"
)

// Properties of the sorted insertion buffers and the per-segment merge
// (PR 8): buffered inserts keep the (dist, id) invariant the EarlyExit
// admissible window binary-searches over, the targeted segment merge
// restores the canonical flat layout without touching answers, and the
// windowed scans never do more work than the unwindowed ones — also
// after arbitrary mutate bursts (extending the PR 4 eval-monotonicity
// coverage to mutated indexes).

// insertPos must agree with re-sorting: splicing at the returned
// position keeps the segment in sortSegment order.
func TestInsertPosMatchesSort(t *testing.T) {
	f := func(raw []float64, d float64, id int32) bool {
		// Build a valid sorted segment from the raw values (ids dense so
		// duplicate (dist, id) pairs cannot arise).
		ids := make([]int32, len(raw))
		dists := make([]float64, len(raw))
		for i, v := range raw {
			ids[i] = int32(i)
			dists[i] = float64(int(v*8)%5) * 0.25 // tie-rich grid
		}
		sortSegment(ids, dists)
		d = float64(int(d*8)%5) * 0.25
		if id < 0 {
			id = -id
		}
		id += int32(len(raw)) // fresh id, as Insert always appends
		pos := insertPos(dists, ids, d, id)
		ids = append(ids[:pos:pos], append([]int32{id}, ids[pos:]...)...)
		dists = append(dists[:pos:pos], append([]float64{d}, dists[pos:]...)...)
		return segmentSorted(ids, dists)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSorted(t *testing.T) {
	cases := []struct {
		ids   []int32
		dists []float64
		want  bool
	}{
		{nil, nil, true},
		{[]int32{3}, []float64{1}, true},
		{[]int32{1, 2, 3}, []float64{1, 1, 2}, true},
		{[]int32{2, 1}, []float64{1, 1}, false}, // id tie-break violated
		{[]int32{1, 1}, []float64{1, 1}, false}, // duplicate pair
		{[]int32{1, 2}, []float64{2, 1}, false}, // dist descending
	}
	for i, c := range cases {
		if got := segmentSorted(c.ids, c.dists); got != c.want {
			t.Errorf("case %d: segmentSorted=%v, want %v", i, got, c.want)
		}
	}
}

// With auto-merge disabled every insert stays buffered, and each buffer
// must hold the (dist, id) invariant that lets scanBuffer clip it with
// AdmissibleWindow.
func TestInsertionBuffersStaySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := clusteredDataset(rng, 500, 4, 6)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 3, EarlyExit: true, BufferMerge: -1})
	if err != nil {
		t.Fatal(err)
	}
	extra := clusteredDataset(rng, 300, 4, 6)
	for i := 0; i < extra.N(); i++ {
		e.Insert(extra.Row(i))
	}
	if e.Buffered() != 300 {
		t.Fatalf("Buffered()=%d, want 300 (auto-merge disabled)", e.Buffered())
	}
	if e.SegMerges() != 0 {
		t.Fatalf("SegMerges()=%d, want 0 (auto-merge disabled)", e.SegMerges())
	}
	for j := 0; j < e.NumReps(); j++ {
		if !segmentSorted(e.mut.bufIDs[j], e.mut.bufDists[j]) {
			t.Fatalf("buffer %d violates (dist, id) order", j)
		}
	}
}

// A tiny merge threshold forces many targeted merges; every structural
// invariant of the flat layout must survive them, and Flush must drain
// the rest.
func TestMergeSegmentPreservesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := clusteredDataset(rng, 400, 5, 7)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 5, EarlyExit: true, BufferMerge: 4})
	if err != nil {
		t.Fatal(err)
	}
	extra := clusteredDataset(rng, 250, 5, 7)
	for i := 0; i < extra.N(); i++ {
		e.Insert(extra.Row(i))
	}
	if e.SegMerges() == 0 {
		t.Fatal("threshold 4 never triggered a merge across 250 inserts")
	}
	e.Flush()
	if e.Buffered() != 0 {
		t.Fatalf("Buffered()=%d after Flush", e.Buffered())
	}
	if e.Dirty() {
		t.Fatal("no deletions: index must be pristine after Flush")
	}
	checkFlatLayout(t, e, db)
	// Answers still exact after the merges.
	queries := randomDataset(rng, 30, 5)
	for i := 0; i < queries.N(); i++ {
		q := queries.Row(i)
		got, _ := e.KNN(q, 1)
		want := bruteforce.SearchOne(q, db, m, nil)
		if got[0].Dist != want.Dist {
			t.Fatalf("query %d after merges: %v want %v", i, got[0].Dist, want.Dist)
		}
	}
}

// checkFlatLayout asserts the canonical flat-layout invariants: offsets
// cover ids end to end, every segment is in (dist, id) order with its
// radius at least the segment max, each database id appears exactly
// once, and the gathered rows mirror the database.
func checkFlatLayout(t *testing.T, e *Exact, db *vec.Dataset) {
	t.Helper()
	if e.offsets[0] != 0 || e.offsets[len(e.offsets)-1] != len(e.ids) {
		t.Fatalf("offsets cover [%d, %d) of %d ids", e.offsets[0], e.offsets[len(e.offsets)-1], len(e.ids))
	}
	if len(e.dists) != len(e.ids) || len(e.gather) != len(e.ids)*db.Dim {
		t.Fatalf("column lengths diverge: %d ids, %d dists, %d gather floats",
			len(e.ids), len(e.dists), len(e.gather))
	}
	seen := make(map[int32]bool, len(e.ids))
	for j := 0; j < e.NumReps(); j++ {
		lo, hi := e.offsets[j], e.offsets[j+1]
		if !segmentSorted(e.ids[lo:hi], e.dists[lo:hi]) {
			t.Fatalf("segment %d violates (dist, id) order", j)
		}
		if hi > lo && e.radii[j] < e.dists[hi-1] {
			t.Fatalf("segment %d radius %v below member distance %v", j, e.radii[j], e.dists[hi-1])
		}
	}
	for p, id := range e.ids {
		if seen[id] {
			t.Fatalf("id %d appears twice", id)
		}
		seen[id] = true
		for c := 0; c < db.Dim; c++ {
			if e.gather[p*db.Dim+c] != db.Row(int(id))[c] {
				t.Fatalf("gather row %d diverges from db row %d", p, id)
			}
		}
	}
	if len(seen) != db.N() {
		t.Fatalf("layout holds %d ids, database has %d", len(seen), db.N())
	}
}

// After arbitrary mutate bursts — buffered inserts, threshold merges,
// tombstones — the windowed (EarlyExit) index must answer bit-identically
// to the unwindowed one while never evaluating more points, per query
// batch. Extends the PR 4 monotonicity property to mutated indexes.
func TestWindowedEvalsMonotoneAfterMutateBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db1 := clusteredDataset(rng, 700, 4, 8)
	db2 := vec.FromFlat(append([]float32(nil), db1.Data...), db1.Dim)
	m := metric.Euclidean{}
	// Same seed, same dataset: identical representative choice, so eval
	// counts are comparable structure-for-structure.
	windowed, err := BuildExact(db1, m, ExactParams{Seed: 9, EarlyExit: true, BufferMerge: 8})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildExact(db2, m, ExactParams{Seed: 9, BufferMerge: 8})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(burst int) {
		for i := 0; i < burst; i++ {
			switch rng.Intn(4) {
			case 0, 1: // insert twice as often as delete
				p := make([]float32, 4)
				for c := range p {
					p[c] = float32(rng.Intn(8)) / 2 // tie-rich grid
				}
				windowed.Insert(p)
				full.Insert(append([]float32(nil), p...))
			case 2:
				id := rng.Intn(windowed.db.N())
				if !windowed.isDeleted(id) {
					if err := windowed.Delete(id); err != nil {
						t.Fatal(err)
					}
					if err := full.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				if rng.Intn(8) == 0 {
					windowed.Flush()
					full.Flush()
				}
			}
		}
	}
	queries := randomDataset(rng, 25, 4)
	for burst := 0; burst < 4; burst++ {
		mutate(40)
		gotW, stW := windowed.KNNBatch(queries, 5)
		gotF, stF := full.KNNBatch(queries, 5)
		for i := range gotW {
			if len(gotW[i]) != len(gotF[i]) {
				t.Fatalf("burst %d query %d: %d vs %d neighbors", burst, i, len(gotW[i]), len(gotF[i]))
			}
			for p := range gotW[i] {
				if gotW[i][p] != gotF[i][p] {
					t.Fatalf("burst %d query %d pos %d: windowed %+v != full %+v",
						burst, i, p, gotW[i][p], gotF[i][p])
				}
			}
		}
		if stW.PointEvals > stF.PointEvals {
			t.Fatalf("burst %d: windowed evals %d exceed full-scan evals %d",
				burst, stW.PointEvals, stF.PointEvals)
		}
	}
	// And the same holds once everything is folded in.
	windowed.Flush()
	full.Flush()
	_, stW := windowed.KNNBatch(queries, 5)
	_, stF := full.KNNBatch(queries, 5)
	if stW.PointEvals > stF.PointEvals {
		t.Fatalf("after flush: windowed evals %d exceed full-scan evals %d", stW.PointEvals, stF.PointEvals)
	}
}

// Segment merges must leave range searches exact too (the buffer and
// segment scan share the window math but different code paths).
func TestRangeExactAcrossMergeThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := clusteredDataset(rng, 300, 3, 5)
	extra := clusteredDataset(rng, 120, 3, 5)
	m := metric.Euclidean{}
	queries := randomDataset(rng, 10, 3)
	var ref [][]float64 // distances per query, from the first config
	for ci, bm := range []int{-1, 3, 0} {
		db := vec.FromFlat(append([]float32(nil), base.Data...), base.Dim)
		e, err := BuildExact(db, m, ExactParams{Seed: 7, EarlyExit: true, BufferMerge: bm})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extra.N(); i++ {
			e.Insert(extra.Row(i))
		}
		for qi := 0; qi < queries.N(); qi++ {
			hits, _ := e.Range(queries.Row(qi), 1.5)
			ds := make([]float64, len(hits))
			for p, h := range hits {
				ds[p] = h.Dist
			}
			if !sort.Float64sAreSorted(ds) {
				t.Fatalf("config %d query %d: range hits unsorted", ci, qi)
			}
			if ci == 0 {
				ref = append(ref, ds)
				continue
			}
			if len(ds) != len(ref[qi]) {
				t.Fatalf("config %d query %d: %d hits, config 0 had %d", ci, qi, len(ds), len(ref[qi]))
			}
			for p := range ds {
				if ds[p] != ref[qi][p] {
					t.Fatalf("config %d query %d pos %d: %v != %v (answers depend on merge threshold)",
						ci, qi, p, ds[p], ref[qi][p])
				}
			}
		}
	}
}
