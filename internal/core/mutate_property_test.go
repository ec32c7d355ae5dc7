package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Properties of the sorted insertion buffers and the per-segment merge:
// buffered inserts keep the (dist, id) invariant the admissible window
// binary-searches over, the targeted segment merge restores the
// canonical flat layout without touching answers, and the windowed scans
// never evaluate more than the kept lists hold — also after arbitrary
// mutate bursts.

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

// Rounds of fewer than DefaultBufferMerge inserts stay buffered, and each
// buffer must hold the (dist, id) invariant that lets scanBuffer clip it
// with AdmissibleWindow; Flush then forces the merges and restores the
// flat layout.
func TestInsertionBuffersStaySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := clusteredDataset(rng, 500, 4, 6)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const round = DefaultBufferMerge - 1 // no buffer can reach the threshold
	for r := 0; r < 5; r++ {
		merges := e.SegMerges()
		extra := clusteredDataset(rng, round, 4, 6)
		for i := 0; i < extra.N(); i++ {
			e.Insert(extra.Row(i))
		}
		if e.Buffered() != round || e.SegMerges() != merges {
			t.Fatalf("round %d: Buffered()=%d SegMerges()=%d, want %d and %d (below the threshold)",
				r, e.Buffered(), e.SegMerges(), round, merges)
		}
		for j := 0; j < e.NumReps(); j++ {
			if !segmentSorted(e.mut.bufIDs[j], e.mut.bufDists[j]) {
				t.Fatalf("round %d: buffer %d violates (dist, id) order", r, j)
			}
		}
		e.Flush()
		if e.Buffered() != 0 || e.SegMerges() == merges {
			t.Fatalf("round %d: Flush left Buffered()=%d, SegMerges()=%d", r, e.Buffered(), e.SegMerges())
		}
		checkFlatLayout(t, e, db)
	}
}

// Inserts piled onto one representative force threshold-triggered
// targeted merges; every structural invariant of the flat layout must
// survive them, and Flush must drain the rest.
func TestMergeSegmentPreservesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := clusteredDataset(rng, 400, 5, 7)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	extra := clusteredDataset(rng, 250, 5, 7)
	for i := 0; i < extra.N(); i++ {
		e.Insert(extra.Row(i))
	}
	// Copies of one row all route to the same representative.
	for i := 0; i < 3*DefaultBufferMerge; i++ {
		e.Insert(db.Row(17))
	}
	if e.SegMerges() < 3 {
		t.Fatalf("SegMerges()=%d after %d inserts onto one list, want ≥ 3", e.SegMerges(), 3*DefaultBufferMerge)
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

// fullListEvals is what a query's search would evaluate with every kept
// list scanned whole instead of through its admissible window: per kept
// list its segment plus its live buffer members, and the home probe's run
// when the home list itself was pruned.
func fullListEvals(e *Exact, q []float32, k int) int64 {
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	var st Stats
	ords := e.phase1(q, nil, sc)
	kept, _ := e.prune(q, ords, 0, k, sc.Heap(0, k), sc, &st, nil)
	d := make([]float64, len(ords))
	for j, o := range ords {
		d[j] = e.ker.ToDistance(o)
	}
	home, _ := par.ArgMin(d)
	evals := st.PointEvals // the probe run
	for t := 0; t < len(kept); t += 4 {
		j := kept[t+1]
		if t > 0 && kept[t-3] == j {
			continue // the home list's second quadruple
		}
		if j == home {
			evals -= st.PointEvals // the probe run is part of the whole list
		}
		evals += int64(e.offsets[j+1] - e.offsets[j])
		for _, id := range e.mut.bufIDs[j] {
			if !e.mut.deleted[id] {
				evals++
			}
		}
	}
	return evals
}

// After arbitrary mutate bursts — buffered inserts, threshold merges,
// tombstones, tombstoned representatives — the windowed index must answer
// bit-identically to brute force over the live rows while never
// evaluating more points than its kept lists hold whole, per query batch.
// The block back half must equal per-query KNN in answers and in every
// Stats field summed, also while insertion buffers are pending.
func TestWindowedEvalsMonotoneAfterMutateBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := clusteredDataset(rng, 700, 4, 8)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 9})
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
				e.Insert(p)
			case 2:
				if id := rng.Intn(e.db.N()); !e.isDeleted(id) {
					if err := e.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				if rng.Intn(8) == 0 {
					e.Flush()
				}
			}
		}
	}
	queries := randomDataset(rng, 25, 4)
	check := func(label string) {
		var live []int
		for id := 0; id < e.db.N(); id++ {
			if !e.isDeleted(id) {
				live = append(live, id)
			}
		}
		liveDB := e.db.Subset(live)
		got, st := e.KNNBatch(queries, 5)
		var full int64
		var perQuery Stats
		for i := range got {
			one, s1 := e.KNN(queries.Row(i), 5)
			perQuery.Add(s1)
			if !reflect.DeepEqual(one, got[i]) {
				t.Fatalf("%s query %d: KNNBatch %v, KNN %v", label, i, got[i], one)
			}
			want := bruteforce.SearchOneK(queries.Row(i), liveDB, 5, m, nil)
			if len(got[i]) != len(want) {
				t.Fatalf("%s query %d: %d vs %d neighbors", label, i, len(got[i]), len(want))
			}
			for p := range want {
				if want[p].ID = live[want[p].ID]; got[i][p] != want[p] {
					t.Fatalf("%s query %d pos %d: %+v != live-rows reference %+v", label, i, p, got[i][p], want[p])
				}
			}
			full += fullListEvals(e, queries.Row(i), 5)
		}
		if st.PointEvals > full {
			t.Fatalf("%s: windowed evals %d exceed whole-list evals %d", label, st.PointEvals, full)
		}
		if st != perQuery {
			t.Fatalf("%s: KNNBatch stats %+v, per-query KNN summed %+v", label, st, perQuery)
		}
	}
	buffered := false
	for burst := 0; burst < 4; burst++ {
		mutate(40)
		buffered = buffered || e.Buffered() > 0
		check(fmt.Sprintf("burst %d", burst))
	}
	// A burst that tombstones representatives, so the pruner reads the
	// tombstones on both back halves.
	for _, j := range []int{0, e.NumReps() / 2} {
		if id := e.RepIDs()[j]; !e.isDeleted(id) {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	mutate(40)
	buffered = buffered || e.Buffered() > 0
	if !buffered || e.mut.numDeadReps == 0 {
		t.Fatalf("no check saw pending buffers (%v) or a tombstoned representative (%d)", buffered, e.mut.numDeadReps)
	}
	check("representatives tombstoned")
	// And the same holds once everything is folded in.
	e.Flush()
	check("after flush")
}

// Segment merges must leave range searches exact too (the buffer and
// segment scan share the window math but different code paths). The
// configurations merge at different times: never before the query,
// every third insert, and every insert.
func TestRangeExactAcrossMergeThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := clusteredDataset(rng, 300, 3, 5)
	extra := clusteredDataset(rng, 120, 3, 5)
	m := metric.Euclidean{}
	queries := randomDataset(rng, 10, 3)
	var ref [][]float64 // distances per query, from the first config
	for ci, every := range []int{0, 3, 1} {
		db := vec.FromFlat(append([]float32(nil), base.Data...), base.Dim)
		e, err := BuildExact(db, m, ExactParams{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extra.N(); i++ {
			e.Insert(extra.Row(i))
			if every > 0 && (i+1)%every == 0 {
				e.Flush()
			}
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
