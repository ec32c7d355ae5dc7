package search

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// Interleaved mutate/query histories (PR 8): a deterministic seeded
// generator drives Insert/Delete/KNN/Range sequences over tie-rich
// grids against two mutated core.Exact indexes — one left to its
// default merge threshold (so pending insertion buffers are in play) and
// one flushed after every insert (so targeted segment merges fire
// constantly). At every query step both must agree:
//
//   - with each other BIT-FOR-BIT (same data, same seed → same
//     representatives; merge timing changes work, never answers);
//   - with a brute-force scan over exactly the live rows — the
//     rebuilt-from-live-rows reference — BIT-FOR-BIT, ids included, for
//     KNN (every pruning rule is strict, so every tied id is seen) and
//     for Range (range answers are complete);
//   - at checkpoints, with a core.Exact freshly rebuilt from the live
//     rows, and again after Rebuild() compacts the mutated index.
//
// Every id a mutated index returns must be live: returning a
// tombstoned or stale-buffer id is the classic mutable-index bug this
// harness exists to catch.

var mutateHistoryCorpus = []struct {
	seed    int64
	dim, n0 int
	ops     int
}{
	{31, 2, 60, 140},
	{32, 3, 200, 120},
	{33, 4, 150, 160},
	{34, 3, 40, 100}, // small index: deletes bite hard
	{35, 2, 250, 120},
}

func TestMutateHistoryEquivalence(t *testing.T) {
	for _, c := range mutateHistoryCorpus {
		c := c
		t.Run(fmt.Sprintf("seed=%d/dim=%d/n0=%d", c.seed, c.dim, c.n0), func(t *testing.T) {
			runMutateHistory(t, c.seed, c.dim, c.n0, c.ops)
		})
	}
}

// liveView materializes the live rows of the grown dataset in ascending
// id order, plus the map from live-row index back to original id. The
// map is monotone, so (dist, id) sort order is preserved under it.
func liveView(db *vec.Dataset, deleted map[int]bool) (*vec.Dataset, []int) {
	live := vec.New(db.Dim, db.N()-len(deleted))
	var idmap []int
	for i := 0; i < db.N(); i++ {
		if !deleted[i] {
			live.Append(db.Row(i))
			idmap = append(idmap, i)
		}
	}
	return live, idmap
}

func remapIDs(nbs []par.Neighbor, idmap []int) []par.Neighbor {
	out := make([]par.Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = par.Neighbor{ID: idmap[nb.ID], Dist: nb.Dist}
	}
	return out
}

func assertLiveIDs(t *testing.T, label string, nbs []par.Neighbor, deleted map[int]bool, n int) {
	t.Helper()
	for p, nb := range nbs {
		if nb.ID < 0 || nb.ID >= n {
			t.Fatalf("%s pos %d: id %d out of range [0, %d)", label, p, nb.ID, n)
		}
		if deleted[nb.ID] {
			t.Fatalf("%s pos %d: returned tombstoned id %d", label, p, nb.ID)
		}
	}
}

func runMutateHistory(t *testing.T, seed int64, dim, n0, nops int) {
	m := metric.Euclidean{}
	rng := rand.New(rand.NewSource(seed))
	base := tieRich(rng, n0, dim)
	// Two structurally identical indexes over per-index datasets (Insert
	// grows the backing store, so they must not share it). Same seed →
	// same representatives → bit-identical answers are required, not just
	// tie-equivalent.
	dbB := vec.FromFlat(append([]float32(nil), base.Data...), base.Dim)
	dbM := vec.FromFlat(append([]float32(nil), base.Data...), base.Dim)
	buffered, err := core.BuildExact(dbB, m, core.ExactParams{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.BuildExact(dbM, m, core.ExactParams{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	deleted := map[int]bool{}
	row := make([]float32, dim)
	queryPoint := func() []float32 {
		if rng.Intn(4) == 0 && dbB.N() > len(deleted) {
			// Planted self-query on a live row: zero distances stress ties.
			for {
				id := rng.Intn(dbB.N())
				if !deleted[id] {
					return append([]float32(nil), dbB.Row(id)...)
				}
			}
		}
		for j := range row {
			row[j] = float32(rng.Intn(17)-8) * 0.5
		}
		return append([]float32(nil), row...)
	}

	checkKNN := func(step int, q []float32, k int) {
		gotB, _ := buffered.KNN(q, k)
		gotM, _ := merged.KNN(q, k)
		assertBitEqual(t, fmt.Sprintf("step %d: buffered vs merged KNN", step), gotB, gotM)
		assertLiveIDs(t, fmt.Sprintf("step %d: mutated KNN", step), gotB, deleted, dbB.N())
		live, idmap := liveView(dbB, deleted)
		want := remapIDs(bruteforce.SearchOneK(q, live, k, m, nil), idmap)
		assertBitEqual(t, fmt.Sprintf("step %d: mutated KNN vs live-rows reference", step), gotB, want)
	}
	checkRange := func(step int, q []float32, eps float64) {
		gotB, _ := buffered.Range(q, eps)
		gotM, _ := merged.Range(q, eps)
		assertBitEqual(t, fmt.Sprintf("step %d: buffered vs merged Range", step), gotB, gotM)
		live, idmap := liveView(dbB, deleted)
		want := remapIDs(bruteforce.RangeSearch(q, live, eps, m, nil), idmap)
		// Range answers are complete — every live point within eps, sorted
		// by (dist, id) — so the comparison is bit-exact including ids.
		assertBitEqual(t, fmt.Sprintf("step %d: mutated Range vs live-rows reference", step), gotB, want)
	}
	checkRebuilt := func(step int) {
		live, idmap := liveView(dbB, deleted)
		rebuilt, err := core.BuildExact(live, m, core.ExactParams{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			q := queryPoint()
			gotB, _ := buffered.KNN(q, 4)
			want := remapIDs(firstK(rebuilt.KNN(q, 4)), idmap)
			assertBitEqual(t, fmt.Sprintf("step %d: mutated vs rebuilt-from-live Exact", step), gotB, want)
		}
	}

	for step := 0; step < nops; step++ {
		switch r := rng.Intn(20); {
		case r < 8: // insert
			p := queryPoint()
			id := buffered.Insert(p)
			if id2 := merged.Insert(append([]float32(nil), p...)); id2 != id {
				t.Fatalf("step %d: insert ids diverge (%d vs %d)", step, id, id2)
			}
			merged.Flush()
		case r < 12: // delete
			if dbB.N()-len(deleted) <= 1 {
				continue // keep at least one live row
			}
			for {
				id := rng.Intn(dbB.N())
				if deleted[id] {
					continue
				}
				if err := buffered.Delete(id); err != nil {
					t.Fatalf("step %d: delete %d: %v", step, id, err)
				}
				if err := merged.Delete(id); err != nil {
					t.Fatalf("step %d: delete %d: %v", step, id, err)
				}
				deleted[id] = true
				break
			}
		case r < 17: // KNN
			k := []int{1, 3, 8}[rng.Intn(3)]
			checkKNN(step, queryPoint(), k)
		default: // Range
			eps := []float64{0.5, 1.0, 2.5}[rng.Intn(3)]
			checkRange(step, queryPoint(), eps)
		}
		if step == nops/2 {
			checkRebuilt(step)
		}
	}

	// Compact the mutated indexes and re-verify: Rebuild folds the
	// pending buffers, drops tombstones and re-sorts.
	if buffered.Buffered() == 0 {
		t.Fatal("nothing stayed buffered — history never exercised pending buffers")
	}
	if merged.SegMerges() == 0 {
		t.Fatal("no segment merge fired — history never exercised merged segments")
	}
	buffered.Rebuild()
	merged.Rebuild()
	for i := 0; i < 8; i++ {
		q := queryPoint()
		checkKNN(nops+i, q, 5)
		checkRange(nops+i, q, 1.5)
	}
	checkRebuilt(nops)
}

func firstK(nbs []par.Neighbor, _ core.Stats) []par.Neighbor { return nbs }
