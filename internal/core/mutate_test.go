package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
)

func TestInsertRemainsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := clusteredDataset(rng, 800, 5, 8)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Insert 200 new points drawn from the same distribution.
	extra := clusteredDataset(rng, 200, 5, 8)
	for i := 0; i < extra.N(); i++ {
		id := e.Insert(extra.Row(i))
		if id != 800+i {
			t.Fatalf("insert id %d, want %d", id, 800+i)
		}
	}
	if !e.Dirty() || e.Live() != 1000 {
		t.Fatalf("dirty=%v live=%d", e.Dirty(), e.Live())
	}
	// Queries must see the inserted points, exactly.
	queries := randomDataset(rng, 40, 5)
	for i := 0; i < queries.N(); i++ {
		q := queries.Row(i)
		got, _ := e.KNN(q, 1)
		want := bruteforce.SearchOne(q, db, m, nil) // db now holds 1000 rows
		if got[0].Dist != want.Dist {
			t.Fatalf("query %d after inserts: %v want %v", i, got[0].Dist, want.Dist)
		}
	}
	// An inserted point must find itself.
	got, _ := e.KNN(extra.Row(7), 1)
	if got[0].Dist != 0 {
		t.Fatalf("inserted point not found: %+v", got)
	}
}

func TestDeleteRemainsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := clusteredDataset(rng, 1000, 4, 6)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Delete 300 random points (possibly including representatives).
	deleted := map[int]bool{}
	for len(deleted) < 300 {
		id := rng.Intn(1000)
		if !deleted[id] {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
			deleted[id] = true
		}
	}
	if e.Live() != 700 {
		t.Fatalf("live=%d", e.Live())
	}
	// Reference: brute force over the live subset.
	liveIDs := make([]int, 0, 700)
	for i := 0; i < 1000; i++ {
		if !deleted[i] {
			liveIDs = append(liveIDs, i)
		}
	}
	liveDB := db.Subset(liveIDs)
	queries := randomDataset(rng, 40, 4)
	for i := 0; i < queries.N(); i++ {
		q := queries.Row(i)
		got, _ := e.KNN(q, 1)
		want := bruteforce.SearchOne(q, liveDB, m, nil)
		if got[0].Dist != want.Dist {
			t.Fatalf("query %d after deletes: %v want %v", i, got[0].Dist, want.Dist)
		}
		if deleted[got[0].ID] {
			t.Fatalf("returned deleted id %d", got[0].ID)
		}
	}
}

func TestDeleteErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDataset(rng, 50, 3)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(-1); err == nil {
		t.Fatal("negative id should error")
	}
	if err := e.Delete(50); err == nil {
		t.Fatal("out-of-range id should error")
	}
	if err := e.Delete(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(10); err == nil {
		t.Fatal("double delete should error")
	}
}

func TestMixedMutationsAndRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := clusteredDataset(rng, 600, 4, 6)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave inserts and deletes.
	extra := clusteredDataset(rng, 150, 4, 6)
	for i := 0; i < extra.N(); i++ {
		id := e.Insert(extra.Row(i))
		if i%3 == 0 {
			if err := e.Delete(id); err != nil { // delete some fresh inserts
				t.Fatal(err)
			}
		}
		if i%5 == 0 {
			target := rng.Intn(600)
			if !e.isDeleted(target) {
				if err := e.Delete(target); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkExact := func(label string) {
		t.Helper()
		liveIDs := make([]int, 0, db.N())
		for i := 0; i < db.N(); i++ {
			if !e.isDeleted(i) {
				liveIDs = append(liveIDs, i)
			}
		}
		liveDB := db.Subset(liveIDs)
		queries := randomDataset(rng, 25, 4)
		for i := 0; i < queries.N(); i++ {
			q := queries.Row(i)
			got, _ := e.KNN(q, 1)
			want := bruteforce.SearchOne(q, liveDB, m, nil)
			if got[0].Dist != want.Dist {
				t.Fatalf("%s query %d: %v want %v", label, i, got[0].Dist, want.Dist)
			}
		}
		// k-NN and range must also respect tombstones.
		knn, _ := e.KNN(queries.Row(0), 8)
		for _, nb := range knn {
			if e.isDeleted(nb.ID) {
				t.Fatalf("%s: knn returned deleted id %d", label, nb.ID)
			}
		}
		hits, _ := e.Range(queries.Row(0), 2.0)
		wantHits := bruteforce.RangeSearch(queries.Row(0), liveDB, 2.0, m, nil)
		if len(hits) != len(wantHits) {
			t.Fatalf("%s: range %d hits want %d", label, len(hits), len(wantHits))
		}
	}
	checkExact("before rebuild")
	e.Rebuild()
	if e.mut != nil && e.mut.numBuffered != 0 {
		t.Fatal("rebuild left buffered inserts")
	}
	checkExact("after rebuild")
	// A second rebuild is a no-op.
	e.Rebuild()
	checkExact("after second rebuild")
}

func TestRebuildRestoresInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := clusteredDataset(rng, 400, 3, 5)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	extra := clusteredDataset(rng, 100, 3, 5)
	for i := 0; i < extra.N(); i++ {
		e.Insert(extra.Row(i))
	}
	e.Rebuild()
	// Lists must again be sorted and radii exact.
	for j := 0; j < e.NumReps(); j++ {
		lo, hi := e.offsets[j], e.offsets[j+1]
		for p := lo + 1; p < hi; p++ {
			if e.dists[p] < e.dists[p-1] {
				t.Fatalf("list %d unsorted after rebuild", j)
			}
		}
		if hi > lo && e.radii[j] != e.dists[hi-1] {
			t.Fatalf("radius %v != max %v after rebuild", e.radii[j], e.dists[hi-1])
		}
	}
	// Every live point appears exactly once.
	seen := map[int32]bool{}
	for _, id := range e.ids {
		if seen[id] {
			t.Fatalf("id %d duplicated after rebuild", id)
		}
		seen[id] = true
	}
	if len(seen) != 500 {
		t.Fatalf("rebuild kept %d points, want 500", len(seen))
	}
	// Clean after pure inserts: Dirty is false and Save works.
	if e.Dirty() {
		t.Fatal("index should be clean after rebuild with no deletes")
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSaveRejectsDirtyIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randomDataset(rng, 100, 3)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Insert([]float32{0.5, 0.5, 0.5})
	var buf bytes.Buffer
	if err := e.Save(&buf); !errors.Is(err, ErrDirtyIndex) {
		t.Fatalf("expected ErrDirtyIndex, got %v", err)
	}
	e.Rebuild()
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllRepresentativesStillExact(t *testing.T) {
	// Extreme case: every representative's point is tombstoned, so γ is
	// +Inf and pruning disappears — searches degrade to full scans but
	// stay correct.
	rng := rand.New(rand.NewSource(7))
	db := clusteredDataset(rng, 300, 3, 4)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{NumReps: 10, Seed: 11, ExactCount: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range e.RepIDs() {
		if err := e.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	liveIDs := make([]int, 0, 290)
	for i := 0; i < 300; i++ {
		if !e.isDeleted(i) {
			liveIDs = append(liveIDs, i)
		}
	}
	liveDB := db.Subset(liveIDs)
	for trial := 0; trial < 20; trial++ {
		q := randomDataset(rng, 1, 3).Row(0)
		got, _ := e.KNN(q, 1)
		want := bruteforce.SearchOne(q, liveDB, m, nil)
		if got[0].Dist != want.Dist {
			t.Fatalf("trial %d: %v want %v", trial, got[0].Dist, want.Dist)
		}
	}

	// Past the extreme: with every row deleted no point qualifies, and the
	// 1-NN answer is an empty slice, per query and in a block.
	for _, id := range liveIDs {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	queries := randomDataset(rng, 5, 3)
	batch, _ := e.KNNBatch(queries, 1)
	for i := 0; i < queries.N(); i++ {
		if got, _ := e.KNN(queries.Row(i), 1); len(got) != 0 || len(batch[i]) != 0 {
			t.Fatalf("query %d on an all-deleted index: KNN %v, KNNBatch %v, want no answer", i, got, batch[i])
		}
	}
}

// Property: any sequence of inserts and deletes leaves the index exact
// against brute force over the live set.
func TestQuickMutationsStayExact(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDataset(rng, 120, 3)
		e, err := BuildExact(db, m, ExactParams{Seed: seed})
		if err != nil {
			return false
		}
		if len(ops) > 60 {
			ops = ops[:60]
		}
		for _, op := range ops {
			switch op % 3 {
			case 0: // insert
				e.Insert([]float32{rng.Float32(), rng.Float32(), rng.Float32()})
			case 1: // delete random live point
				if e.Live() > 1 {
					for tries := 0; tries < 10; tries++ {
						id := rng.Intn(e.db.N())
						if !e.isDeleted(id) {
							if err := e.Delete(id); err != nil {
								return false
							}
							break
						}
					}
				}
			case 2: // rebuild
				e.Rebuild()
			}
		}
		liveIDs := make([]int, 0, e.db.N())
		for i := 0; i < e.db.N(); i++ {
			if !e.isDeleted(i) {
				liveIDs = append(liveIDs, i)
			}
		}
		if len(liveIDs) == 0 {
			return true
		}
		liveDB := e.db.Subset(liveIDs)
		for trial := 0; trial < 3; trial++ {
			q := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
			got, _ := e.KNN(q, 1)
			want := bruteforce.SearchOne(q, liveDB, m, nil)
			if got[0].Dist != want.Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
