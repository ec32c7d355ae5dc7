package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/metric"
	"repro/internal/vec"
)

func TestExactSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := clusteredDataset(rng, 600, 5, 6)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 3, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadExact(&buf, db, m)
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 40, 5)
	for i := 0; i < queries.N(); i++ {
		q := queries.Row(i)
		a, _ := e.One(q)
		b, _ := loaded.One(q)
		if a != b {
			t.Fatalf("query %d: original %+v loaded %+v", i, a, b)
		}
	}
	ka, _ := e.KNN(queries.Row(0), 5)
	kb, _ := loaded.KNN(queries.Row(0), 5)
	for j := range ka {
		if ka[j] != kb[j] {
			t.Fatal("knn mismatch after load")
		}
	}
}

// The sorted-segment permutation must survive save/load byte for byte:
// the EarlyExit admissible windows (and the distributed shards that
// mirror this layout) binary-search the per-list Dists column, so a
// loaded index must hold the identical (ids, dists, offsets) ordering —
// not merely an equivalent one — and prune identically through the
// windows.
func TestExactSaveLoadPreservesSortedSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := clusteredDataset(rng, 700, 4, 7)
	// Duplicates create (dist, id) ties, pinning the tiebreak order too.
	for i := 0; i < 40; i++ {
		copy(db.Row(300+i), db.Row(i))
	}
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 13, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadExact(&buf, db, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.ids) != len(e.ids) || len(loaded.dists) != len(e.dists) || len(loaded.offsets) != len(e.offsets) {
		t.Fatalf("structure sizes diverged after load")
	}
	for j := 0; j+1 < len(e.offsets); j++ {
		if loaded.offsets[j] != e.offsets[j] {
			t.Fatalf("offset %d: %d, want %d", j, loaded.offsets[j], e.offsets[j])
		}
		lo, hi := e.offsets[j], e.offsets[j+1]
		for p := lo; p < hi; p++ {
			if loaded.ids[p] != e.ids[p] || loaded.dists[p] != e.dists[p] {
				t.Fatalf("list %d position %d: loaded (%d, %v), want (%d, %v)",
					j, p, loaded.ids[p], loaded.dists[p], e.ids[p], e.dists[p])
			}
			if p > lo && (loaded.dists[p] < loaded.dists[p-1] ||
				(loaded.dists[p] == loaded.dists[p-1] && loaded.ids[p] < loaded.ids[p-1])) {
				t.Fatalf("list %d not in (dist, id) order at %d after load", j, p)
			}
		}
	}
	// Windowed searches must prune identically, not just answer
	// identically (Stats include the window-clipped PointEvals).
	queries := randomDataset(rng, 30, 4)
	for i := 0; i < queries.N(); i++ {
		a, sa := e.KNN(queries.Row(i), 6)
		b, sb := loaded.KNN(queries.Row(i), 6)
		if sa != sb {
			t.Fatalf("query %d: stats diverge: %+v vs %+v", i, sa, sb)
		}
		for p := range a {
			if a[p] != b[p] {
				t.Fatalf("query %d pos %d: %+v vs %+v", i, p, a[p], b[p])
			}
		}
	}
}

// A snapshot whose per-list Dists column is out of order is corrupt —
// accepting it would make EarlyExit windows silently drop answers — and
// so is one whose Dists length disagrees with IDs.
func TestLoadExactRejectsCorruptSortedSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := clusteredDataset(rng, 300, 3, 4)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 19, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(snap *exactSnapshot)) error {
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap exactSnapshot
		if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		mutate(&snap)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		_, err := LoadExact(&out, db, m)
		return err
	}
	// Swap the first list's boundary members: dists fall out of order.
	if err := corrupt(func(snap *exactSnapshot) {
		for j := 0; j+1 < len(snap.Offsets); j++ {
			lo, hi := snap.Offsets[j], snap.Offsets[j+1]
			if hi-lo >= 2 && snap.Dists[lo] != snap.Dists[hi-1] {
				snap.IDs[lo], snap.IDs[hi-1] = snap.IDs[hi-1], snap.IDs[lo]
				snap.Dists[lo], snap.Dists[hi-1] = snap.Dists[hi-1], snap.Dists[lo]
				return
			}
		}
		t.Fatal("no list with distinct boundary dists to corrupt")
	}); err == nil {
		t.Fatal("unsorted list dists should be rejected")
	}
	// Break a (dist, id) tie order without touching the dists.
	if err := corrupt(func(snap *exactSnapshot) {
		for j := 0; j+1 < len(snap.Offsets); j++ {
			lo, hi := snap.Offsets[j], snap.Offsets[j+1]
			for p := lo + 1; p < hi; p++ {
				if snap.Dists[p] == snap.Dists[p-1] {
					snap.IDs[p], snap.IDs[p-1] = snap.IDs[p-1], snap.IDs[p]
					return
				}
			}
		}
		// No tie in this build: fall back to an out-of-order dist.
		snap.Dists[snap.Offsets[1]-1], snap.Dists[snap.Offsets[0]] =
			snap.Dists[snap.Offsets[0]], snap.Dists[snap.Offsets[1]-1]
	}); err == nil {
		t.Fatal("tie-order corruption should be rejected")
	}
	// Dists length mismatch.
	if err := corrupt(func(snap *exactSnapshot) {
		snap.Dists = snap.Dists[:len(snap.Dists)-1]
	}); err == nil {
		t.Fatal("short Dists should be rejected")
	}
	// Offsets that silently truncate coverage: the final offset must land
	// exactly on len(IDs), else trailing positions would never be scanned.
	if err := corrupt(func(snap *exactSnapshot) {
		snap.Offsets[len(snap.Offsets)-1]--
	}); err == nil {
		t.Fatal("truncated offsets coverage should be rejected")
	}
	if err := corrupt(func(snap *exactSnapshot) {
		snap.Offsets[0] = 1
	}); err == nil {
		t.Fatal("nonzero first offset should be rejected")
	}
}

func TestOneShotSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := clusteredDataset(rng, 500, 4, 5)
	m := metric.Euclidean{}
	o, err := BuildOneShot(db, m, OneShotParams{NumReps: 30, S: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadOneShot(&buf, db, m)
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 30, 4)
	for i := 0; i < queries.N(); i++ {
		q := queries.Row(i)
		a, _ := o.One(q)
		b, _ := loaded.One(q)
		if a != b {
			t.Fatalf("query %d: original %+v loaded %+v", i, a, b)
		}
	}
}

// legacyOneShotParams mirrors OneShotParams as snapshots carried it while
// it still had the phase-1 grade options (Phase1Chunked, Phase1Quantized).
type legacyOneShotParams struct {
	NumReps         int
	S               int
	Seed            int64
	ExactCount      bool
	Probes          int
	Phase1Chunked   bool
	Phase1Quantized bool
}

// legacyOneShotSnapshot is oneShotSnapshot around legacyOneShotParams.
type legacyOneShotSnapshot struct {
	Version    int
	MetricName string
	DBN, DBDim int
	Params     legacyOneShotParams
	RepIDs     []int
	Radii      []float64
	S          int
	IDs        []int32
}

// TestLoadOneShotLegacyGradeParams: a snapshot written with the phase-1
// grade options set still loads — gob drops the fields OneShotParams no
// longer has — and the loaded index answers bit for bit like a fresh
// build with the same structure, on the one exact kernel.
func TestLoadOneShotLegacyGradeParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := clusteredDataset(rng, 600, 6, 6)
	m := metric.Euclidean{}
	o, err := BuildOneShot(db, m, OneShotParams{NumReps: 30, S: 40, Seed: 9, Probes: 2})
	if err != nil {
		t.Fatal(err)
	}
	prm := o.Params()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacyOneShotSnapshot{
		Version:    snapshotVersion,
		MetricName: m.Name(),
		DBN:        db.N(),
		DBDim:      db.Dim,
		Params: legacyOneShotParams{
			NumReps: prm.NumReps, S: prm.S, Seed: prm.Seed, ExactCount: prm.ExactCount, Probes: prm.Probes,
			Phase1Chunked: true, Phase1Quantized: true,
		},
		RepIDs: o.repIDs,
		Radii:  o.radii,
		S:      o.s,
		IDs:    o.ids,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadOneShot(&buf, db, m)
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	if loaded.Params() != prm {
		t.Fatalf("params %+v, want %+v", loaded.Params(), prm)
	}
	queries := randomDataset(rng, 40, 6)
	want, wantSt := o.KNNBatch(queries, 5)
	got, gotSt := loaded.KNNBatch(queries, 5)
	if gotSt != wantSt {
		t.Fatalf("stats %+v, want %+v", gotSt, wantSt)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d results, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pos %d: loaded %+v, fresh %+v", i, j, got[i][j], want[i][j])
			}
		}
		a, _ := o.One(queries.Row(i))
		b, _ := loaded.One(queries.Row(i))
		if a != b {
			t.Fatalf("query %d One: loaded %+v, fresh %+v", i, b, a)
		}
	}
}

func TestLoadExactValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDataset(rng, 200, 3)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	save := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	// Wrong metric.
	if _, err := LoadExact(save(), db, metric.Manhattan{}); err == nil {
		t.Fatal("metric mismatch should error")
	}
	// Wrong database size.
	other := randomDataset(rng, 100, 3)
	if _, err := LoadExact(save(), other, m); err == nil {
		t.Fatal("db size mismatch should error")
	}
	// Wrong dimension.
	wrongDim := randomDataset(rng, 200, 4)
	if _, err := LoadExact(save(), wrongDim, m); err == nil {
		t.Fatal("db dim mismatch should error")
	}
	// Garbage stream.
	if _, err := LoadExact(bytes.NewReader([]byte("not a gob")), db, m); err == nil {
		t.Fatal("garbage should error")
	}
}

func TestLoadOneShotValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randomDataset(rng, 150, 3)
	m := metric.Euclidean{}
	o, err := BuildOneShot(db, m, OneShotParams{NumReps: 12, S: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOneShot(bytes.NewReader(buf.Bytes()), db, metric.Chebyshev{}); err == nil {
		t.Fatal("metric mismatch should error")
	}
	if _, err := LoadOneShot(bytes.NewReader([]byte("junk")), db, m); err == nil {
		t.Fatal("garbage should error")
	}
	other := randomDataset(rng, 150, 5)
	if _, err := LoadOneShot(bytes.NewReader(buf.Bytes()), other, m); err == nil {
		t.Fatal("dim mismatch should error")
	}
}

// Version-2 snapshots carry tombstones: deletions no longer force a
// Rebuild before Save, ids stay stable across the round trip, and the
// loaded index answers bit-identically — the property WAL replay
// recovery is built on.
func TestSaveLoadWithTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := clusteredDataset(rng, 500, 4, 6)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 3, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate: inserts (flushed into the sorted layout), deletes kept as
	// tombstones — including a representative's point.
	extra := clusteredDataset(rng, 80, 4, 6)
	for i := 0; i < extra.N(); i++ {
		e.Insert(extra.Row(i))
	}
	e.Flush()
	deleted := map[int]bool{}
	for _, id := range []int{e.RepIDs()[0], 7, 130, 512, 570} {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted[id] = true
	}
	if !e.Dirty() {
		t.Fatal("tombstones should leave the index dirty")
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("Save with tombstones (no pending buffers) should succeed: %v", err)
	}
	loaded, err := LoadExact(&buf, db, m)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Live() != e.Live() || loaded.Live() != 580-len(deleted) {
		t.Fatalf("live %d after load, want %d", loaded.Live(), e.Live())
	}
	queries := randomDataset(rng, 30, 4)
	for i := 0; i < queries.N(); i++ {
		a, sa := e.KNN(queries.Row(i), 6)
		b, sb := loaded.KNN(queries.Row(i), 6)
		if sa != sb {
			t.Fatalf("query %d: stats diverge: %+v vs %+v", i, sa, sb)
		}
		for p := range a {
			if a[p] != b[p] {
				t.Fatalf("query %d pos %d: %+v vs %+v", i, p, a[p], b[p])
			}
			if deleted[a[p].ID] {
				t.Fatalf("query %d returned deleted id %d", i, a[p].ID)
			}
		}
	}
	// The loaded index keeps mutating: ids continue from the same space.
	if id := loaded.Insert(extra.Row(0)); id != 580 {
		t.Fatalf("insert after load got id %d, want 580", id)
	}
}

// Save's dirty gate now scopes to pending insertion buffers only: Flush
// suffices (no Rebuild needed), and tombstones alone never block a save.
func TestSaveGateScopesToBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	db := randomDataset(rng, 120, 3)
	e, err := BuildExact(db, metric.Euclidean{}, ExactParams{Seed: 1, BufferMerge: -1})
	if err != nil {
		t.Fatal(err)
	}
	e.Insert([]float32{0.1, 0.2, 0.3})
	var buf bytes.Buffer
	if err := e.Save(&buf); !errors.Is(err, ErrDirtyIndex) {
		t.Fatalf("pending buffer: want ErrDirtyIndex, got %v", err)
	}
	e.Flush()
	if err := e.Delete(5); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := e.Save(&buf); err != nil {
		t.Fatalf("Save after Flush with tombstones: %v", err)
	}
	if _, err := LoadExact(&buf, db, metric.Euclidean{}); err != nil {
		t.Fatal(err)
	}
}

// Corrupt tombstone metadata must be rejected: out-of-range or
// duplicated Deleted entries, and databases whose ids are neither
// listed nor tombstoned (the lists and the database disagree).
func TestLoadExactRejectsCorruptTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := clusteredDataset(rng, 200, 3, 4)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(42); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(snap *exactSnapshot)) error {
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap exactSnapshot
		if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		mutate(&snap)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		_, err := LoadExact(&out, db, m)
		return err
	}
	if err := corrupt(func(snap *exactSnapshot) {}); err != nil {
		t.Fatalf("unmutated snapshot should load: %v", err)
	}
	if err := corrupt(func(snap *exactSnapshot) {
		snap.Deleted[0] = 10_000
	}); err == nil {
		t.Fatal("out-of-range deleted id should be rejected")
	}
	if err := corrupt(func(snap *exactSnapshot) {
		snap.Deleted = append(snap.Deleted, snap.Deleted[0])
	}); err == nil {
		t.Fatal("duplicated deleted id should be rejected")
	}
	if err := corrupt(func(snap *exactSnapshot) {
		// A member listed twice shadows another id entirely.
		snap.IDs[0] = snap.IDs[1]
	}); err == nil {
		t.Fatal("duplicated member id should be rejected")
	}
	if err := corrupt(func(snap *exactSnapshot) {
		snap.Version = 99
	}); err == nil {
		t.Fatal("unknown version should be rejected")
	}
}

func TestSaveLoadPreservesStatsBehaviour(t *testing.T) {
	// The loaded index must prune identically, not just answer identically.
	rng := rand.New(rand.NewSource(5))
	db := clusteredDataset(rng, 800, 5, 8)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 6, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadExact(&buf, db, m)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.FromRows([][]float32{db.Row(17)}).Row(0)
	_, sa := e.One(q)
	_, sb := loaded.One(q)
	if sa != sb {
		t.Fatalf("stats diverge: %+v vs %+v", sa, sb)
	}
}
