package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/metric"
	"repro/internal/vec"
)

// Index serialization. The database itself is not stored — only the cover
// structure — so a saved index is small (O(n) integers) and reattaches to
// the database it was built from. The metric is identified by name and
// verified at load time.

// errCorrupt is wrapped by every load error for a snapshot whose structure
// disagrees with itself or with the database. Builds never write one;
// accepting one would make searches panic or silently drop answers.
var errCorrupt = errors.New("core: corrupt index structure")

type exactSnapshot struct {
	Version    int
	MetricName string
	DBN, DBDim int
	Params     ExactParams
	RepIDs     []int
	Radii      []float64
	Offsets    []int
	IDs        []int32
	Dists      []float64
	// Deleted lists the tombstoned database ids, ascending. Version-2
	// snapshots taken after deletions keep the tombstones instead of
	// requiring a Rebuild, so database ids stay stable across a
	// snapshot/restore cycle — the property WAL replay depends on.
	// Version-1 snapshots decode with Deleted nil (gob zero value).
	Deleted []int32
}

// Snapshot versions. Version 1 already persists the sorted-segment
// permutation (IDs in per-list (dist, id) order, Dists as the
// position-aligned sort keys), so the admissible windows — and
// any consumer of sortSegment order, such as the distributed shards —
// round-trip without a layout change. Version 2 adds the Deleted
// tombstone list; LoadExact accepts both. LoadExact verifies the sort
// invariant instead of re-sorting: a snapshot whose Dists are not
// ascending within every list is corrupt.
const (
	snapshotVersion      = 1 // OneShot, and the floor LoadExact accepts
	exactSnapshotVersion = 2
)

// Save writes the index structure (not the database) to w. Pending
// insertion buffers must be folded in first (Flush or Rebuild) — the
// snapshot stores only the canonical sorted layout. Tombstones persist
// as the Deleted list, so deletions do not force a Rebuild before Save
// and ids remain stable across a save/load cycle.
func (e *Exact) Save(w io.Writer) error {
	if e.mut.numBuffered > 0 {
		return ErrDirtyIndex
	}
	var deleted []int32
	for id, gone := range e.mut.deleted {
		if gone {
			deleted = append(deleted, int32(id))
		}
	}
	snap := exactSnapshot{
		Version:    exactSnapshotVersion,
		MetricName: e.m.Name(),
		DBN:        e.db.N(),
		DBDim:      e.db.Dim,
		Params:     e.prm,
		RepIDs:     e.repIDs,
		Radii:      e.radii,
		Offsets:    e.offsets,
		IDs:        e.ids,
		Dists:      e.dists,
		Deleted:    deleted,
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadExact reads an index saved by Exact.Save and reattaches it to db and
// m, which must match the originals (same size, dimension and metric
// name). The gathered point buffer is rebuilt from db.
func LoadExact(r io.Reader, db *vec.Dataset, m metric.Metric[[]float32]) (*Exact, error) {
	var snap exactSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding exact index: %w", err)
	}
	if snap.Version < snapshotVersion || snap.Version > exactSnapshotVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", snap.Version)
	}
	if snap.MetricName != m.Name() {
		return nil, fmt.Errorf("core: index was built with metric %q, not %q", snap.MetricName, m.Name())
	}
	if snap.DBN != db.N() || snap.DBDim != db.Dim {
		return nil, fmt.Errorf("core: index was built over a %dx%d database, got %dx%d",
			snap.DBN, snap.DBDim, db.N(), db.Dim)
	}
	if len(snap.IDs) > db.N() || len(snap.Offsets) != len(snap.RepIDs)+1 {
		return nil, fmt.Errorf("%w: %d ids, %d offsets for %d representatives",
			errCorrupt, len(snap.IDs), len(snap.Offsets), len(snap.RepIDs))
	}
	if len(snap.Dists) != len(snap.IDs) {
		return nil, fmt.Errorf("%w: %d dists for %d ids", errCorrupt, len(snap.Dists), len(snap.IDs))
	}
	if len(snap.Radii) != len(snap.RepIDs) {
		return nil, fmt.Errorf("%w: %d radii for %d representatives", errCorrupt, len(snap.Radii), len(snap.RepIDs))
	}
	// The offsets table must cover ids exactly — [0, len(IDs)] end to
	// end — and every list segment must be ascending in (dist, id), the
	// invariant the admissible window binary-searches over. Each radius
	// ψ_r must be a number no smaller than its list's last distance, since
	// the radius rule prunes with it (Insert may leave ψ_r stale-high,
	// never low). A violation means the stream is corrupt (builds always
	// satisfy all three), and accepting it would make searches silently
	// drop answers.
	if snap.Offsets[0] != 0 || snap.Offsets[len(snap.Offsets)-1] != len(snap.IDs) {
		return nil, fmt.Errorf("%w: offsets cover [%d, %d) of %d ids",
			errCorrupt, snap.Offsets[0], snap.Offsets[len(snap.Offsets)-1], len(snap.IDs))
	}
	for j := 0; j+1 < len(snap.Offsets); j++ {
		lo, hi := snap.Offsets[j], snap.Offsets[j+1]
		if lo < 0 || hi < lo || hi > len(snap.IDs) {
			return nil, fmt.Errorf("%w: bad offsets [%d, %d)", errCorrupt, lo, hi)
		}
		if !segmentSorted(snap.IDs[lo:hi], snap.Dists[lo:hi]) {
			return nil, fmt.Errorf("%w: list %d not in (dist, id) order", errCorrupt, j)
		}
		if r := snap.Radii[j]; math.IsNaN(r) || (hi > lo && r < snap.Dists[hi-1]) {
			return nil, fmt.Errorf("%w: list %d radius %v below its members", errCorrupt, j, r)
		}
	}
	isRep := make([]bool, db.N())
	for _, id := range snap.RepIDs {
		if id < 0 || id >= db.N() {
			return nil, fmt.Errorf("%w: representative id %d out of range", errCorrupt, id)
		}
		isRep[id] = true
	}
	// Every database id must appear exactly once across the lists or be
	// tombstoned (a post-Rebuild snapshot purges tombstoned members from
	// the lists; a post-Flush one keeps them). Anything else means the
	// lists and the database disagree and searches would silently drop
	// answers.
	inList := make([]bool, db.N())
	gather := make([]float32, len(snap.IDs)*db.Dim)
	for p, id := range snap.IDs {
		if int(id) < 0 || int(id) >= db.N() {
			return nil, fmt.Errorf("%w: member id %d out of range", errCorrupt, id)
		}
		if inList[id] {
			return nil, fmt.Errorf("%w: member id %d listed twice", errCorrupt, id)
		}
		inList[id] = true
		copy(gather[p*db.Dim:(p+1)*db.Dim], db.Row(int(id)))
	}
	mut := newMutableState(db.N(), len(snap.RepIDs))
	for _, id := range snap.Deleted {
		if int(id) < 0 || int(id) >= db.N() {
			return nil, fmt.Errorf("%w: deleted id %d out of range", errCorrupt, id)
		}
		if mut.deleted[id] {
			return nil, fmt.Errorf("%w: id %d tombstoned twice", errCorrupt, id)
		}
		mut.deleted[id] = true
		mut.numDeleted++
		if inList[id] {
			mut.numListed++
		}
		if isRep[id] {
			mut.numDeadReps++
		}
	}
	for id := 0; id < db.N(); id++ {
		if !inList[id] && !mut.deleted[id] {
			return nil, fmt.Errorf("%w: id %d neither listed nor tombstoned", errCorrupt, id)
		}
	}
	e := &Exact{
		db: db, m: m, prm: snap.Params,
		repIDs: snap.RepIDs, repData: db.Subset(snap.RepIDs),
		radii: snap.Radii, isRep: isRep,
		offsets: snap.Offsets, ids: snap.IDs, dists: snap.Dists,
		gather: gather, mut: mut,
	}
	e.initKernel()
	return e, nil
}

type oneShotSnapshot struct {
	Version    int
	MetricName string
	DBN, DBDim int
	Params     OneShotParams
	RepIDs     []int
	Radii      []float64
	S          int
	IDs        []int32
}

// Save writes the index structure (not the database) to w.
func (o *OneShot) Save(w io.Writer) error {
	snap := oneShotSnapshot{
		Version:    snapshotVersion,
		MetricName: o.m.Name(),
		DBN:        o.db.N(),
		DBDim:      o.db.Dim,
		Params:     o.prm,
		RepIDs:     o.repIDs,
		Radii:      o.radii,
		S:          o.s,
		IDs:        o.ids,
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadOneShot reads an index saved by OneShot.Save and reattaches it to db
// and m. A snapshot written while OneShotParams had Probes loads too (gob
// drops the field) and answers with one probe, like every OneShot.
func LoadOneShot(r io.Reader, db *vec.Dataset, m metric.Metric[[]float32]) (*OneShot, error) {
	var snap oneShotSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding one-shot index: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", snap.Version)
	}
	if snap.MetricName != m.Name() {
		return nil, fmt.Errorf("core: index was built with metric %q, not %q", snap.MetricName, m.Name())
	}
	if snap.DBN != db.N() || snap.DBDim != db.Dim {
		return nil, fmt.Errorf("core: index was built over a %dx%d database, got %dx%d",
			snap.DBN, snap.DBDim, db.N(), db.Dim)
	}
	nr := len(snap.RepIDs)
	if nr == 0 || snap.S < 1 || len(snap.IDs) != nr*snap.S {
		return nil, fmt.Errorf("%w: %d ids for %d lists of %d", errCorrupt, len(snap.IDs), nr, snap.S)
	}
	if len(snap.Radii) != nr {
		return nil, fmt.Errorf("%w: %d radii for %d representatives", errCorrupt, len(snap.Radii), nr)
	}
	for _, id := range snap.RepIDs {
		if id < 0 || id >= db.N() {
			return nil, fmt.Errorf("%w: representative id %d out of range", errCorrupt, id)
		}
	}
	gather := make([]float32, len(snap.IDs)*db.Dim)
	for p, id := range snap.IDs {
		if int(id) < 0 || int(id) >= db.N() {
			return nil, fmt.Errorf("%w: member id %d out of range", errCorrupt, id)
		}
		copy(gather[p*db.Dim:(p+1)*db.Dim], db.Row(int(id)))
	}
	o := &OneShot{
		db: db, m: m, prm: snap.Params,
		repIDs: snap.RepIDs, repData: db.Subset(snap.RepIDs),
		radii: snap.Radii, s: snap.S, ids: snap.IDs, gather: gather,
	}
	o.initKernel()
	return o, nil
}
