package core

import (
	"fmt"

	"repro/internal/par"
)

// Dynamic updates for the Exact index. The RBC is a static structure in
// the paper; production deployments need inserts and deletes without
// full rebuilds, and the cover's geometry makes both cheap:
//
//   - Insert routes the new point to its nearest representative (one
//     brute-force scan of R, exactly the build rule) and parks it in that
//     representative's *insertion buffer*, kept in the same ascending
//     (distance-to-representative, id) order as the segment itself; the
//     radius ψ_r grows if needed, so both pruning bounds remain sound.
//     Admissible windows clip the buffer by the same binary search they
//     clip the segment with, so window validity survives mutation. When
//     a buffer reaches DefaultBufferMerge members it is folded into its
//     sorted segment in place — a targeted re-sort of one segment (an
//     O(segment) two-run merge), not a Rebuild.
//   - Delete tombstones a point; searches skip tombstoned ids. Radii are
//     left untouched — stale-high radii weaken pruning but never break
//     correctness.
//   - Flush merges every pending buffer (tombstones stay), restoring the
//     canonical sorted layout so the index can be snapshotted; Rebuild
//     additionally purges tombstones from the lists.
//
// Searches run a pristine index's back halves and stay exact: each query
// scans its kept lists' buffers (scanBuffers) after its windows, or after
// ScanGrouped in a block. γ_1 is the home's distance over every
// representative (each list is still owned by the nearest of all);
// γ_k and the seeds are over live representatives only, since deleted
// ones still route but witness no upper bound.

// ErrDirtyIndex is wrapped by Save when un-merged insertion buffers
// exist.
var ErrDirtyIndex = fmt.Errorf("core: index has pending insertion buffers; call Flush or Rebuild before Save")

// DefaultBufferMerge is the per-segment insertion-buffer bound: a buffer
// this large folds into its sorted segment. Small enough that the buffer
// scan stays a rounding error next to the windowed segment scan, large
// enough that the O(n) column splice amortizes across many inserts.
// Answers do not depend on it.
const DefaultBufferMerge = 64

// mutableState carries the update-related fields of Exact.
type mutableState struct {
	bufIDs      [][]int32   // per-rep insertion buffers, ascending (dist, id)
	bufDists    [][]float64 // matching distances to the representative
	deleted     []bool      // db id → tombstoned
	numDeleted  int
	numBuffered int
	numListed   int // tombstones still in a list or buffer: Rebuild purges them
	numDeadReps int // tombstoned representatives: the pruner reads deleted only past 0
}

// newMutableState is the state of an unmutated index over n rows and nr
// representatives: empty buffers, no tombstone.
func newMutableState(n, nr int) mutableState {
	return mutableState{bufIDs: make([][]int32, nr), bufDists: make([][]float64, nr), deleted: make([]bool, n)}
}

// Dirty reports whether the index holds mutations not yet folded in:
// pending insertion buffers (cleared by Flush or Rebuild) or tombstones
// still in the lists (purged by Rebuild).
func (e *Exact) Dirty() bool {
	return e.mut.numBuffered > 0 || e.mut.numListed > 0
}

// Buffered reports the number of inserts parked in per-segment
// insertion buffers (not yet merged into the sorted layout).
func (e *Exact) Buffered() int { return e.mut.numBuffered }

// SegMerges reports how many per-segment buffer merges the index has
// performed (threshold-triggered plus Flush/Rebuild-triggered).
func (e *Exact) SegMerges() int64 { return e.segMerges }

// Live reports the number of non-deleted points.
func (e *Exact) Live() int { return e.db.N() - e.mut.numDeleted }

// Insert appends p to the database and the index, returning its new id.
// The point is assigned to its nearest representative, as at build time,
// and parked in that representative's sorted insertion buffer. Cost: one
// scan of R plus O(buffer) bookkeeping, amortizing the segment splice
// across DefaultBufferMerge inserts.
func (e *Exact) Insert(p []float32) int {
	e.checkDim(len(p))
	id := e.db.N()
	e.db.Append(p)
	e.isRep = append(e.isRep, false)
	e.mut.deleted = append(e.mut.deleted, false)

	// The build's BF(X,R) rule: argmin in ordering space, strict <, lowest
	// representative index at ties.
	ords := make([]float64, e.NumReps())
	e.ker.Ordering(p, e.repData.Data, e.db.Dim, ords)
	best, o := par.ArgMin(ords)
	d := e.ker.ToDistance(o)
	e.bufferInsert(best, int32(id), d)
	if d > e.radii[best] {
		e.radii[best] = d
	}
	return id
}

// bufferInsert parks (id, d) in representative j's insertion buffer at
// its (dist, id) position, then merges the buffer into the segment if it
// reached DefaultBufferMerge.
func (e *Exact) bufferInsert(j int, id int32, d float64) {
	ids, ds := e.mut.bufIDs[j], e.mut.bufDists[j]
	pos := insertPos(ds, ids, d, id)
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	ds = append(ds, 0)
	copy(ds[pos+1:], ds[pos:])
	ds[pos] = d
	e.mut.bufIDs[j], e.mut.bufDists[j] = ids, ds
	e.mut.numBuffered++
	if len(ids) >= DefaultBufferMerge {
		e.mergeSegment(j)
	}
}

// mergeSegment folds representative j's insertion buffer into its sorted
// segment in place: the flat (ids, dists, gather) columns grow by the
// buffer size, the tail shifts right, and the two ascending (dist, id)
// runs merge back to front — a targeted re-sort of one segment that
// preserves every invariant the admissible window binary-searches over.
// Answer-neutral by construction: the member set is unchanged, only its
// location moves from buffer to segment.
func (e *Exact) mergeSegment(j int) {
	bIDs, bDists := e.mut.bufIDs[j], e.mut.bufDists[j]
	b := len(bIDs)
	if b == 0 {
		return
	}
	dim := e.db.Dim
	lo, hi := e.offsets[j], e.offsets[j+1]
	n := len(e.ids)
	e.ids = append(e.ids, make([]int32, b)...)
	copy(e.ids[hi+b:], e.ids[hi:n])
	e.dists = append(e.dists, make([]float64, b)...)
	copy(e.dists[hi+b:], e.dists[hi:n])
	e.gather = append(e.gather, make([]float32, b*dim)...)
	copy(e.gather[(hi+b)*dim:], e.gather[hi*dim:n*dim])
	// Merge the segment run [lo, hi) and the buffer back to front into
	// [lo, hi+b). The write cursor w stays strictly ahead of the segment
	// read cursor s while buffer entries remain, so the moves never
	// clobber unread segment entries.
	s, w := hi-1, hi+b-1
	for t := b - 1; t >= 0; w-- {
		if s >= lo && (e.dists[s] > bDists[t] || (e.dists[s] == bDists[t] && e.ids[s] > bIDs[t])) {
			e.ids[w], e.dists[w] = e.ids[s], e.dists[s]
			copy(e.gather[w*dim:(w+1)*dim], e.gather[s*dim:(s+1)*dim])
			s--
			continue
		}
		e.ids[w], e.dists[w] = bIDs[t], bDists[t]
		copy(e.gather[w*dim:(w+1)*dim], e.db.Row(int(bIDs[t])))
		t--
	}
	for i := j + 1; i < len(e.offsets); i++ {
		e.offsets[i] += b
	}
	// Insert already grew the radius past every buffered distance, but
	// keep the invariant locally re-established.
	if d := e.dists[hi+b-1]; d > e.radii[j] {
		e.radii[j] = d
	}
	e.mut.bufIDs[j], e.mut.bufDists[j] = nil, nil
	e.mut.numBuffered -= b
	e.segMerges++
}

// Flush merges every pending insertion buffer into its sorted segment,
// leaving tombstones in place. After Flush the canonical layout holds
// the whole database again (tombstoned members included, still skipped
// by searches), so the index can be saved; with no tombstones it is
// no longer Dirty. Answer-neutral.
func (e *Exact) Flush() {
	for j := range e.mut.bufIDs {
		e.mergeSegment(j)
	}
}

// Delete tombstones the point with the given id. Deleting a
// representative's point removes it from results but keeps it as a
// routing landmark until Rebuild. Deleting an already-deleted or
// out-of-range id returns an error.
func (e *Exact) Delete(id int) error {
	if err := e.CheckDelete(id); err != nil {
		return err
	}
	e.mut.deleted[id] = true
	e.mut.numDeleted++
	e.mut.numListed++
	if e.isRep[id] {
		e.mut.numDeadReps++
	}
	return nil
}

// CheckDelete reports whether Delete(id) would succeed, mutating
// nothing. Write-ahead callers validate through it before logging the
// delete, so a logged record always applies cleanly at replay.
func (e *Exact) CheckDelete(id int) error {
	if id < 0 || id >= e.db.N() {
		return fmt.Errorf("core: delete id %d out of range [0,%d)", id, e.db.N())
	}
	if e.mut.deleted[id] {
		return fmt.Errorf("core: id %d already deleted", id)
	}
	return nil
}

// isDeleted reports whether id is tombstoned. Testing the count first
// keeps an index without tombstones off the array: reading it for every
// admitted candidate cost KNN 5 % (BenchmarkExactOne).
func (e *Exact) isDeleted(id int) bool { return e.mut.numDeleted > 0 && e.mut.deleted[id] }

// Rebuild folds insertion buffers into the sorted, gathered layout and
// purges tombstones. Representatives are kept (including tombstoned ones,
// which continue to serve as routing landmarks but are excluded from
// results); radii are recomputed exactly. An index that is not Dirty is
// left as it is.
func (e *Exact) Rebuild() {
	if !e.Dirty() {
		return
	}
	nr := e.NumReps()
	dim := e.db.Dim
	// Merge each segment with its buffer, dropping tombstones, and re-sort
	// it in place in the new columns.
	newOffsets := make([]int, nr+1)
	ids := make([]int32, 0, len(e.ids)+e.mut.numBuffered)
	dists := make([]float64, 0, cap(ids))
	for j := 0; j < nr; j++ {
		for p := e.offsets[j]; p < e.offsets[j+1]; p++ {
			if id := e.ids[p]; !e.mut.deleted[id] {
				ids = append(ids, id)
				dists = append(dists, e.dists[p])
			}
		}
		for i, id := range e.mut.bufIDs[j] {
			if !e.mut.deleted[id] {
				ids = append(ids, id)
				dists = append(dists, e.mut.bufDists[j][i])
			}
		}
		lo, hi := newOffsets[j], len(ids)
		newOffsets[j+1] = hi
		sortSegment(ids[lo:hi], dists[lo:hi])
		e.radii[j] = 0
		if hi > lo {
			e.radii[j] = dists[hi-1]
		}
	}
	gather := make([]float32, len(ids)*dim)
	for p, id := range ids {
		copy(gather[p*dim:(p+1)*dim], e.db.Row(int(id)))
	}
	e.offsets = newOffsets
	e.ids = ids
	e.dists = dists
	e.gather = gather
	e.segMerges++
	// Tombstoned ids stay recorded (they remain unreturnable, and Live
	// still accounts for them) but no list or buffer holds one any more.
	clear(e.mut.bufIDs)
	clear(e.mut.bufDists)
	e.mut.numBuffered, e.mut.numListed = 0, 0
}

// scanBuffers pushes into h the live non-representative buffer members
// of each list in kept — one query's quadruples, the home list's two
// adjacent — once per list, clipped to half-width w around ρ(q, r_j)
// from the query's phase-1 row ords, and returns the evaluation count.
func (e *Exact) scanBuffers(q []float32, ords []float64, kept []int, w float64, h *par.KHeap, cell []float64) int64 {
	var evals int64
	for t := 0; t < len(kept); t += 4 {
		if j := kept[t+1]; len(e.mut.bufIDs[j]) > 0 && (t == 0 || kept[t-3] != j) {
			evals += e.scanBuffer(q, j, e.ker.ToDistance(ords[j]), w, cell, func(id int, dd float64) {
				if !e.isRep[id] {
					h.Push(id, dd)
				}
			})
		}
	}
	return evals
}

// scanBuffer feeds representative j's live insertion-buffer members to
// emit as ordering distances from q, and returns the number of distance
// evaluations. The buffer — ascending in (dist, id) like the segment — is
// clipped to the admissible window of half-width w around d = ρ(q, r_j);
// cell (len ≥ 1) is the pooled kernel output.
func (e *Exact) scanBuffer(q []float32, j int, d, w float64, cell []float64, emit func(id int, ord float64)) int64 {
	ids := e.mut.bufIDs[j]
	lo, hi := AdmissibleWindow(e.mut.bufDists[j], d-w, d+w)
	var evals int64
	out := cell[:1]
	for i := lo; i < hi; i++ {
		id := ids[i]
		if e.mut.deleted[id] {
			continue
		}
		// The kernel's ordering path, even for one row, so rounding matches
		// the gathered-scan and brute-force code paths bit for bit.
		e.ker.Ordering(q, e.db.Row(int(id)), e.db.Dim, out)
		evals++
		emit(int(id), out[0])
	}
	return evals
}
