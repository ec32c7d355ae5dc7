package core

import (
	"fmt"
	"math"

	"repro/internal/metric"
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
// Searches remain exact throughout: buffered members are scanned
// alongside their segment, and the γ thresholds are computed over live
// representatives only (deleted representatives still route, but no
// longer witness an upper bound).

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
}

func (e *Exact) ensureMutable() {
	if e.mut == nil {
		e.mut = &mutableState{
			bufIDs:   make([][]int32, e.NumReps()),
			bufDists: make([][]float64, e.NumReps()),
			deleted:  make([]bool, e.db.N()),
		}
	}
}

// dropCleanState releases the mutable state once nothing dynamic
// remains, returning the index to the pristine fast path (grouped batch
// scans, Save without Flush).
func (e *Exact) dropCleanState() {
	if e.mut != nil && e.mut.numBuffered == 0 && e.mut.numDeleted == 0 {
		e.mut = nil
	}
}

// Dirty reports whether the index holds mutations not yet folded in by
// Flush or Rebuild (pending insertion buffers or tombstones).
func (e *Exact) Dirty() bool {
	return e.mut != nil && (e.mut.numBuffered > 0 || e.mut.numDeleted > 0)
}

// Buffered reports the number of inserts parked in per-segment
// insertion buffers (not yet merged into the sorted layout).
func (e *Exact) Buffered() int {
	if e.mut == nil {
		return 0
	}
	return e.mut.numBuffered
}

// SegMerges reports how many per-segment buffer merges the index has
// performed (threshold-triggered plus Flush/Rebuild-triggered).
func (e *Exact) SegMerges() int64 { return e.segMerges }

// Live reports the number of non-deleted points.
func (e *Exact) Live() int {
	n := e.db.N()
	if e.mut != nil {
		n -= e.mut.numDeleted
	}
	return n
}

// Insert appends p to the database and the index, returning its new id.
// The point is assigned to its nearest representative, as at build time,
// and parked in that representative's sorted insertion buffer. Cost: one
// scan of R plus O(buffer) bookkeeping, amortizing the segment splice
// across DefaultBufferMerge inserts.
func (e *Exact) Insert(p []float32) int {
	e.checkDim(len(p))
	e.ensureMutable()
	id := e.db.N()
	e.db.Append(p)
	e.isRep = append(e.isRep, false)
	e.mut.deleted = append(e.mut.deleted, false)

	nr := e.NumReps()
	dists := make([]float64, nr)
	metric.BatchDistances(e.m, p, e.repData.Data, e.db.Dim, dists)
	best := 0
	for j := 1; j < nr; j++ {
		if dists[j] < dists[best] {
			best = j
		}
	}
	e.bufferInsert(best, int32(id), dists[best])
	if dists[best] > e.radii[best] {
		e.radii[best] = dists[best]
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
		e.dropCleanState()
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
// fully pristine again. Answer-neutral.
func (e *Exact) Flush() {
	if e.mut != nil {
		for j := range e.mut.bufIDs {
			e.mergeSegment(j)
		}
	}
	e.dropCleanState()
}

// Delete tombstones the point with the given id. Deleting a
// representative's point removes it from results but keeps it as a
// routing landmark until Rebuild. Deleting an already-deleted or
// out-of-range id returns an error.
func (e *Exact) Delete(id int) error {
	if err := e.CheckDelete(id); err != nil {
		return err
	}
	e.ensureMutable()
	e.mut.deleted[id] = true
	e.mut.numDeleted++
	return nil
}

// CheckDelete reports whether Delete(id) would succeed, mutating
// nothing. Write-ahead callers validate through it before logging the
// delete, so a logged record always applies cleanly at replay.
func (e *Exact) CheckDelete(id int) error {
	if id < 0 || id >= e.db.N() {
		return fmt.Errorf("core: delete id %d out of range [0,%d)", id, e.db.N())
	}
	if e.mut != nil && e.mut.deleted[id] {
		return fmt.Errorf("core: id %d already deleted", id)
	}
	return nil
}

// isDeleted reports whether id is tombstoned (nil-safe).
func (e *Exact) isDeleted(id int) bool {
	return e.mut != nil && e.mut.deleted[id]
}

// Rebuild folds insertion buffers into the sorted, gathered layout and
// purges tombstones. Representatives are kept (including tombstoned ones,
// which continue to serve as routing landmarks but are excluded from
// results); radii are recomputed exactly.
func (e *Exact) Rebuild() {
	if e.mut == nil {
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
	// still accounts for them) but the buffer bookkeeping resets.
	deleted := e.mut.deleted
	numDeleted := e.mut.numDeleted
	e.mut = &mutableState{
		bufIDs:     make([][]int32, nr),
		bufDists:   make([][]float64, nr),
		deleted:    deleted,
		numDeleted: numDeleted,
	}
	e.dropCleanState()
}

// liveGammas returns (γ_1, γ_k) computed over live representatives only,
// falling back to +Inf (no pruning) when every representative is
// tombstoned.
func (e *Exact) liveGammas(repDists []float64, k int, sc *par.Scratch) (float64, float64) {
	if e.mut == nil || e.mut.numDeleted == 0 {
		return kthSmallest(repDists, k, sc)
	}
	live := sc.Float64(7, len(repDists))[:0]
	for j, d := range repDists {
		if !e.mut.deleted[e.repIDs[j]] {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return math.Inf(1), math.Inf(1)
	}
	return kthSmallest(live, k, sc)
}

// scanBuffer feeds representative j's live insertion-buffer members to
// emit as ordering distances, and returns the number of distance
// evaluations. The buffer — ascending in (dist, id) like the segment — is
// clipped to the admissible window of half-width w by the same binary
// search the segment scan uses.
func (e *Exact) scanBuffer(p *probe, j int, w float64, emit func(id int, ord float64)) int64 {
	ids, d := e.mut.bufIDs[j], p.d[j]
	lo, hi := AdmissibleWindow(e.mut.bufDists[j], d-w, d+w)
	var evals int64
	out := p.cell[:1]
	for i := lo; i < hi; i++ {
		id := ids[i]
		if e.mut.deleted[id] {
			continue
		}
		// The kernel's ordering path, even for one row, so rounding matches
		// the gathered-scan and brute-force code paths bit for bit.
		e.ker.Ordering(p.q, e.db.Row(int(id)), e.db.Dim, out)
		evals++
		emit(int(id), out[0])
	}
	return evals
}
