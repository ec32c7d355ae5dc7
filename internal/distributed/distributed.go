// Package distributed implements the paper's future-work proposal (§8):
// distributing the RBC database across machines *by representative*. The
// coordinator holds only the (small, O(√n)) representative set; each
// shard holds the ownership lists of the representatives assigned to it.
// A query is answered by scanning the representatives locally, pruning
// with the exact-search bounds, and contacting only the shards that own a
// surviving representative — in contrast to a brute-force cluster, which
// must broadcast every query to every shard.
//
// The query plane is batch-first: KNNBatch takes whole query blocks,
// groups the surviving (query, list) pairs by owning shard, and sends ONE
// request per shard per block — so a 64-query block that routes to 8
// shards costs 16 messages instead of up to 1024. KNN is the single-query
// special case of the same path, and k = 1 is the paper's 1-NN search.
//
// # The tiled shard-scan contract
//
// Shards do not score candidates one pair at a time. A shard request
// carries its whole query block; core.ScanGrouped — the grouped phase-2
// driver Exact's batch back half uses — inverts the block's
// (query, segment) pairs into per-segment taker sets and scans each
// owned segment ONCE for all of its takers, choosing tile or row per
// point block. Dense taker sets become BF(Q', L)
// matrix-matrix tiles; a segment with a single taker (e.g. a one-query
// block degenerating to the old per-query shape) falls back to the row
// kernel.
//
// Every kernel on the answer path is EXACT grade (metric.NewKernel):
// per-pair arithmetic is bit-identical to the per-query row reference,
// so the orderings a shard emits are independent of block composition
// and of the tile-vs-row choice. The whole pipeline — coordinator
// phase 1, pruning-bound conversion, heap merging — runs in ordering
// space exactly as core.Exact does, converting to true distances only at
// the API boundary. Consequences, relied on by the test suite:
//
//   - KNNBatch results are bit-identical to per-query KNN calls;
//   - Cluster answers are bit-identical to the single-node core.Exact
//     index built with the same parameters (same reported distances,
//     same ids at razor ties).
//
// The fast Gram kernel grade (metric.NewFastKernel) is NOT allowed on
// this path: its reassociated summation can drift in trailing ulps,
// which would break both guarantees. It remains fair game for phases
// whose outputs are not reported answers (e.g. a future approximate
// routing phase), mirroring how core.OneShot restricts it to probe
// selection.
//
// # Shard-side home probe and admissible windows
//
// The cluster runs the paper's Claim 2 "sorted list" refinement and
// core.Exact's home probe on the shards. Shard segments are the index's
// own lists, copied at Build in their ascending
// distance-to-representative order. Each routed request ships, per
// (query, segment) entry, the representative distance d = ρ(q,r), and
// per query the coordinator's bound: the ordering of its rep-seeded
// heap's worst (its current k-th candidate). The shard rebuilds the
// window half-width w from the bound — its true distance, +Inf while the
// seeded heap is not full — and scans in two passes, each one
// core.ScanGrouped call:
//
//  1. Probe. Each query's local home — its routed entry with the
//     smallest d, the first at ties — scans its core.ProbeRun, the
//     core.HomeProbe·k members whose ρ(x,r) lie nearest d. On the shard
//     that owns the query's nearest representative this is the very list
//     core.Exact probes.
//  2. Clip. Once the query's shard heap is full, its worst candidate is
//     a real answer bound, so w drops to that candidate's distance when
//     smaller. Every entry then scans its admissible window [d−w, d+w]
//     (core.AdmissibleWindow, a binary search over the sorted segment),
//     the local home's minus the probed run.
//
// By the triangle inequality |ρ(q,r) − ρ(x,r)| ≤ ρ(q,x), a member outside
// the window cannot beat the k-th candidate w bounds. That holds for any
// upper bound on the k-th distance, so the probe's tighter w prunes more
// and stays exact. QueryBroadcast ships neither distances nor bounds:
// its requests scan whole segments.
//
// The protocol cost is 8 bytes per (query, segment) entry — one float64
// — accounted in QueryMetrics.Bytes and counted by QueryMetrics.Windows;
// windows that clip to nothing shard-side are reported in
// QueryMetrics.EmptyWindows. The probe and the windows change work done,
// never results: both window boundaries are inclusive, the interval
// derives from a true upper bound on the final k-th neighbor, and the
// arithmetic (d−w, d+w, the probe run and the binary-search boundary
// rule) is byte-for-byte the one Exact's own list scans run — so cluster
// answers stay bit-identical to per-query calls, to brute force and to
// the single-node core.Exact index. The window contract is EXACT-GRADE
// ONLY, like the rest of the answer path: it presumes per-pair
// arithmetic that is bit-identical to the row reference, and the fast
// Gram kernel grade would void the window's boundary guarantees along
// with the rest of the contract.
//
// # Transports: loopback and TCP
//
// Build starts the cluster on the in-process loopback transport: the
// fan-out calls each contacted shard's scan directly, one goroutine per
// shard (real concurrency), and a cost model accounts for messages,
// bytes and simulated latency so the experiments can report
// communication costs, as §8 calls for.
//
// Cluster.Distribute lifts the same cluster onto real shard processes
// (cmd/rbc-shard) speaking the length-prefixed, CRC-checked binary
// protocol of the internal/distributed/wire package: each shard's
// gathered state is pushed once (MsgLoad), then every fan-out sends one
// MsgScan per shard per block — the wire form of shardRequest,
// representative distances and bounds included. Distances cross the wire as IEEE-754 bit
// patterns and the remote scan path is the same shard.scan code, so
// answers over TCP are bit-identical to loopback and to core.Exact;
// the loopback transport doubles as the correctness oracle in the
// equivalence tests.
//
// The TCP client pools connections per shard, bounds every attempt with
// a deadline, and retries transient failures (connect errors, IO
// errors, torn or corrupt frames) with doubling backoff up to
// TCPOptions.MaxAttempts. A shard that stays unreachable either fails
// the batch with a typed *ShardError (DegradeFailFast, the default) or
// is skipped with the miss accounted in QueryMetrics.FailedShards
// (DegradePartial). Queries never hang on a dead shard: every attempt
// is deadline-bounded, so the worst case is MaxAttempts×RequestTimeout
// plus backoff.
//
// # Replication, hedged requests and live rebalancing
//
// Cluster.DistributeReplicas pushes each shard's state to an ordered
// replica SET instead of a single address. A scan tries the set in
// order: a replica whose retry budget is exhausted (or that refuses via
// MsgErr) hands the scan to the next replica, and the degradation
// policy applies only when the whole set is exhausted — the *ShardError
// then names every replica tried. With TCPOptions.Hedge, a scan that
// has not answered after a delay (fixed, or adaptive from each
// replica's windowed p95 RTT) is additionally duplicated onto the next
// replica; the first answer wins and the losers are cancelled on the
// wire. Cancellation is not failure: hedge losers charge the Cancelled
// counter, never Failures, so ShardNetStats separates policy from
// pathology (Hedged/HedgeWins/Cancelled vs Retries/Failures).
//
// Replica sets change online. AddShardReplica pushes the retained
// state to a new address at the shard's current epoch;
// RemoveShardReplica drops one (never the last). Rebalance moves
// representatives between shards: affected shards are rebuilt from the
// retained segment data, the new states are pushed to EVERY replica at
// a bumped per-shard epoch, and only then does the routing table cut
// over — atomically, because queries hold the lifecycle read lock
// across their whole fan-out and the mutators hold the write side. The
// epoch travels in every ScanRequest, and a shard rejects a scan whose
// epoch does not match the state it holds ("stale epoch"), so answers
// computed against two different layouts can never be merged. Answers
// stay bit-identical through all of it — replication, hedging, replica
// death, rebalance — because every replica serves byte-identical state
// and the merge never depends on which replica scanned a segment.
package distributed

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/distributed/wire"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// CostModel translates counted events into simulated time.
type CostModel struct {
	// LatencyUS is the one-way network latency per message, microseconds.
	LatencyUS float64
	// BandwidthMBps is the link bandwidth used for payload transfer time.
	BandwidthMBps float64
	// EvalNS is the simulated cost of one distance evaluation.
	EvalNS float64
}

// DefaultCostModel reflects a commodity cluster: 50µs RTT/2, 1 GB/s
// links, ~5ns per float32 distance-evaluation dimension-normalized unit.
func DefaultCostModel() CostModel {
	return CostModel{LatencyUS: 25, BandwidthMBps: 1000, EvalNS: 5}
}

// QueryMetrics records the cost of answering one query (or one batch —
// the counters simply accumulate).
type QueryMetrics struct {
	// ShardsContacted is how many shard requests were sent. Batched
	// fan-out sends at most one request per shard per block, so this is
	// the message-amortization win.
	ShardsContacted int
	// Messages counts request + response messages.
	Messages int
	// Bytes counts payload bytes moved (query vectors and pruning bounds
	// out, results back).
	Bytes int
	// RepEvals counts coordinator-side representative evaluations
	// (phase 1: nq × nr per block).
	RepEvals int64
	// PointEvals counts shard-side segment-scan evaluations, measured as
	// admissible (query, position) pairs — identical between the batched
	// and the per-query path by construction.
	PointEvals int64
	// Evals is RepEvals + PointEvals, kept as the total the experiments
	// report.
	Evals int64
	// Windows counts the (query, segment) entries of routed requests, each
	// shipped as the representative distance its shard rebuilds the
	// admissible window from (WindowBytes each). Identical between the
	// batched and the per-query path, like the eval counters.
	Windows int64
	// EmptyWindows counts shipped entries whose window clipped to no
	// positions shard-side: the query's k-th candidate, as tightened by
	// the shard's home probe, ruled the whole sorted segment out, so its
	// scan was skipped (a local home's probed run is scanned regardless).
	EmptyWindows int64
	// SimTimeUS is the modeled latency: coordinator work plus the slowest
	// contacted shard's (transfer + scan + reply) path.
	SimTimeUS float64
	// FailedShards counts contacted shards whose answers never arrived
	// (networked transport under DegradePartial only — every other
	// configuration surfaces the failure as an error instead). A nonzero
	// count means the merged results may be missing neighbors held by
	// the failed shards.
	FailedShards int
}

// Add accumulates o into m (used for run totals).
func (m *QueryMetrics) Add(o QueryMetrics) {
	m.ShardsContacted += o.ShardsContacted
	m.Messages += o.Messages
	m.Bytes += o.Bytes
	m.RepEvals += o.RepEvals
	m.PointEvals += o.PointEvals
	m.Evals += o.Evals
	m.Windows += o.Windows
	m.EmptyWindows += o.EmptyWindows
	m.SimTimeUS += o.SimTimeUS
	m.FailedShards += o.FailedShards
}

// shard owns a contiguous group of representatives and their gathered
// ownership lists.
type shard struct {
	id       int
	dim      int
	ker      *metric.Kernel // exact grade — see the package comment
	repIDs   []int32        // global database ids of owned representatives
	offsets  []int          // per-owned-rep segment offsets into ids/gather
	ids      []int32        // member database ids (gathered layout)
	isRep    []bool         // position → member is itself a representative
	gather   []float32      // member vectors
	segDists []float64      // position → ρ(member, owning rep); ascending per segment
}

// shardRequest carries one block of queries: qs holds len(segs) packed
// query vectors and segs lists the owned-representative segments each
// query must scan. bounds optionally carries, per query, the
// coordinator's current k-th candidate ordering (the rep-seeded heap's
// worst): candidates strictly beyond it cannot enter the merged result
// and are dropped shard-side. dists carries each entry's representative
// distance ρ(q,r) as one flat sequence aligned with the concatenation of
// segs — dists[p] belongs to the p-th (query, segment) entry in segs
// iteration order; from it and the query's bound the shard picks the
// local home, probes it and rebuilds every admissible window (see the
// package comment). The flat layout is one allocation per request
// instead of one per query. Routed searches always ship dists and
// bounds; broadcast requests leave both nil and scan whole segments.
// includeReps admits representative positions into the scan's results
// (broadcast mode); routed searches leave it false because the
// coordinator seeds every representative itself.
type shardRequest struct {
	qs          []float32
	segs        [][]int
	dists       []float64
	bounds      []float64
	k           int
	epoch       uint32 // shard-state generation the routing table was built for
	includeReps bool
}

// shardReply carries per-query candidate sets in ORDERING space; the
// coordinator converts to true distances at the API boundary.
type shardReply struct {
	sid       int
	knn       [][]par.Neighbor // per query: up to k nearest candidates
	evals     int64
	emptyWins int64 // windows that clipped to no admissible positions
}

// scan answers one batched request through core.ScanGrouped, which scans
// each segment once for all of its takers. A routed request (dists set)
// takes two passes, as the package comment describes: probeRuns, then
// windows at the bound the probe tightened. A broadcast request scans its
// segments whole in one pass. Representatives are excluded unless
// includeReps is set, because the coordinator seeds every representative
// as a candidate (their distances are already paid for in phase 1);
// scanning them again would duplicate ids in the merged result set.
func (s *shard) scan(req shardRequest) shardReply {
	nq := len(req.segs)
	rep := shardReply{sid: s.id, knn: make([][]par.Neighbor, nq)}
	sc := par.GetScratch()
	defer par.PutScratch(sc)
	heaps := sc.HeapSlab(nq, req.k)
	emit := func(qi, lo int, ords []float64) {
		limit := math.Inf(1)
		if req.bounds != nil {
			limit = req.bounds[qi]
		}
		// Admission tests the bound before anything else: the
		// coordinator's limit, tightened by the heap's k-th kept
		// ordering (past which Push is a no-op), refreshed only when a
		// Push keeps its candidate. Ties at the bound still reach Push;
		// NaN never passes, as it never passed the limit.
		h := heaps[qi]
		worst, _ := h.Worst()
		bound := min(limit, worst)
		for t, o := range ords {
			if !(o <= bound) {
				continue
			}
			if p := lo + t; (req.includeReps || !s.isRep[p]) && h.Push(int(s.ids[p]), o) {
				worst, _ = h.Worst()
				bound = min(limit, worst)
			}
		}
	}
	nlists := len(s.offsets) - 1
	total := 0
	for _, segs := range req.segs {
		total += len(segs)
	}
	// One spare quadruple per query: windows splits each local home in two.
	kept := sc.Ints(0, 4*(total+nq))[:0]
	if req.dists == nil {
		for qi, segs := range req.segs {
			for _, seg := range segs {
				kept = append(kept, qi, seg, s.offsets[seg], s.offsets[seg+1])
			}
		}
	} else {
		homes := sc.Ints(6, 3*nq)
		rep.evals = core.ScanGrouped(s.ker, req.qs, s.dim, s.gather, nlists, s.probeRuns(req, homes, kept), sc, emit)
		kept, rep.emptyWins = s.windows(req, homes, heaps, kept[:0])
	}
	rep.evals += core.ScanGrouped(s.ker, req.qs, s.dim, s.gather, nlists, kept, sc, emit)
	for qi := 0; qi < nq; qi++ {
		rep.knn[qi] = heaps[qi].Results()
	}
	return rep
}

// probeRuns is a routed scan's first pass. It appends to kept, per query,
// the core.ProbeRun of its local home: the routed entry with the smallest
// representative distance, the first at ties (a query routed nowhere has
// none). homes[3qi] records that entry's flat index into dists (−1 for
// none) and homes[3qi+1], homes[3qi+2] the run's gathered positions, for
// windows to scan around.
func (s *shard) probeRuns(req shardRequest, homes, kept []int) []int {
	p := 0
	for qi, segs := range req.segs {
		home, d := par.ArgMin(req.dists[p : p+len(segs)])
		homes[3*qi] = -1
		if home >= 0 {
			homes[3*qi] = p + home
			seg := segs[home]
			off := s.offsets[seg]
			lo, hi := core.ProbeRun(s.segDists[off:s.offsets[seg+1]], d, core.HomeProbe*req.k)
			homes[3*qi+1], homes[3*qi+2] = off+lo, off+hi
			kept = append(kept, qi, seg, off+lo, off+hi)
		}
		p += len(segs)
	}
	return kept
}

// windows is a routed scan's second pass. Each query's window half-width
// is its bound's true distance (+Inf while the coordinator's seeded heap
// was not full), lowered to the shard heap's worst once the probe filled
// it. Every entry's admissible window [d−w, d+w] is appended to kept —
// the local home's as two quadruples around its probed run, as
// core.Exact keeps its home list. It returns kept and the number of
// entries whose window held no position at all.
func (s *shard) windows(req shardRequest, homes []int, heaps []*par.KHeap, kept []int) ([]int, int64) {
	var empty int64
	p := 0
	for qi, segs := range req.segs {
		w := math.Inf(1)
		if b := req.bounds[qi]; !math.IsInf(b, 1) {
			w = s.ker.ToDistance(b)
		}
		if worst, full := heaps[qi].Worst(); full {
			w = min(w, s.ker.ToDistance(worst))
		}
		for e, seg := range segs {
			off := s.offsets[seg]
			d := req.dists[p+e]
			a, b := core.AdmissibleWindow(s.segDists[off:s.offsets[seg+1]], d-w, d+w)
			if a >= b {
				// Nothing admissible (or a zero-length segment of a
				// duplicate representative): a shipped-but-futile entry.
				empty++
				continue
			}
			lo, hi := off+a, off+b
			if p+e == homes[3*qi] {
				a, b = core.SplitAroundRun(lo, hi, homes[3*qi+1], homes[3*qi+2])
				kept = append(kept, qi, seg, lo, a, qi, seg, b, hi)
				continue
			}
			kept = append(kept, qi, seg, lo, hi)
		}
		p += len(segs)
	}
	return kept, empty
}

// Cluster is an RBC-sharded deployment. Build starts it on the
// in-process loopback transport (shards scanned by direct calls);
// Distribute lifts the same cluster onto TCP shard processes without
// changing a single answer bit.
type Cluster struct {
	m    metric.Metric[[]float32]
	ker  *metric.Kernel // exact grade, shared by coordinator and shards
	dim  int
	cost CostModel

	// shards holds the in-process shard state. On loopback the fan-out
	// scans it directly; Distribute ships it to the remote processes but
	// RETAINS the data — replica repair (AddShardReplica) and Rebalance
	// re-push it. Close frees it.
	shards    []*shard
	loads     []int // points held per shard
	segCounts []int // segments held per shard

	// epochs holds each shard's state generation, starting at 1. A
	// shard's epoch bumps exactly when its segment composition changes
	// (Rebalance); every routed scan carries its shard's epoch so a
	// stale replica rejects scans planned against a different layout.
	epochs []uint32

	// Coordinator state: the full representative set with radii, plus the
	// routing table rep → (shard, segment).
	repData  *vec.Dataset
	repIDs   []int
	radii    []float64
	repShard []int32
	repSeg   []int32

	// lifeMu serializes lifecycle transitions against in-flight queries:
	// entry points hold the read side across their whole fan-out, so
	// Close (write side) cannot tear the transport down under them —
	// the send-on-closed-channel panic the old Close had — and
	// query-after-Close gets ErrClusterClosed instead of a panic.
	lifeMu sync.RWMutex
	closed bool
	tr     transport
}

// Build constructs a cluster of `shards` shards over db. It builds a
// standard exact RBC and deals representatives round-robin (by descending
// list size, largest first) so shard loads balance. Routed queries ship
// per-(query, segment) admissible windows and shards clip their scans to
// them (see the package comment).
func Build(db *vec.Dataset, m metric.Metric[[]float32], prm core.ExactParams, shards int, cost CostModel) (*Cluster, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("distributed: need at least one shard, got %d", shards)
	}
	if prm.ApproxEps > 0 {
		// The cluster's pruning and windows are exact-only: they use the
		// unrelaxed γ_k, so a (1+ε)-approximate build would silently do
		// more work than — and return different bits from — the
		// single-node Exact index with the same parameters, breaking the
		// bit-identity contract the package documents.
		return nil, fmt.Errorf("distributed: ApproxEps %v not supported; the cluster serves exact answers only", prm.ApproxEps)
	}
	idx, err := core.BuildExact(db, m, prm)
	if err != nil {
		return nil, err
	}
	nr := idx.NumReps()
	c := &Cluster{
		m: m, ker: metric.NewKernel(m), dim: db.Dim, cost: cost,
		repData:  db.Subset(idx.RepIDs()),
		repIDs:   idx.RepIDs(),
		radii:    idx.Radii(),
		repShard: make([]int32, nr),
		repSeg:   make([]int32, nr),
	}
	isRep := make([]bool, db.N())
	for _, id := range c.repIDs {
		isRep[id] = true
	}
	// Longest-processing-time assignment: sort reps by list size
	// descending, place each on the currently lightest shard.
	sizes := idx.ListSizes()
	order := make([]int, nr)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	load := make([]int, shards)
	perShard := make([][]int, shards)
	for _, rep := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += sizes[rep]
		perShard[best] = append(perShard[best], rep)
	}
	// Materialize shards from the index's own list-ordered columns, so
	// shard segments hold exactly the lists the radii were computed over,
	// in the ascending (distance-to-representative, id) order core.Exact
	// keeps them in — which is what makes the admissible windows a binary
	// search shard-side.
	for sid := 0; sid < shards; sid++ {
		sh := &shard{id: sid, dim: db.Dim, ker: c.ker}
		sh.offsets = append(sh.offsets, 0)
		sh.ids = make([]int32, 0, load[sid])
		sh.isRep = make([]bool, 0, load[sid])
		sh.gather = make([]float32, 0, load[sid]*db.Dim)
		for seg, rep := range perShard[sid] {
			c.repShard[rep] = int32(sid)
			c.repSeg[rep] = int32(seg)
			sh.repIDs = append(sh.repIDs, int32(c.repIDs[rep]))
			ids, dists, rows := idx.List(rep)
			sh.ids = append(sh.ids, ids...)
			sh.gather = append(sh.gather, rows...)
			sh.segDists = append(sh.segDists, dists...)
			for _, id := range ids {
				sh.isRep = append(sh.isRep, isRep[id])
			}
			sh.offsets = append(sh.offsets, len(sh.ids))
		}
		c.shards = append(c.shards, sh)
		c.loads = append(c.loads, len(sh.ids))
		c.segCounts = append(c.segCounts, len(sh.offsets)-1)
		c.epochs = append(c.epochs, 1)
	}
	c.tr = &loopback{c: c}
	return c, nil
}

// NumShards reports the cluster size.
func (c *Cluster) NumShards() int { return len(c.loads) }

// ShardLoads returns the number of database points held per shard.
func (c *Cluster) ShardLoads() []int {
	out := make([]int, len(c.loads))
	copy(out, c.loads)
	return out
}

const float32Bytes = 4
const resultBytes = 16 // id + distance + framing
const boundBytes = 8   // per-query pruning bound shipped with routed requests

// WindowBytes is the wire size of one routed (query, segment) entry —
// the float64 representative distance the shard rebuilds the admissible
// window from. QueryMetrics.Bytes accounts QueryMetrics.Windows ×
// WindowBytes of window traffic; consumers reporting window overhead
// should derive from this constant.
const WindowBytes = 8

// shardBatch accumulates one shard's slice of a query block: which
// global queries it serves, which segments each scans — one flat
// sequence, query t's entries ending at ends[t] — and, on routed
// batches, each entry's representative distance as a flat sequence
// aligned with segs. One backing array per column per shard per block,
// however many queries the shard serves.
type shardBatch struct {
	qidx  []int
	ends  []int
	segs  []int
	dists []float64
}

// add appends segment seg of query qi (queries arrive in ascending
// order, so the last entry check suffices). Routed batches append the
// entry's representative distance to dists alongside; broadcast batches
// leave dists nil.
func (sb *shardBatch) add(qi, seg int) {
	if n := len(sb.qidx); n == 0 || sb.qidx[n-1] != qi {
		sb.qidx = append(sb.qidx, qi)
		sb.ends = append(sb.ends, len(sb.segs))
	}
	sb.segs = append(sb.segs, seg)
	sb.ends[len(sb.ends)-1]++
}

// querySegs returns query t's segment list for every served query t, as
// views into the flat segs column.
func (sb *shardBatch) querySegs() [][]int {
	out := make([][]int, len(sb.ends))
	start := 0
	for t, end := range sb.ends {
		out[t] = sb.segs[start:end:end]
		start = end
	}
	return out
}

// KNN answers one k-NN query with RBC routing: the coordinator prunes
// representatives exactly as the single-machine exact search does, then
// contacts only the shards owning survivors. It is KNNBatch on a
// one-query block and bit-identical to the query's row in any batched
// call.
func (c *Cluster) KNN(q []float32, k int) ([]par.Neighbor, QueryMetrics, error) {
	nbs, met, err := c.KNNBatch(vec.FromFlat(q, len(q)), k)
	if err != nil {
		return nil, met, err
	}
	return nbs[0], met, nil
}

// KNNBatch answers a block of k-NN queries with batched shard fan-out.
// The pruning generalizes the exact-search bounds to k neighbors through
// the single-machine index's rules (core.PrunedByPsi, core.PrunedByTriple):
// with γ_k the k-th smallest representative distance, rule (1) discards
// representatives with ρ(q,r) > γ_k + ψ_r and rule (2) those with
// ρ(q,r) > 2γ_k + γ_1; at k = 1 these are the paper's exact-search rules
// (γ_k = γ_1, 2γ_k + γ_1 = 3γ). The coordinator holds no points, so it
// prunes at the representative γ_k; the home probe that tightens γ_k in
// core.Exact runs shard-side instead and clips the windows (see the
// package comment). Both rules are strict, so neither prunes a list
// holding a tied answer, and the cluster returns core.Exact's
// (dist, id) answer.
// Every representative is seeded as a candidate (they are database
// points whose distances are already paid for), which keeps the result
// multiset exact at pruning-boundary ties; shards skip representatives
// during their scans in exchange. The merge runs in ordering space, so
// results are bit-identical to core.Exact and to per-query KNN calls
// (see the package comment for the contract).
//
// On a networked cluster a shard that stays unreachable after the
// transport's retry budget either fails the whole batch with a typed
// *ShardError (DegradeFailFast, the default) or is skipped with the
// miss accounted in QueryMetrics.FailedShards (DegradePartial). After
// Close every call returns ErrClusterClosed.
func (c *Cluster) KNNBatch(queries *vec.Dataset, k int) ([][]par.Neighbor, QueryMetrics, error) {
	nq := queries.N()
	out := make([][]par.Neighbor, nq)
	var met QueryMetrics
	if nq == 0 || k <= 0 {
		return out, met, nil
	}
	c.checkDim(queries.Dim)
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	if c.closed {
		return nil, met, ErrClusterClosed
	}
	heaps, bounds, batches := c.plan(queries, k, &met)
	err := c.finish(queries, k, batches, bounds, false, &met, func(rp shardReply, qidx []int) {
		for t, qi := range qidx {
			for _, nb := range rp.knn[t] {
				heaps[qi].Push(nb.ID, nb.Dist)
			}
		}
	})
	if err != nil {
		return nil, met, err
	}
	for i, h := range heaps {
		out[i] = c.toNeighbors(h)
	}
	return out, met, nil
}

// plan runs the coordinator phase over a query block: the shared tiled
// exact BF(Q,R) front half (core.TileFrontHalf, the same hook Exact's
// batch paths ride) in ordering space, per-query pruning-bound
// computation in distance space (their triangle-inequality derivations
// add real distances), heap seeding with every representative, and the
// survivor → (shard, segment) routing table. It returns the per-query
// candidate heaps (ordering space), the per-query shard-side pruning
// bound (the seeded heap's worst ordering, +Inf while not full), and the
// per-shard batches. Each surviving segment carries its representative
// distance ρ(q,r); the shard rebuilds the admissible window from it and
// the query's bound with exactly the d±w arithmetic Exact's list scans
// run, so shard-side windows clip the same admissible sets the
// single-node index scans at the same bound.
func (c *Cluster) plan(queries *vec.Dataset, k int, met *QueryMetrics) ([]*par.KHeap, []float64, []shardBatch) {
	nq := queries.N()
	nr := c.repData.N()
	heaps := make([]*par.KHeap, nq)
	bounds := make([]float64, nq)
	// Survivor lists and their representative distances live in one
	// block-level pooled slab — per-query segments of width nr, written
	// concurrently by the front-half workers on disjoint ranges and read
	// back once while building the shard batches below. This Scratch
	// belongs to plan, not to any front-half worker (those pull their own
	// instances), so the slabs stay live across the whole block; pooling
	// them removes per-query survivor append allocations.
	psc := par.GetScratch()
	defer par.PutScratch(psc)
	survAll := psc.Ints(0, nq*nr)
	survN := psc.Ints(1, nq)
	distAll := psc.Float64(0, nq*nr)
	kk := k
	if kk > nr {
		kk = nr
	}
	st := core.TileFrontHalf(c.ker, queries, c.repData,
		func(qi int, ords []float64, sc *par.Scratch) core.Stats {
			dists := sc.Float64(0, nr)
			for j, o := range ords {
				dists[j] = c.ker.ToDistance(o)
			}
			sel := sc.Heap(1, kk)
			for j, d := range dists {
				sel.Push(j, d)
			}
			best, _ := sel.Best()
			gamma1 := best.Dist
			gammaK := math.Inf(1)
			if w, full := sel.Worst(); full && k <= nr {
				gammaK = w
			}
			h := par.NewKHeap(k)
			for j := range ords {
				h.Push(c.repIDs[j], ords[j])
			}
			heaps[qi] = h
			bounds[qi], _ = h.Worst()
			surv := survAll[qi*nr : (qi+1)*nr]
			survD := distAll[qi*nr : (qi+1)*nr]
			cnt := 0
			for j := 0; j < nr; j++ {
				if core.PrunedByPsi(dists[j], gammaK, c.radii[j]) ||
					core.PrunedByTriple(dists[j], gamma1, gammaK) {
					continue
				}
				surv[cnt] = j
				survD[cnt] = dists[j]
				cnt++
			}
			survN[qi] = cnt
			return core.Stats{RepEvals: int64(nr)}
		})
	met.RepEvals += st.RepEvals
	met.Evals += st.RepEvals
	batches := make([]shardBatch, len(c.segCounts))
	for i := 0; i < nq; i++ {
		base := i * nr
		for si := 0; si < survN[i]; si++ {
			j := survAll[base+si]
			sb := &batches[c.repShard[j]]
			sb.add(i, int(c.repSeg[j]))
			sb.dists = append(sb.dists, distAll[base+si])
		}
	}
	return heaps, bounds, batches
}

// toNeighbors extracts a heap's candidates sorted ascending, converting
// ordering distances at the boundary and re-sorting in distance space
// (the conversion can map distinct ordering values to equal distances) —
// the same finish core.Exact applies.
func (c *Cluster) toNeighbors(h *par.KHeap) []par.Neighbor {
	res := h.Results()
	for i := range res {
		res[i].Dist = c.ker.ToDistance(res[i].Dist)
	}
	par.SortNeighbors(res)
	return res
}

// QueryBroadcast answers one 1-NN query the brute-force way: every shard
// scans everything it holds, representatives included (the coordinator's
// representative knowledge is deliberately unused). The baseline for the
// §8 experiments. The answer has the shape of KNN(q, 1): at most one
// neighbor, none when no shard answered.
func (c *Cluster) QueryBroadcast(q []float32) ([]par.Neighbor, QueryMetrics, error) {
	var met QueryMetrics
	best := par.Neighbor{ID: -1, Dist: math.Inf(1)}
	batches := make([]shardBatch, len(c.segCounts))
	for sid, nseg := range c.segCounts {
		for seg := 0; seg < nseg; seg++ {
			batches[sid].add(0, seg)
		}
	}
	queries := vec.FromFlat(q, len(q))
	c.checkDim(queries.Dim)
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	if c.closed {
		return nil, met, ErrClusterClosed
	}
	err := c.finish(queries, 1, batches, nil, true, &met, func(rp shardReply, qidx []int) {
		if len(rp.knn[0]) == 0 {
			return
		}
		nb := rp.knn[0][0]
		if nb.Dist < best.Dist || (nb.Dist == best.Dist && nb.ID < best.ID) {
			best = nb
		}
	})
	if err != nil {
		return nil, met, err
	}
	if best.ID < 0 {
		return nil, met, nil
	}
	return []par.Neighbor{{ID: best.ID, Dist: c.ker.ToDistance(best.Dist)}}, met, nil
}

// finish fans a query block out to the shards with work, merges answers
// through sink and fills in the cost model. Per contacted shard it
// accounts one request and one response message, the packed query
// vectors (plus, on routed batches, pruning bounds and one
// WindowBytes representative distance per (query, segment) entry) out
// and k results per query back.
//
// Fan-out runs one goroutine per contacted shard through the installed
// transport (loopback's direct call or TCP); sink runs only on the
// collector goroutine, so merge state needs no locking. A shard the
// transport gives up on either fails the batch (DegradeFailFast: first
// error wins, returned after all replies drain) or is skipped with the
// miss counted in met.FailedShards (DegradePartial). The caller holds
// c.lifeMu.RLock, so the transport cannot be closed mid-flight.
func (c *Cluster) finish(queries *vec.Dataset, k int, batches []shardBatch, bounds []float64, includeReps bool, met *QueryMetrics, sink func(rp shardReply, qidx []int)) error {
	type scanResult struct {
		sid int
		rp  shardReply
		err error
	}
	results := make(chan scanResult, len(batches))
	queryBytes := c.dim*float32Bytes + 16
	if bounds != nil {
		queryBytes += boundBytes
	}
	contacted := 0
	shardBytes := make([]int, len(batches))
	for sid := range batches {
		sb := &batches[sid]
		if len(sb.qidx) == 0 {
			continue
		}
		qs := make([]float32, len(sb.qidx)*c.dim)
		var bs []float64
		if bounds != nil {
			bs = make([]float64, len(sb.qidx))
		}
		for t, qi := range sb.qidx {
			copy(qs[t*c.dim:(t+1)*c.dim], queries.Row(qi))
			if bs != nil {
				bs[t] = bounds[qi]
			}
		}
		req := &shardRequest{qs: qs, segs: sb.querySegs(), dists: sb.dists, bounds: bs, k: k, epoch: c.epochs[sid], includeReps: includeReps}
		go func(sid int, req *shardRequest) {
			rp, err := c.tr.scan(sid, req)
			results <- scanResult{sid: sid, rp: rp, err: err}
		}(sid, req)
		contacted++
		shardBytes[sid] = len(sb.qidx) * (queryBytes + k*resultBytes)
		if sb.dists != nil {
			shardBytes[sid] += len(sb.dists) * WindowBytes
			met.Windows += int64(len(sb.dists))
		}
		met.ShardsContacted++
		met.Messages += 2 // request + response
		met.Bytes += shardBytes[sid]
	}
	var slowest float64
	var firstErr error
	failed := 0
	for r := 0; r < contacted; r++ {
		res := <-results
		if res.err != nil {
			failed++
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		rp := res.rp
		met.PointEvals += rp.evals
		met.Evals += rp.evals
		met.EmptyWindows += rp.emptyWins
		sink(rp, batches[res.sid].qidx)
		// Per-shard critical path: request latency + transfer + scan +
		// response latency. The slowest contacted shard dominates.
		transferUS := float64(shardBytes[res.sid]) / (c.cost.BandwidthMBps * 1e6) * 1e6
		scanUS := float64(rp.evals) * c.cost.EvalNS / 1000
		if t := 2*c.cost.LatencyUS + transferUS + scanUS; t > slowest {
			slowest = t
		}
	}
	met.SimTimeUS += slowest
	if failed > 0 {
		if c.tr.degrade() == DegradePartial {
			met.FailedShards += failed
			return nil
		}
		return firstErr
	}
	return nil
}

func (c *Cluster) checkDim(dim int) {
	if dim != c.dim {
		panic(fmt.Sprintf("distributed: query dim %d does not match database dim %d", dim, c.dim))
	}
}

// Distribute lifts the cluster onto real TCP shard processes, one
// replica per shard (addrs[i] serves shard i). It is DistributeReplicas
// with single-replica sets; see there for the contract.
func (c *Cluster) Distribute(addrs []string, opts TCPOptions) error {
	assignment := make([][]string, len(addrs))
	for i, a := range addrs {
		assignment[i] = []string{a}
	}
	return c.DistributeReplicas(assignment, opts)
}

// DistributeReplicas lifts the cluster onto real TCP shard processes
// with replication: assignment[i] is shard i's ordered replica set, and
// every replica receives the shard's full state (MsgLoad, stamped with
// the shard's current epoch). Once every replica of every shard has
// acknowledged, the transport swaps over; the in-process shard data is
// retained so AddShardReplica and Rebalance can re-push it later. The
// gathered layouts cross the wire bit-exactly, every replica of a shard
// holds identical state, and the remote scan path is the same shard.scan
// code — so answers after DistributeReplicas are bit-identical to
// before, whichever replica serves them.
//
// On any load failure the cluster is left untouched on the loopback
// transport and the error (a typed *ShardError naming the replica) is
// returned. The lift is one-way: a second call returns an error.
func (c *Cluster) DistributeReplicas(assignment [][]string, opts TCPOptions) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	if _, ok := c.tr.(*loopback); !ok {
		return fmt.Errorf("distributed: cluster already distributed")
	}
	if len(assignment) != len(c.shards) {
		return fmt.Errorf("distributed: %d replica sets for %d shards", len(assignment), len(c.shards))
	}
	for sid, addrs := range assignment {
		if len(addrs) == 0 {
			return fmt.Errorf("distributed: shard %d has an empty replica set", sid)
		}
	}
	spec, err := wire.SpecFor(c.m)
	if err != nil {
		return err
	}
	tt := newTCPTransport(c.dim, assignment, opts)
	for sid, sh := range c.shards {
		if err := tt.load(sid, wire.EncodeShardState(stateOf(sh, spec, c.epochs[sid]))); err != nil {
			tt.close()
			return err
		}
	}
	c.tr.close()
	c.tr = tt
	return nil
}

// ShardReplicas returns each shard's current ordered replica address
// set, or nil while the cluster runs on the in-process loopback
// transport.
func (c *Cluster) ShardReplicas() [][]string {
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	tt, ok := c.tr.(*tcpTransport)
	if !ok {
		return nil
	}
	out := make([][]string, len(tt.sets))
	for i, rs := range tt.sets {
		for _, r := range rs.replicas {
			out[i] = append(out[i], r.addr)
		}
	}
	return out
}

// RepAssignment returns the current representative→shard assignment:
// element rep is the shard owning representative rep's segment. The
// slice is a fresh copy in exactly the shape Rebalance accepts, so a
// caller can edit it and hand it back.
func (c *Cluster) RepAssignment() []int {
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	out := make([]int, len(c.repIDs))
	for rep := range out {
		out[rep] = int(c.repShard[rep])
	}
	return out
}

// AddShardReplica attaches one more replica to a distributed shard: the
// shard's retained state is pushed to addr at the shard's CURRENT epoch
// (the segment composition is unchanged, so no epoch bump — the new
// replica immediately serves the same scans as its peers), and on ack
// the replica joins the end of the shard's ordered set. On a load
// failure the set is left untouched and the error names the replica.
func (c *Cluster) AddShardReplica(sid int, addr string) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	tt, ok := c.tr.(*tcpTransport)
	if !ok {
		return fmt.Errorf("distributed: cluster is not distributed; replicas exist only on the networked transport")
	}
	if sid < 0 || sid >= len(tt.sets) {
		return fmt.Errorf("distributed: no shard %d (cluster has %d)", sid, len(tt.sets))
	}
	spec, err := wire.SpecFor(c.m)
	if err != nil {
		return err
	}
	r := tt.newReplica(sid, addr)
	if err := tt.loadReplica(r, wire.EncodeShardState(stateOf(c.shards[sid], spec, c.epochs[sid]))); err != nil {
		r.drain()
		return err
	}
	tt.sets[sid].replicas = append(tt.sets[sid].replicas, r)
	return nil
}

// RemoveShardReplica detaches one replica from a distributed shard's
// set and closes its pooled connections. A shard always keeps at least
// one replica: removing the last one is refused. The remote process is
// not stopped — like Close, this only forgets the replica.
func (c *Cluster) RemoveShardReplica(sid int, addr string) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	tt, ok := c.tr.(*tcpTransport)
	if !ok {
		return fmt.Errorf("distributed: cluster is not distributed; replicas exist only on the networked transport")
	}
	if sid < 0 || sid >= len(tt.sets) {
		return fmt.Errorf("distributed: no shard %d (cluster has %d)", sid, len(tt.sets))
	}
	rs := tt.sets[sid]
	for i, r := range rs.replicas {
		if r.addr != addr {
			continue
		}
		if len(rs.replicas) == 1 {
			return fmt.Errorf("distributed: refusing to remove %s: it is shard %d's last replica", addr, sid)
		}
		r.drain()
		rs.replicas = append(append([]*tcpShard(nil), rs.replicas[:i]...), rs.replicas[i+1:]...)
		return nil
	}
	return fmt.Errorf("distributed: shard %d has no replica %s", sid, addr)
}

// Rebalance moves representatives (and their gathered segments) between
// the cluster's existing shards: newAssign[rep] names the shard that
// will own representative rep afterwards. Only shards whose segment
// composition actually changes are touched — each rebuilds its gathered
// layout from the retained segment data (stayers keep their relative
// segment order, arrivals append in ascending representative order) and
// bumps its epoch.
//
// On a networked cluster every replica of every affected shard receives
// the new state (MsgLoad at the next epoch) BEFORE any routing changes;
// if a push fails, the old states are re-pushed best-effort and the
// cluster keeps its previous assignment. Only after every replica has
// acknowledged does the routing table cut over — atomically from a
// query's point of view, because queries hold the lifecycle read lock
// across their whole fan-out and Rebalance holds the write side (taking
// it drains in-flight fan-out on the old table). Answers are
// bit-identical before, during and after: segments cross shards
// byte-for-byte, every kernel stays exact grade, and the merge never
// depends on which shard scanned a segment.
func (c *Cluster) Rebalance(newAssign []int) error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	nr := len(c.repIDs)
	if len(newAssign) != nr {
		return fmt.Errorf("distributed: %d assignments for %d representatives", len(newAssign), nr)
	}
	nshard := len(c.loads)
	for rep, sid := range newAssign {
		if sid < 0 || sid >= nshard {
			return fmt.Errorf("distributed: representative %d assigned to shard %d (cluster has %d)", rep, sid, nshard)
		}
	}
	// Current per-shard rep lists in segment order, then the new lists:
	// stayers first in their old relative order, movers appended in
	// ascending rep order. A shard whose list is unchanged keeps its
	// exact layout and epoch.
	oldPerShard := make([][]int, nshard)
	for sid := range oldPerShard {
		oldPerShard[sid] = make([]int, c.segCounts[sid])
	}
	for rep := 0; rep < nr; rep++ {
		oldPerShard[c.repShard[rep]][c.repSeg[rep]] = rep
	}
	newPerShard := make([][]int, nshard)
	for sid, reps := range oldPerShard {
		for _, rep := range reps {
			if newAssign[rep] == sid {
				newPerShard[sid] = append(newPerShard[sid], rep)
			}
		}
	}
	for rep := 0; rep < nr; rep++ {
		if sid := newAssign[rep]; sid != int(c.repShard[rep]) {
			newPerShard[sid] = append(newPerShard[sid], rep)
		}
	}
	var affected []int
	for sid := range newPerShard {
		if !equalInts(newPerShard[sid], oldPerShard[sid]) {
			affected = append(affected, sid)
		}
	}
	if len(affected) == 0 {
		return nil
	}
	// Rebuild every affected shard from the retained segment data before
	// touching any live state.
	newShards := make(map[int]*shard, len(affected))
	for _, sid := range affected {
		newShards[sid] = c.buildShard(sid, newPerShard[sid])
	}
	// Networked: push the new states (next epoch) to every replica
	// first. Until the cutover below, scans keep routing on the OLD
	// table with OLD epochs — a replica that already loaded the new
	// state rejects them (stale epoch), which failover treats as that
	// replica being down; correctness never depends on the push order.
	// No scans are actually in flight here (we hold the write lock), so
	// in practice the window is empty.
	if tt, ok := c.tr.(*tcpTransport); ok {
		spec, err := wire.SpecFor(c.m)
		if err != nil {
			return err
		}
		var pushed []int
		var pushErr error
		for _, sid := range affected {
			st := stateOf(newShards[sid], spec, c.epochs[sid]+1)
			if err := tt.load(sid, wire.EncodeShardState(st)); err != nil {
				pushErr = err
				break
			}
			pushed = append(pushed, sid)
		}
		if pushErr != nil {
			// Best-effort rollback: re-push the old states at their old
			// epochs so already-updated replicas serve the assignment the
			// cluster keeps using.
			for _, sid := range pushed {
				_ = tt.load(sid, wire.EncodeShardState(stateOf(c.shards[sid], spec, c.epochs[sid])))
			}
			return pushErr
		}
	}
	// Cutover: the routing table, shard data and epochs swap while no
	// query runs (loopback scans c.shards, so the swap reaches it too).
	for _, sid := range affected {
		c.shards[sid] = newShards[sid]
		c.epochs[sid]++
		c.loads[sid] = len(newShards[sid].ids)
		c.segCounts[sid] = len(newShards[sid].offsets) - 1
	}
	for sid, reps := range newPerShard {
		for seg, rep := range reps {
			c.repShard[rep] = int32(sid)
			c.repSeg[rep] = int32(seg)
		}
	}
	return nil
}

// buildShard assembles a replacement shard holding reps' segments, in
// order, copied out of the shards that currently own them. Segment
// bytes move verbatim (ids, rep flags, gathered vectors and the sorted
// distance-to-representative columns), so a moved segment scans
// identically wherever it lives.
func (c *Cluster) buildShard(sid int, reps []int) *shard {
	sh := &shard{id: sid, dim: c.dim, ker: c.ker}
	sh.offsets = append(sh.offsets, 0)
	for _, rep := range reps {
		src := c.shards[c.repShard[rep]]
		seg := int(c.repSeg[rep])
		lo, hi := src.offsets[seg], src.offsets[seg+1]
		sh.repIDs = append(sh.repIDs, int32(c.repIDs[rep]))
		sh.ids = append(sh.ids, src.ids[lo:hi]...)
		sh.isRep = append(sh.isRep, src.isRep[lo:hi]...)
		sh.gather = append(sh.gather, src.gather[lo*c.dim:hi*c.dim]...)
		sh.segDists = append(sh.segDists, src.segDists[lo:hi]...)
		sh.offsets = append(sh.offsets, len(sh.ids))
	}
	return sh
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NetStats returns per-shard transport counters (request/retry/failure
// counts, bytes moved, summed RTT). It returns nil while the cluster
// runs on the in-process loopback transport.
func (c *Cluster) NetStats() []ShardNetStats {
	c.lifeMu.RLock()
	defer c.lifeMu.RUnlock()
	if c.closed {
		return nil
	}
	return c.tr.netStats()
}

// Close shuts down the transport (the TCP connection pools; loopback
// holds none). It waits for in-flight queries to drain first, and
// every query entry point afterwards returns ErrClusterClosed. Close is
// idempotent. Remote rbc-shard processes are NOT stopped — they belong
// to their own lifecycle.
func (c *Cluster) Close() {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.tr.close()
	c.shards = nil
}
