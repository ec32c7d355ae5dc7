// Package rbc is a Go implementation of the Random Ball Cover (RBC) of
// Cayton, "Accelerating Nearest Neighbor Search on Manycore Systems"
// (IPPS 2012; arXiv:1103.2635): metric nearest-neighbor search that is
// provably sublinear in the database size — O(c^{3/2}√n) per query for
// expansion rate c — while factoring into brute-force scans that
// parallelize trivially on multicore CPUs and GPU-style hardware.
//
// Two index types are provided, mirroring the paper's two algorithms:
//
//   - Exact: always returns a true nearest neighbor. A query scans the
//     O(√n) representatives, prunes the rest of the database with two
//     triangle-inequality bounds, and brute-forces the survivors.
//   - OneShot: returns the true nearest neighbor with high probability
//     (Theorem 2 of the paper) and is usually faster. A query scans the
//     representatives and then exactly one ownership list.
//
// # Quick start
//
//	db := rbc.NewDataset(dim)          // or load with rbc.LoadDataset
//	// ... db.Append(point) ...
//	idx, err := rbc.BuildExact(db, rbc.Euclidean(), rbc.ExactParams{})
//	nn, _ := idx.KNN(query, 1)         // nn[0].ID, nn[0].Dist
//
// There is one query shape: k-NN, per query (KNN) or for a whole block in
// parallel (KNNBatch). The paper's 1-NN search is k = 1, where the k-NN
// pruning rules reduce to its own; an empty answer means no point
// qualified. Exact additionally supports ε-range queries (Range,
// RangeBatch) and a (1+ε)-approximate mode (ExactParams.ApproxEps).
// Every search returns work statistics (distance evaluations by phase)
// for machine-independent performance analysis.
//
// # Batch-first queries
//
// Both indexes answer a whole block of queries in one call: Exact and
// OneShot implement BatchSearcher, whose KNNBatch is bit-identical to
// calling KNN per row. KNNBatch on Exact answers a whole block through
// one tiled BF(Q,R) front half and grouped phase-2 scans — each
// surviving ownership list is scanned once per query tile as a small
// matrix-matrix call shared by every query that kept it; OneShot's
// shares the front half and then scans each query's one list. The HTTP
// server (repro/internal/server) converts concurrent single-query
// traffic into such blocks by request coalescing — /query through
// KNNBatch and /range through RangeBatch, each queue with its own flush
// accounting in /stats. The distributed cluster
// (repro/internal/distributed) has its own block entry point,
// Cluster.KNNBatch, which groups a block's surviving lists by owning
// shard so each shard receives one request per block instead of one per
// query.
//
// Shards are batch-and-tile native too: a shard hands its request's
// (query, segment) pairs to core.ScanGrouped — the same grouped phase-2
// driver Exact's batch path uses — which inverts them into per-segment
// taker sets and scans each owned segment once for the whole block,
// tile or row per point block, on exact-grade kernels only. Shard
// segments are the index's own lists, copied at build in their ascending
// distance-to-representative order, and the cluster extends the paper's
// Claim 2 admissible window and Exact's home probe to the wire: each
// routed request ships the 8-byte representative distance ρ(q,r) per
// (query, segment) beside the query's rep-seeded k-th candidate bound.
// The shard probes each query's local home first (core.ProbeRun),
// tightens the bound to the probe's k-th candidate, and clips every
// taker's scan range to its admissible window with a binary search
// (core.AdmissibleWindow) before the second grouped scan runs, cutting
// shard-side point evaluations without touching a single result bit. The contract (spelled out in the
// distributed package comment) is that cluster answers are bit-identical
// to per-query cluster calls and to the single-node Exact index built
// with the same parameters; the fast Gram kernel grade is excluded from that path
// because its ulp drift would break the guarantee. A cross-backend
// equivalence fuzz harness (repro/internal/search, a test-only package)
// pins all of this against the brute-force reference.
//
// The cluster also runs over a real wire: cmd/rbc-shard serves shard
// segments as a standalone process speaking a length-prefixed,
// CRC-32C-checked binary protocol (repro/internal/distributed/wire —
// the same framing discipline as the WAL), and Cluster.Distribute
// pushes the shard state to a list of addresses and swaps the fan-out
// onto a TCP transport with pooled connections, per-request deadlines
// and bounded retry. Shard failures follow a declared degradation
// policy — fail fast with a typed per-shard error, or merge the
// survivors and account the gap in QueryMetrics.FailedShards — and
// answers over TCP are bit-identical to the in-process cluster, a
// contract enforced by fault-injection and multi-process equivalence
// tests (corrupt frames, killed shards, induced timeouts).
//
// # Durable mutable serving
//
// Exact is online-mutable: Insert appends a point and splices it into
// its owner's sorted insertion buffer (binary search on the (dist, id)
// key, so admissible windows stay valid), Delete tombstones an id, and
// neither changes a single answer bit relative to a from-scratch
// rebuild over the live rows — pending buffers are scanned with the
// same window math as merged segments, and a buffer that reaches
// core.DefaultBufferMerge rows is folded into its segment's flat columns
// by one targeted back-to-front merge, never a full rebuild.
// Flush folds all buffers eagerly; Rebuild recompacts everything
// (tombstones stay, ids are stable for the life of the index).
//
// The HTTP server persists mutations when opened through
// server.OpenDurable (rbc-server -data-dir): every /insert and /delete
// is appended to a CRC-checked write-ahead log and fsynced per the
// -wal-sync policy BEFORE it is applied and acknowledged, so under
// "always" an acknowledged mutation survives SIGKILL. POST /snapshot
// (or -snapshot-every) writes the index image and commits it by
// atomically renaming CURRENT to the new generation, after which the
// old generation's log is removed — the recovery contract and file
// layout are documented in repro/internal/server. A crash-recovery
// suite (kill-and-replay with child processes, torn-write fault
// injection, mutate/query history equivalence) locks the contract down
// in CI.
//
// # Tiled kernels and squared-distance ordering
//
// The brute-force primitive BF(Q,X) underneath every index is a tiled
// matrix-matrix computation (repro/internal/metric.Kernel.Tile): blocks of
// queries are compared against blocks of points so each point tile loaded
// into cache is reused by the whole query block. Internally all
// comparisons run on *ordering distances* — squared distances for
// Euclidean, p-power sums for Minkowski — and the root is applied once per
// returned neighbor at the API boundary. Because the surrogate is strictly
// monotone, ordering, top-k selection and tie-breaking (toward lower ids)
// are unaffected.
//
// Every answer path runs on the exact kernel grade (see
// repro/internal/metric for the full contract): the builds, the Exact and
// OneShot query paths (BuildExact, BuildOneShot, KNN/KNNBatch/Range/
// RangeBatch, OneShot.Certify), BruteForceK, and
// bruteforce.Search/SearchK. Its per-pair arithmetic is bit-identical to
// the per-query reference — results are reproducible down to the last
// bit, ties included, for any tiling or batch shape. (One caveat against
// pre-ordering-space code: when two *distinct* squared distances round to
// the same sqrt, a post-sqrt comparison saw a tie where ordering space
// sees a strict order and returns the strictly nearer point.) OneShot's
// probe selection is therefore exact too: which ownership list is scanned
// is decided by the same distances the reported answers carry, ties
// toward the lower representative index.
//
// The one other scan is the int8 two-pass brute force, for the
// memory-bound regime: the database is encoded once into int8 codes plus
// a per-chunk scale (metric.NewQuantizedView, 4x less memory traffic than
// float32), and the candidate pass runs on the codes, so at n >= 100k and
// dim 64 the row scan is >= 3x the exact row's throughput. Its code
// distances carry a bounded ADDITIVE error (QuantizedView.ErrorBound),
// which makes the pass a candidate generator, not an answer path.
// bruteforce.SearchKQuantized runs the two-pass contract: pass 1 scans
// the codes and keeps QuantOverfetch*k (floored at 64) candidates —
// enough to cover the quantization noise band around the k-th distance —
// and pass 2 rescores exactly those rows with the exact kernel, so the
// reported neighbors carry bit-true distances; when the over-fetch
// reaches n the result is exact by construction. The quant-sweep
// experiment measures it against the exact SearchK. core.ScanGrouped and
// Exact refuse the remaining Gram-fast kernel (metric.NewFastKernel),
// which survives only for bruteforce.SearchKFast.
//
// Arbitrary metric spaces — edit distance on strings, shortest-path
// distance on graph nodes — are supported through the generic API in
// repro/internal/core (BuildGenericExact, BuildGenericOneShot); see
// ExampleBuildGenericExact there for strings under edit distance.
//
// The repository also contains the full reproduction harness for the
// paper's evaluation: see ARCHITECTURE.md's Experiments section for the
// system inventory, cmd/rbc-bench (`rbc-bench -list`) for the experiment
// runner, and CHANGES.md for recorded results.
package rbc
