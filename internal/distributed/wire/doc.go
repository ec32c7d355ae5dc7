// Package wire defines the shard protocol that takes the distributed
// cluster over a real network: a length-prefixed, CRC-checked binary
// framing (the same discipline internal/wal uses on disk) carrying the
// coordinator↔shard messages of internal/distributed.
//
// This file is the protocol reference. The encoding and decoding code
// lives in wire.go (framing) and messages.go (message bodies); every
// layout rule stated here is enforced by those functions and locked in
// by the round-trip and corruption tests in wire_test.go.
//
// # Frame layout
//
// Every message is exactly one frame:
//
//	offset  size  field
//	------  ----  -----------------------------------------------
//	0       4     payload length (uint32, little-endian)
//	4       4     CRC-32C (Castagnoli) of the payload (uint32, LE)
//	8       1     protocol version byte (currently 3)
//	9       1     message type byte
//	10      n-2   message body (n = payload length)
//
// The CRC covers the whole payload — version and type bytes included —
// so a flipped bit anywhere past the 8-byte header is detected. All
// integers are little-endian; float32 and float64 values travel as
// their IEEE-754 bit patterns, so decoded values are bit-identical to
// what was encoded. That is the property the cluster's bit-identity
// contract rides on: ordering-space candidate distances, pruning bounds
// and representative distances cross the wire as raw bits, never
// through a decimal representation.
//
// # Message table
//
//	type  name          direction             body
//	----  ------------  --------------------  --------------------------
//	1     MsgLoad       coordinator → shard   ShardState: the shard's
//	                                          segments, gathered vectors,
//	                                          metric spec and epoch
//	2     MsgLoadOK     shard → coordinator   empty; load acknowledged
//	3     MsgScan       coordinator → shard   ScanRequest: one batched
//	                                          block scan (queries, segment
//	                                          takers, optional bounds and
//	                                          representative distances,
//	                                          epoch)
//	4     MsgScanReply  shard → coordinator   ScanReply: per-query
//	                                          candidates in ordering
//	                                          space + work counters
//	5     MsgErr        shard → coordinator   RemoteError: typed remote
//	                                          failure (length-prefixed
//	                                          message string)
//	6     MsgPing       either direction      empty; liveness / RTT probe
//	7     MsgPong       reply to MsgPing      empty
//
// The scan exchange is strict request/response per connection; the
// coordinator pools connections for parallelism, and hedged requests
// simply run the same exchange concurrently on different replicas'
// connections. A scan is a pure read, so retrying (or hedging) one is
// always safe: every replica of a shard holds bit-identical state, so
// any completed reply to the same request is byte-for-byte the same.
//
// # Versioning
//
// The version byte names the payload layout, whole-protocol: a receiver
// speaks exactly one version and rejects every other with ErrBadVersion
// (it never attempts cross-version decoding). Versions so far:
//
//	1  PR 9 layout: load / scan / reply / err / ping / pong.
//	2  Adds the replica epoch: a uint32 in ShardState (after Dim) and in
//	   ScanRequest (after K). Bodies are otherwise identical to v1.
//	3  Adds ScanRequest.Dists under flag bit 3: one float64 ρ(q,r) per
//	   (query, segment) entry, after Bounds and Wins. The shard rebuilds
//	   each window from it and the query's bound, so routed scans ship
//	   8 bytes per entry instead of v2's 16-byte [dLo, dHi] pair. Wins
//	   (flag bit 2) still decodes; shards refuse it.
//
// Coordinator and shard binaries are expected to be built from the same
// tree; the version byte exists to make a skew loud (a typed decode
// error naming the version) instead of a silent mis-decode.
//
// # Replica epochs
//
// Every MsgLoad carries the epoch of the shard state it ships, and
// every MsgScan carries the epoch of the routing table it was planned
// under. A shard answers a scan only when the two match; on mismatch it
// replies MsgErr ("stale replica epoch ..."), which the coordinator
// treats as a replica-level hard failure (failover to the next replica,
// never a retry of the same one — see the error taxonomy below).
//
// Epochs are per shard id, not global: the coordinator bumps a shard's
// epoch exactly when that shard's segment composition changes
// (Cluster.Rebalance), re-pushing the new state to every replica before
// the routing table cuts over. The check closes the rebalance race in
// both directions: a replica that missed the re-push cannot serve a
// post-cutover scan against its stale segments, and a re-pushed replica
// cannot serve a pre-cutover scan that indexes segments by the old
// layout. Adding a replica (Cluster.AddShardReplica) ships the current
// state under the current epoch — no bump, nothing else changes.
//
// # Error taxonomy
//
// Failures split into three classes, and the class decides the
// client's reaction:
//
//   - Transport faults — connect errors, IO errors, deadline expiry, a
//     torn frame (io.ErrUnexpectedEOF), a CRC mismatch (ErrCorrupt), an
//     oversized length field (ErrTooLarge), an unknown version
//     (ErrBadVersion). The connection is poisoned (closed, never
//     returned to the pool: the stream is unsynchronized) and the
//     exchange is RETRIED on a fresh connection, up to the transport's
//     attempt budget.
//   - Remote decisions — a decoded MsgErr (*RemoteError: no shard state
//     loaded, dimension mismatch, malformed request, stale epoch). The
//     frame arrived intact; the shard chose not to serve. NEVER
//     retried against the same replica — retrying cannot change a
//     decision — but the coordinator fails over to the next replica in
//     the shard's set, where the decision may differ (e.g. a stale
//     replica's twin was re-pushed successfully).
//   - Structural decode errors client-side — ErrTruncated from a body
//     shorter (or longer) than its own length fields claim. Treated as
//     corruption: connection poisoned, exchange retried.
//
// When a shard's whole replica set is exhausted, the typed
// *distributed.ShardError names the shard, the replica addresses tried,
// and the last error; the cluster's degradation policy decides whether
// that fails the batch or is accounted and skipped.
package wire
