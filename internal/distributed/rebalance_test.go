package distributed

// Rebalance and replica-lifecycle tests (PR 10): segment moves between
// shards must never change an answer bit — loopback and networked alike
// — stale replicas must reject post-cutover scans, and replica
// add/remove must repair and shrink sets online.

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed/wire"
	"repro/internal/metric"
)

// rotateAssign moves every representative to the next shard — every
// shard's composition changes.
func rotateAssign(c *Cluster) []int {
	newAssign := make([]int, len(c.repIDs))
	for rep := range newAssign {
		newAssign[rep] = (int(c.repShard[rep]) + 1) % c.NumShards()
	}
	return newAssign
}

// TestRebalanceLoopbackBitIdentical: rotating every segment across the
// in-process shards preserves bit-identity with the pre-rebalance
// answers and with core.Exact, and the load accounting follows the
// segments.
func TestRebalanceLoopbackBitIdentical(t *testing.T) {
	const shards, k = 3, 6
	rng := rand.New(rand.NewSource(501))
	db := clustered(rng, 900, 6, 8)
	queries := clustered(rng, 48, 6, 8)
	prm := core.ExactParams{Seed: 503}
	cl, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	idx, err := core.BuildExact(db, metric.Euclidean{}, prm)
	if err != nil {
		t.Fatal(err)
	}
	want, wantMet, err := cl.KNNBatch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	loadsBefore := cl.ShardLoads()
	if err := cl.Rebalance(rotateAssign(cl)); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	got, gotMet, err := cl.KNNBatch(queries, k)
	if err != nil {
		t.Fatalf("KNNBatch after Rebalance: %v", err)
	}
	wantExact, _ := idx.KNNBatch(queries, k)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pos %d: %+v vs pre-rebalance %+v", i, j, got[i][j], want[i][j])
			}
			if got[i][j].ID != wantExact[i][j].ID ||
				math.Float64bits(got[i][j].Dist) != math.Float64bits(wantExact[i][j].Dist) {
				t.Fatalf("query %d pos %d: %+v vs exact %+v", i, j, got[i][j], wantExact[i][j])
			}
		}
	}
	// Work counters are layout-independent: the same segments are
	// scanned, just by different shards.
	if gotMet.PointEvals != wantMet.PointEvals || gotMet.Windows != wantMet.Windows ||
		gotMet.EmptyWindows != wantMet.EmptyWindows {
		t.Fatalf("work diverged after rebalance: %+v vs %+v", gotMet, wantMet)
	}
	// A full rotation moves every point; total load is conserved.
	loadsAfter := cl.ShardLoads()
	tb, ta := 0, 0
	for s := 0; s < shards; s++ {
		tb += loadsBefore[s]
		ta += loadsAfter[s]
	}
	if tb != ta {
		t.Fatalf("points lost in rebalance: %d before, %d after", tb, ta)
	}
	for s := range cl.epochs {
		if cl.epochs[s] != 2 {
			t.Fatalf("shard %d epoch %d after full rotation, want 2", s, cl.epochs[s])
		}
	}
}

// TestRebalanceDrainToOneShard: an extreme rebalance — everything onto
// shard 0 — leaves the emptied shards servable (zero segments) and the
// answers untouched.
func TestRebalanceDrainToOneShard(t *testing.T) {
	cl, db, queries := buildSmall(t, 509, 3)
	idx, err := core.BuildExact(db, metric.Euclidean{}, core.ExactParams{Seed: 509})
	if err != nil {
		t.Fatal(err)
	}
	drain := make([]int, len(cl.repIDs))
	if err := cl.Rebalance(drain); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	loads := cl.ShardLoads()
	if loads[1] != 0 || loads[2] != 0 {
		t.Fatalf("drained shards still loaded: %v", loads)
	}
	got, _, err := cl.KNNBatch(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := idx.KNNBatch(queries, 5)
	for i := range want {
		for j := range want[i] {
			if got[i][j].ID != want[i][j].ID ||
				math.Float64bits(got[i][j].Dist) != math.Float64bits(want[i][j].Dist) {
				t.Fatalf("query %d pos %d: %+v vs exact %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Broadcast still works across empty shards.
	if _, _, err := cl.QueryBroadcast(queries.Row(0)); err != nil {
		t.Fatalf("broadcast after drain: %v", err)
	}
}

// TestRebalanceTCPBitIdentical: the same rotation against replicated
// real ShardServers — every replica re-loads at the new epoch, answers
// stay bit-identical to the loopback twin, and epochs bump exactly once
// per affected shard.
func TestRebalanceTCPBitIdentical(t *testing.T) {
	const shards, k = 3, 6
	rng := rand.New(rand.NewSource(521))
	db := clustered(rng, 900, 6, 8)
	queries := clustered(rng, 48, 6, 8)
	prm := core.ExactParams{Seed: 523}
	loop, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	netCl, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer netCl.Close()
	addrs, _ := startShardServers(t, 2*shards)
	assignment := make([][]string, shards)
	for s := 0; s < shards; s++ {
		assignment[s] = []string{addrs[2*s], addrs[2*s+1]}
	}
	if err := netCl.DistributeReplicas(assignment, fastOpts()); err != nil {
		t.Fatalf("DistributeReplicas: %v", err)
	}
	want, _, err := loop.KNNBatch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		got, met, err := netCl.KNNBatch(queries, k)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if met.FailedShards != 0 {
			t.Fatalf("%s: %d failed shards", stage, met.FailedShards)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: query %d pos %d: %+v vs %+v", stage, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	check("before rebalance")
	newAssign := rotateAssign(netCl)
	if err := netCl.Rebalance(newAssign); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	check("after rebalance")
	for s, e := range netCl.epochs {
		if e != 2 {
			t.Fatalf("shard %d epoch %d, want 2", s, e)
		}
	}
	// The rotated-back cluster must also agree (exercises a second epoch
	// bump and the stayer-order bookkeeping).
	back := make([]int, len(newAssign))
	for rep, sid := range newAssign {
		back[rep] = (sid + shards - 1) % shards
	}
	if err := netCl.Rebalance(back); err != nil {
		t.Fatalf("second Rebalance: %v", err)
	}
	check("after rotating back")
}

// TestStaleReplicaRejectsScan: a replica that missed a rebalance (or a
// scan planned before one) answers MsgErr, never stale data. Probed at
// the wire level so the refusal itself is asserted, not just failover
// hiding it.
func TestStaleReplicaRejectsScan(t *testing.T) {
	cl, _, _ := buildSmall(t, 541, 1)
	addrs, _ := startShardServers(t, 1)
	if err := cl.Distribute(addrs, fastOpts()); err != nil {
		t.Fatal(err)
	}
	// The server holds epoch 1. A scan stamped with a different epoch
	// must be refused.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &wire.ScanRequest{Dim: cl.dim, K: 1, Epoch: 99,
		Qs: make([]float32, cl.dim), Segs: [][]int{{0}}}
	if err := wire.WriteFrame(conn, wire.EncodeScanRequest(req)); err != nil {
		t.Fatal(err)
	}
	mt, body, err := wire.ReadFrame(conn, wire.MaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgErr {
		t.Fatalf("stale-epoch scan answered with message type %d", mt)
	}
	rerr := wire.DecodeErr(body)
	if !strings.Contains(rerr.Error(), "stale epoch") {
		t.Fatalf("refusal does not name the epoch mismatch: %v", rerr)
	}
	// The correctly-stamped scan on the same connection still works.
	req.Epoch = 1
	if err := wire.WriteFrame(conn, wire.EncodeScanRequest(req)); err != nil {
		t.Fatal(err)
	}
	if mt, _, err = wire.ReadFrame(conn, wire.MaxFrameBytes); err != nil || mt != wire.MsgScanReply {
		t.Fatalf("current-epoch scan: mt=%d err=%v", mt, err)
	}
}

// TestRebalanceValidation: malformed assignments are refused without
// touching the cluster, and a no-op assignment is free.
func TestRebalanceValidation(t *testing.T) {
	cl, _, queries := buildSmall(t, 547, 2)
	if err := cl.Rebalance([]int{0}); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := make([]int, len(cl.repIDs))
	bad[0] = 7
	if err := cl.Rebalance(bad); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	same := make([]int, len(cl.repIDs))
	for rep := range same {
		same[rep] = int(cl.repShard[rep])
	}
	if err := cl.Rebalance(same); err != nil {
		t.Fatalf("no-op rebalance: %v", err)
	}
	for s, e := range cl.epochs {
		if e != 1 {
			t.Fatalf("no-op rebalance bumped shard %d to epoch %d", s, e)
		}
	}
	if _, _, err := cl.KNNBatch(queries, 3); err != nil {
		t.Fatalf("cluster broken after validation failures: %v", err)
	}
	cl.Close()
	if err := cl.Rebalance(same); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("Rebalance after Close: %v", err)
	}
}

// TestAddRemoveShardReplica: a replica added online serves failover
// traffic when the primary dies; removal guards the last replica.
func TestAddRemoveShardReplica(t *testing.T) {
	cl, _, queries := buildSmall(t, 557, 2)
	if err := cl.AddShardReplica(0, "127.0.0.1:1"); err == nil {
		t.Fatal("AddShardReplica accepted on loopback")
	}
	addrs, servers := startShardServers(t, 3)
	if err := cl.Distribute(addrs[:2], fastOpts()); err != nil {
		t.Fatal(err)
	}
	want, _, err := cl.KNNBatch(queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddShardReplica(0, addrs[2]); err != nil {
		t.Fatalf("AddShardReplica: %v", err)
	}
	reps := cl.ShardReplicas()
	if len(reps[0]) != 2 || reps[0][1] != addrs[2] || len(reps[1]) != 1 {
		t.Fatalf("replica sets %v after add", reps)
	}
	// Kill shard 0's primary: the added replica must absorb the traffic.
	servers[0].Close()
	got, met, err := cl.KNNBatch(queries, 4)
	if err != nil {
		t.Fatalf("KNNBatch after primary death: %v", err)
	}
	if met.FailedShards != 0 {
		t.Fatalf("%d failed shards with a live replica", met.FailedShards)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Remove the dead primary; the survivor alone still answers and is
	// then protected as the last replica.
	if err := cl.RemoveShardReplica(0, addrs[0]); err != nil {
		t.Fatalf("RemoveShardReplica: %v", err)
	}
	if err := cl.RemoveShardReplica(0, addrs[2]); err == nil {
		t.Fatal("removing the last replica accepted")
	}
	if err := cl.RemoveShardReplica(0, "no-such-addr"); err == nil {
		t.Fatal("removing an unknown replica accepted")
	}
	if _, _, err := cl.KNNBatch(queries, 4); err != nil {
		t.Fatalf("KNNBatch after removal: %v", err)
	}
}

// TestAddReplicaThenRebalance: a repaired 2×-replicated cluster
// rebalances with every replica of every shard re-pushed — the scan
// keeps working whichever replica answers afterwards.
func TestAddReplicaThenRebalance(t *testing.T) {
	cl, db, queries := buildSmall(t, 563, 2)
	idx, err := core.BuildExact(db, metric.Euclidean{}, core.ExactParams{Seed: 563})
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardServers(t, 4)
	if err := cl.DistributeReplicas([][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}}, fastOpts()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rebalance(rotateAssign(cl)); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	got, _, err := cl.KNNBatch(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := idx.KNNBatch(queries, 5)
	for i := range want {
		for j := range want[i] {
			if got[i][j].ID != want[i][j].ID ||
				math.Float64bits(got[i][j].Dist) != math.Float64bits(want[i][j].Dist) {
				t.Fatalf("query %d pos %d: %+v vs exact %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
