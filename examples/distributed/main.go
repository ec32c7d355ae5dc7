// Distributed: the paper's §8 future-work proposal running — an RBC
// database sharded across a simulated cluster *by representative*, so the
// coordinator routes each query only to the shards whose representatives
// survive the exact-search pruning bounds. Compare against broadcasting
// every query to every shard (distributed brute force).
package main

import (
	"fmt"
	"log"
	"math"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/metric"
	"repro/internal/par"
)

func main() {
	const (
		n        = 60000
		nQueries = 500
		shards   = 8
		seed     = 9
	)
	fmt.Printf("building %d-point robot workload, sharding across %d nodes by representative\n", n, shards)
	all := dataset.Robot(n+nQueries, seed)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	db := all.Subset(ids)

	nr := int(2 * math.Sqrt(float64(n)))
	cluster, err := distributed.Build(db, metric.Euclidean{},
		core.ExactParams{NumReps: nr, Seed: seed, ExactCount: true},
		shards, distributed.DefaultCostModel())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("shard loads (points per node): %v\n\n", cluster.ShardLoads())

	var routed, broadcast distributed.QueryMetrics
	diverged := 0
	for qi := 0; qi < nQueries; qi++ {
		q := all.Row(n + qi)
		r, mr, _ := cluster.KNN(q, 1)
		b, mb, _ := cluster.QueryBroadcast(q)
		if r[0].Dist != b[0].Dist {
			diverged++
		}
		routed.Add(mr)
		broadcast.Add(mb)
	}
	fmt.Printf("correctness: routed vs broadcast diverged on %d/%d queries (expect 0)\n\n",
		diverged, nQueries)

	q := float64(nQueries)
	fmt.Printf("%-22s %12s %12s\n", "per-query average", "routed", "broadcast")
	fmt.Printf("%-22s %12.2f %12.2f\n", "shards contacted",
		float64(routed.ShardsContacted)/q, float64(broadcast.ShardsContacted)/q)
	fmt.Printf("%-22s %12.0f %12.0f\n", "distance evals",
		float64(routed.Evals)/q, float64(broadcast.Evals)/q)
	fmt.Printf("%-22s %12.2f %12.2f\n", "KB moved",
		float64(routed.Bytes)/q/1024, float64(broadcast.Bytes)/q/1024)
	fmt.Printf("%-22s %12.3f %12.3f\n", "simulated ms",
		routed.SimTimeUS/q/1000, broadcast.SimTimeUS/q/1000)
	fmt.Printf("\nrouting cuts cluster work by %.1fx and network traffic by %.1fx\n",
		float64(broadcast.Evals)/float64(routed.Evals),
		float64(broadcast.Bytes)/float64(routed.Bytes))

	// Batched fan-out: the same queries as one block — the coordinator
	// sends at most one request per shard for the whole block instead of
	// one per surviving shard per query.
	qids := make([]int, nQueries)
	for i := range qids {
		qids[i] = n + i
	}
	batch, bm, _ := cluster.KNNBatch(all.Subset(qids), 1)
	divergedBatch := 0
	for qi := 0; qi < nQueries; qi++ {
		r, _, _ := cluster.KNN(all.Row(n+qi), 1)
		if batch[qi][0] != r[0] {
			divergedBatch++
		}
	}
	fmt.Printf("\nbatched fan-out (%d queries as one block): %d shard requests, %d messages total\n",
		nQueries, bm.ShardsContacted, bm.Messages)
	fmt.Printf("per-query fan-out sent %d messages — batching cuts messages by %.0fx (answers identical: %d diverged)\n",
		routed.Messages, float64(routed.Messages)/float64(bm.Messages), divergedBatch)

	// Tiled k-NN blocks: each shard inverts the block into per-segment
	// taker sets and scans every segment ONCE for all its takers through
	// the exact-grade matrix-matrix kernels — no per-pair distance calls
	// on the hot path, and results bit-identical to per-query k-NN. Each
	// routed request ships the 8-byte representative distance per
	// (query, segment) and the query's rep-seeded k-th candidate; shards
	// probe each query's nearest routed list first, tighten that bound
	// and clip every scan to its admissible window.
	const k = 10
	queries := all.Subset(qids)
	start := time.Now()
	knnBatch, km, _ := cluster.KNNBatch(queries, k)
	batchSecs := time.Since(start).Seconds()
	perQueryKNN := make([][]par.Neighbor, nQueries)
	start = time.Now()
	for qi := 0; qi < nQueries; qi++ {
		perQueryKNN[qi], _, _ = cluster.KNN(queries.Row(qi), k)
	}
	perSecs := time.Since(start).Seconds()
	divergedKNN := 0
	for qi := 0; qi < nQueries; qi++ {
		for p := range perQueryKNN[qi] {
			if knnBatch[qi][p] != perQueryKNN[qi][p] {
				divergedKNN++
			}
		}
	}
	fmt.Printf("\ntiled %d-NN block: %.0f queries/sec batched vs %.0f per-query (%.1fx), %d shard requests, %d point evals, %d windows (%d clipped empty)\n",
		k, float64(nQueries)/batchSecs, float64(nQueries)/perSecs, perSecs/batchSecs, km.ShardsContacted, km.PointEvals,
		km.Windows, km.EmptyWindows)
	fmt.Printf("batched k-NN bit-identical to per-query: %d positions diverged (expect 0)\n", divergedKNN)

	// Networked: the same cluster over a real wire. Each shard server
	// here runs in-process on its own TCP listener — in production each
	// is a separate `rbc-shard` process (or host). Distribute pushes the
	// shard state over the length-prefixed CRC-checked protocol, and
	// every later fan-out goes through pooled connections with deadlines
	// and retries. Answers stay bit-identical to the in-process cluster.
	netCluster, err := distributed.Build(db, metric.Euclidean{},
		core.ExactParams{NumReps: nr, Seed: seed, ExactCount: true},
		shards, distributed.DefaultCostModel())
	if err != nil {
		log.Fatal(err)
	}
	defer netCluster.Close()
	addrs := make([]string, shards)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		sv := distributed.NewShardServer()
		go sv.Serve(ln)
		defer sv.Close()
		addrs[i] = ln.Addr().String()
	}
	if err := netCluster.Distribute(addrs, distributed.TCPOptions{}); err != nil {
		log.Fatal(err)
	}
	knnNet, nm, err := netCluster.KNNBatch(queries, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnetworked %d-NN block over TCP to %d shard servers: %d shard requests, answers bit-identical: %d positions diverged (expect 0)\n",
		k, shards, nm.ShardsContacted, countDiverged(knnNet, knnBatch))
	var wireOut, wireIn int64
	for _, st := range netCluster.NetStats() {
		wireOut += st.BytesSent
		wireIn += st.BytesRecv
	}
	fmt.Printf("wire accounting: %.1f KB sent, %.1f KB received across %d shard connections (0 retries expected on loopback)\n",
		float64(wireOut)/1024, float64(wireIn)/1024, shards)

	// Replicated serving: the same shard states pushed to TWO servers
	// each. Hedging duplicates a scan onto the standby when the primary
	// runs slower than its usual p95 RTT (first answer wins, the loser
	// is cancelled), and if a replica dies outright the fan-out fails
	// over inside the replica set — no failed shards, identical bits.
	repCluster, err := distributed.Build(db, metric.Euclidean{},
		core.ExactParams{NumReps: nr, Seed: seed, ExactCount: true},
		shards, distributed.DefaultCostModel())
	if err != nil {
		log.Fatal(err)
	}
	defer repCluster.Close()
	primaries := make([]*distributed.ShardServer, shards)
	assignment := make([][]string, shards)
	for i := range assignment {
		for r := 0; r < 2; r++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			sv := distributed.NewShardServer()
			go sv.Serve(ln)
			defer sv.Close()
			if r == 0 {
				primaries[i] = sv
			}
			assignment[i] = append(assignment[i], ln.Addr().String())
		}
	}
	opts := distributed.TCPOptions{Hedge: distributed.HedgeOptions{MaxHedges: 1}}
	if err := repCluster.DistributeReplicas(assignment, opts); err != nil {
		log.Fatal(err)
	}
	knnRep, _, err := repCluster.KNNBatch(queries, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplicated %d-NN block (2 replicas/shard, hedging on): %d positions diverged from loopback (expect 0)\n",
		k, countDiverged(knnRep, knnBatch))

	// Live rebalance while serving: rotate every representative one
	// shard to the right. Every replica of every shard receives the new
	// state at a bumped epoch before routing cuts over; a straggler
	// still holding the old state would reject post-cutover scans as
	// "stale epoch" rather than silently answer from the wrong layout.
	assign := repCluster.RepAssignment()
	for rep := range assign {
		assign[rep] = (assign[rep] + 1) % shards
	}
	if err := repCluster.Rebalance(assign); err != nil {
		log.Fatal(err)
	}
	knnReb, _, err := repCluster.KNNBatch(queries, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebalanced (every rep moved one shard right): new loads %v, %d positions diverged (expect 0)\n",
		repCluster.ShardLoads(), countDiverged(knnReb, knnBatch))

	// Kill one replica of EVERY shard at once. The ordered replica sets
	// absorb it: each scan fails over to the survivor, the batch still
	// reports zero failed shards, and the answers do not move a bit.
	for _, sv := range primaries {
		sv.Close()
	}
	knnSurv, sm, err := repCluster.KNNBatch(queries, k)
	if err != nil {
		log.Fatal(err)
	}
	var hedged, wins, cancelled, failures int64
	for _, st := range repCluster.NetStats() {
		hedged += st.Hedged
		wins += st.HedgeWins
		cancelled += st.Cancelled
		failures += st.Failures
	}
	fmt.Printf("killed one replica of every shard: %d failed shards (expect 0), %d positions diverged (expect 0)\n",
		sm.FailedShards, countDiverged(knnSurv, knnBatch))
	fmt.Printf("replica stats: %d hedged scans, %d hedge wins, %d losing scans cancelled, %d hard failures failed over\n",
		hedged, wins, cancelled, failures)
}

func countDiverged(got, want [][]par.Neighbor) int {
	diverged := 0
	for qi := range want {
		for p := range want[qi] {
			if got[qi][p] != want[qi][p] {
				diverged++
			}
		}
	}
	return diverged
}
