package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/metric"
	"repro/internal/vec"
)

// netBenchConfig parameterizes the networked-cluster benchmark
// (-shard-addrs).
type netBenchConfig struct {
	addrs    []string // rbc-shard addresses, grouped into replica sets of size `replicas`
	replicas int      // consecutive addresses per shard (1 = unreplicated)
	n, dim   int      // database size and dimension
	k        int      // neighbors per query
	block    int      // queries per batched fan-out
	secs     float64  // measurement window per backend
	seed     int64
	timeout  time.Duration // per-attempt request deadline

	hedgeDelay time.Duration // fixed hedge delay (0 = adaptive RTT quantile)
	maxHedges  int           // extra replicas per scan (0 = hedging off)
	slow       time.Duration // inject a sleep proxy adding this delay in front of shard 0's primary
}

// runNetBench drives the same RBC cluster over the in-process loopback
// transport and over TCP to real rbc-shard processes — replicated when
// -replicas > 1 — and reports block throughput, per-block p50/p99
// latency, and the wire accounting the loopback run can only simulate.
// With -max-hedges > 0 the TCP run happens twice, hedged and unhedged,
// and the report quantifies the tail-latency win; with -net-slow an
// in-process sleep proxy delays every request to shard 0's primary
// replica, the scenario hedging exists for. A bit-identity check
// between backends runs first, so a CI smoke that reaches the report
// lines has also proven the cross-process equivalence corpus.
func runNetBench(cfg netBenchConfig) error {
	if cfg.replicas < 1 {
		cfg.replicas = 1
	}
	if len(cfg.addrs)%cfg.replicas != 0 {
		return fmt.Errorf("%d shard addresses do not divide into replica sets of %d", len(cfg.addrs), cfg.replicas)
	}
	shards := len(cfg.addrs) / cfg.replicas
	assignment := make([][]string, shards)
	for sid := 0; sid < shards; sid++ {
		assignment[sid] = cfg.addrs[sid*cfg.replicas : (sid+1)*cfg.replicas]
	}
	if cfg.slow > 0 {
		proxy, err := startSlowProxy(assignment[0][0], cfg.slow)
		if err != nil {
			return err
		}
		fmt.Printf("injecting %v sleep proxy in front of shard 0 primary %s (now %s)\n", cfg.slow, assignment[0][0], proxy)
		assignment[0] = append([]string{proxy}, assignment[0][1:]...)
	}

	const queryPool = 512
	all := dataset.GaussianClusters(cfg.n+queryPool, cfg.dim, 32, 5.0, cfg.seed)
	ids := make([]int, cfg.n)
	for i := range ids {
		ids[i] = i
	}
	db := all.Subset(ids)
	queries := vec.New(cfg.dim, queryPool)
	for i := 0; i < queryPool; i++ {
		queries.Append(all.Row(cfg.n + i))
	}
	prm := core.ExactParams{Seed: cfg.seed}
	buildCluster := func() (*distributed.Cluster, error) {
		return distributed.Build(db, metric.Euclidean{}, prm, shards, distributed.DefaultCostModel())
	}

	fmt.Printf("building %d-shard cluster (%d replicas/shard): n=%d dim=%d ... ", shards, cfg.replicas, cfg.n, cfg.dim)
	start := time.Now()
	loop, err := buildCluster()
	if err != nil {
		return err
	}
	defer loop.Close()
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))

	type backend struct {
		name string
		cl   *distributed.Cluster
	}
	backends := []backend{{name: "loopback", cl: loop}}
	distribute := func(name string, hedge distributed.HedgeOptions) (*distributed.Cluster, error) {
		cl, err := buildCluster()
		if err != nil {
			return nil, err
		}
		opts := distributed.TCPOptions{RequestTimeout: cfg.timeout, Hedge: hedge}
		fmt.Printf("distributing %s to %d shard processes ... ", name, len(cfg.addrs))
		start := time.Now()
		if err := cl.DistributeReplicas(assignment, opts); err != nil {
			cl.Close()
			return nil, err
		}
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
		return cl, nil
	}
	netCl, err := distribute("tcp", distributed.HedgeOptions{})
	if err != nil {
		return err
	}
	defer netCl.Close()
	backends = append(backends, backend{name: "tcp", cl: netCl})
	if cfg.maxHedges > 0 {
		hedged, err := distribute("tcp+hedge", distributed.HedgeOptions{
			MaxHedges: cfg.maxHedges, Delay: cfg.hedgeDelay,
		})
		if err != nil {
			return err
		}
		defer hedged.Close()
		backends = append(backends, backend{name: "tcp+hedge", cl: hedged})
	}

	// Equivalence smoke before timing anything: every networked backend
	// must answer bit-identically to loopback across the block.
	block := queries.Subset(seqInts(0, min(cfg.block, queryPool)))
	want, _, err := loop.KNNBatch(block, cfg.k)
	if err != nil {
		return err
	}
	for _, be := range backends[1:] {
		got, _, err := be.cl.KNNBatch(block, cfg.k)
		if err != nil {
			return fmt.Errorf("%s KNNBatch: %w", be.name, err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					return fmt.Errorf("equivalence violation (%s) at query %d pos %d: %+v vs loopback %+v",
						be.name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	fmt.Printf("equivalence: all networked answers bit-identical to loopback (%d queries, k=%d)\n\n", block.N(), cfg.k)

	p99ByName := map[string]time.Duration{}
	fmt.Printf("%-10s %10s %9s %10s %10s   %s\n", "backend", "queries/s", "blocks/s", "p50/block", "p99/block", "notes")
	for _, be := range backends {
		blocks, qs := 0, 0
		var met distributed.QueryMetrics
		var lats []time.Duration
		bstart := time.Now()
		for time.Since(bstart).Seconds() < cfg.secs {
			lo := (blocks * cfg.block) % queryPool
			n := min(cfg.block, queryPool-lo)
			sub := queries.Subset(seqInts(lo, n))
			t0 := time.Now()
			_, m, err := be.cl.KNNBatch(sub, cfg.k)
			if err != nil {
				return fmt.Errorf("%s KNNBatch: %w", be.name, err)
			}
			lats = append(lats, time.Since(t0))
			met.Add(m)
			blocks++
			qs += n
		}
		secs := time.Since(bstart).Seconds()
		p50, p99 := latQuantile(lats, 0.50), latQuantile(lats, 0.99)
		p99ByName[be.name] = p99
		fmt.Printf("%-10s %10.0f %9.1f %10v %10v   block=%d k=%d, %d shard reqs, %.1f MB fan-out\n",
			be.name, float64(qs)/secs, float64(blocks)/secs,
			p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			cfg.block, cfg.k, met.ShardsContacted, float64(met.Bytes)/1e6)
	}
	if hp99, ok := p99ByName["tcp+hedge"]; ok {
		up99 := p99ByName["tcp"]
		if up99 > 0 {
			fmt.Printf("\nhedged p99 improvement over unhedged tcp: %.1f%% (%v -> %v)\n",
				100*(1-float64(hp99)/float64(up99)), up99.Round(time.Microsecond), hp99.Round(time.Microsecond))
		}
	}

	for _, be := range backends[1:] {
		fmt.Printf("\nper-replica wire stats (%s backend):\n", be.name)
		fmt.Printf("%-5s %-22s %9s %8s %9s %8s %10s %10s %12s %12s %10s\n",
			"shard", "addr", "requests", "retries", "failures", "hedged", "hedge-wins", "cancelled", "bytes-out", "bytes-in", "mean-rtt")
		for _, st := range be.cl.NetStats() {
			meanRTT := time.Duration(0)
			if st.Requests > 0 {
				meanRTT = st.RTT / time.Duration(st.Requests)
			}
			fmt.Printf("%-5d %-22s %9d %8d %9d %8d %10d %10d %12d %12d %10v\n",
				st.Shard, st.Addr, st.Requests, st.Retries, st.Failures,
				st.Hedged, st.HedgeWins, st.Cancelled,
				st.BytesSent, st.BytesRecv, meanRTT.Round(time.Microsecond))
		}
	}
	return nil
}

// latQuantile returns the q-quantile of the observed latencies (nearest
// rank on a sorted copy).
func latQuantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	tmp := append([]time.Duration(nil), lats...)
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	idx := int(q * float64(len(tmp)-1))
	return tmp[idx]
}

// startSlowProxy starts an in-process TCP proxy that forwards the wire
// protocol to backend, delaying every client→server frame by `delay` —
// the injected slow replica for the hedging experiment.
func startSlowProxy(backend string, delay time.Duration) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(client net.Conn) {
				defer client.Close()
				server, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer server.Close()
				go io.Copy(client, server)
				hdr := make([]byte, 8)
				for {
					if _, err := io.ReadFull(client, hdr); err != nil {
						return
					}
					payload := make([]byte, binary.LittleEndian.Uint32(hdr[0:4]))
					if _, err := io.ReadFull(client, payload); err != nil {
						return
					}
					time.Sleep(delay)
					frame := append(append([]byte(nil), hdr...), payload...)
					if _, err := server.Write(frame); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), nil
}

func seqInts(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
