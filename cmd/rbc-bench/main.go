// Command rbc-bench runs the paper-reproduction experiments. Each
// experiment regenerates one table or figure of Cayton (2012) — see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results.
//
// Usage:
//
//	rbc-bench -list
//	rbc-bench -exp fig2                     # one experiment
//	rbc-bench -exp paper                    # table1 fig1 fig2 table2 table3 fig3
//	rbc-bench -exp all -scale 0.02 -out results/
//	rbc-bench -shard-addrs a:1,b:2          # networked cluster vs loopback
//	rbc-bench -shard-addrs a:1,a:2,b:1,b:2 -replicas 2 -max-hedges 1 -net-slow 50ms
//	                                        # replicated + hedged tail-latency experiment
//
// At -scale 1 the workloads match the paper's Table 1 sizes; the default
// 0.01 runs in minutes on a laptop while preserving the √n parameter
// couplings (so speedup shapes carry over).
//
// With -shard-addrs the command benchmarks the distributed cluster over
// TCP against the in-process loopback transport, checking bit-identity
// first. -replicas groups consecutive addresses into per-shard replica
// sets; -max-hedges adds a hedged backend to the comparison and reports
// the p99 improvement, which -net-slow makes visible by putting a sleep
// proxy in front of shard 0's primary replica.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		expFlag  = flag.String("exp", "paper", "experiment id, comma list, 'paper', or 'all'")
		scale    = flag.Float64("scale", 0.01, "fraction of the paper's dataset sizes")
		queries  = flag.Int("queries", 200, "queries per experiment")
		seed     = flag.Int64("seed", 20120501, "random seed")
		repFac   = flag.Float64("repfactor", 2, "n_r multiplier on sqrt(n) for exact search")
		outDir   = flag.String("out", "", "directory for .txt/.csv outputs (optional)")
		listOnly = flag.Bool("list", false, "list experiments and exit")

		shardAddrs = flag.String("shard-addrs", "", "networked mode: comma-separated rbc-shard addresses; benchmarks the cluster over TCP vs loopback")
		serveN     = flag.Int("serve-n", 10000, "networked mode: database size")
		serveDim   = flag.Int("serve-dim", 64, "networked mode: dimension")
		serveSecs  = flag.Float64("serve-secs", 3, "networked mode: seconds per measured backend")
		netK       = flag.Int("net-k", 5, "networked mode: neighbors per query")
		netBlock   = flag.Int("net-block", 64, "networked mode: queries per batched fan-out")
		netTimeout = flag.Duration("net-timeout", 10*time.Second, "networked mode: per-attempt shard request deadline")
		replicas   = flag.Int("replicas", 1, "networked mode: replicas per shard — consecutive -shard-addrs entries form one shard's ordered replica set")
		maxHedges  = flag.Int("max-hedges", 0, "networked mode: extra replicas to hedge each scan onto (0 = hedging off; >0 adds a tcp+hedge backend to the comparison)")
		hedgeDelay = flag.Duration("hedge-delay", 0, "networked mode: fixed hedge delay (0 = adaptive p95-RTT delay)")
		netSlow    = flag.Duration("net-slow", 0, "networked mode: inject an in-process sleep proxy adding this delay in front of shard 0's primary replica")
	)
	flag.Parse()

	if *shardAddrs != "" {
		var addrs []string
		for _, a := range strings.Split(*shardAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		err := runNetBench(netBenchConfig{
			addrs: addrs, replicas: *replicas, n: *serveN, dim: *serveDim,
			k: *netK, block: *netBlock, secs: *serveSecs,
			seed: *seed, timeout: *netTimeout,
			hedgeDelay: *hedgeDelay, maxHedges: *maxHedges, slow: *netSlow,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbc-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *listOnly {
		for _, e := range harness.Registry() {
			fmt.Printf("%-20s %s\n%20s   %s\n", e.ID, e.Title, "", e.Description)
		}
		return
	}

	cfg := harness.Config{Scale: *scale, Queries: *queries, Seed: *seed, RepFactor: *repFac}
	ids := selectExperiments(*expFlag)
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "rbc-bench: no experiments selected")
		os.Exit(2)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rbc-bench: %v\n", err)
			os.Exit(1)
		}
	}
	failed := false
	for _, id := range ids {
		exp, err := harness.ByID(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbc-bench: %v\n", err)
			failed = true
			continue
		}
		fmt.Printf("=== %s — %s ===\n", exp.ID, exp.Title)
		start := time.Now()
		out, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbc-bench: %s failed: %v\n", id, err)
			failed = true
			continue
		}
		for _, tb := range out.Tables {
			fmt.Println()
			if err := tb.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "rbc-bench: render: %v\n", err)
			}
		}
		for _, ch := range out.Charts {
			fmt.Println()
			if err := ch.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "rbc-bench: render: %v\n", err)
			}
		}
		fmt.Printf("\n(%s completed in %.1fs)\n\n", exp.ID, time.Since(start).Seconds())
		if *outDir != "" {
			if err := writeOutputs(*outDir, exp.ID, out); err != nil {
				fmt.Fprintf(os.Stderr, "rbc-bench: writing outputs: %v\n", err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func selectExperiments(spec string) []string {
	switch spec {
	case "all":
		ids := make([]string, 0, 16)
		for _, e := range harness.Registry() {
			ids = append(ids, e.ID)
		}
		return ids
	case "paper":
		return []string{"table1", "fig1", "fig2", "table2", "table3", "fig3"}
	default:
		var ids []string
		for _, id := range strings.Split(spec, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		return ids
	}
}

func writeOutputs(dir, id string, out *harness.Output) error {
	var text strings.Builder
	for _, tb := range out.Tables {
		if err := tb.Render(&text); err != nil {
			return err
		}
		text.WriteByte('\n')
	}
	for _, ch := range out.Charts {
		if err := ch.Render(&text); err != nil {
			return err
		}
		text.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), []byte(text.String()), 0o644); err != nil {
		return err
	}
	for i, tb := range out.Tables {
		name := id + ".csv"
		if i > 0 {
			name = fmt.Sprintf("%s_%d.csv", id, i)
		}
		var csv strings.Builder
		if err := tb.RenderCSV(&csv); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(csv.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
