package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/vec"
)

// runCfg is one run of one workload.
type runCfg struct {
	spec      spec
	seed      int64
	seconds   int
	setupReps int    // set-ups timed per run; setup_s is their median
	rounds    int    // timed rounds; 0 = spec.rounds(seconds). Only the smoke test sets it.
	sz        sizes  // sample counts of everything that is not a round
	scratch   string // root for data directories, inside the checkout
	traceOut  string // span file of a traced run
	out       io.Writer
}

const setupRepsDefault = 5

func (cfg runCfg) timedRounds() int {
	if cfg.rounds > 0 {
		return cfg.rounds
	}
	return cfg.spec.rounds(cfg.seconds)
}

// numbers is what an end-to-end phase hands back for the six metrics and
// their unbounded diagnostics.
type numbers struct {
	setupS    []float64
	qps       float64
	latencyNS float64 // single-request path: bestPerInput's estimate, or the plain median on the server
	// Raw samples, for the sample counts and the unbounded diagnostics.
	rounds, latencies []float64
	inserts           []float64 // serve-mixed only: /insert latencies
	evalsPerQ         float64
	wireBytes         float64
	queries           int64 // timed queries behind evalsPerQ
	attempted         int64
	failed            int64
}

// runEndToEnd is an untraced run: set-up repeats, warm-up, timed rounds,
// correctness gates, and the six end-to-end metrics.
func runEndToEnd(cfg runCfg) (result, error) {
	w := newWorld(cfg.spec, corpusSeed, cfg.seed, cfg.timedRounds())
	fmt.Fprintf(cfg.out, "corpus %s n=%d dim=%d pool=%d k=%d block=%d hash=%016x gen=%.3fs\n",
		cfg.spec.corpus, w.db.N(), w.db.Dim, w.pool.N(), cfg.spec.k, cfg.spec.block, w.hash(), w.genS)
	var nb numbers
	var err error
	switch cfg.spec.driver {
	case "batch":
		nb, err = e2eBatch(cfg, w)
	case "serve":
		nb, err = e2eServe(cfg, w)
	case "cluster":
		nb, err = e2eCluster(cfg, w)
	}
	if err != nil {
		return result{}, err
	}
	gateN, bad, err := seededGate(cfg)
	if err != nil {
		return result{}, fmt.Errorf("seeded gate: %w", err)
	}
	nb.attempted, nb.failed = nb.attempted+gateN, nb.failed+bad
	rep := newReport(endToEnd, cfg.out)
	rep.put("setup_s", median(nb.setupS), len(nb.setupS))
	rep.put("throughput_qps", nb.qps, len(nb.rounds))
	rep.put("latency_p50_ms", nb.latencyNS/1e6, len(nb.latencies))
	rep.put("evals_per_query", nb.evalsPerQ, int(nb.queries))
	rep.put("wire_bytes_per_query", nb.wireBytes, int(nb.queries))
	// VmHWM at exit: every transient the run's set-ups, rounds and gates
	// put on top of the index is in it.
	rep.put("peak_rss_mb", statusMiB("VmHWM:"), 1)
	// Unbounded diagnostics: the plain medians of the same samples (on the
	// block-driven workloads, what bestPerInput's estimates are to be read
	// against), /insert latency where there is one, and the tails, which do
	// not repeat within a tenth on this box (4 % quiet, 30–100 % disturbed).
	rep.note("bench.round_ms_p50", median(nb.rounds)/1e6, "ms", len(nb.rounds))
	rep.note("bench.round_ms_p90", percentile(nb.rounds, 90)/1e6, "ms", len(nb.rounds))
	rep.note("bench.round_ms_p99", percentile(nb.rounds, 99)/1e6, "ms", len(nb.rounds))
	rep.note("bench.latency_ms_p50", median(nb.latencies)/1e6, "ms", len(nb.latencies))
	rep.note("bench.latency_p99_ms", percentile(nb.latencies, 99)/1e6, "ms", len(nb.latencies))
	if len(nb.inserts) > 0 {
		rep.note("bench.insert_latency_ms_p50", median(nb.inserts)/1e6, "ms", len(nb.inserts))
	}
	rep.note("bench.noise_ratio", mean(nb.rounds)/median(nb.rounds), "x", len(nb.rounds))
	rep.note("bench.rounds_timed", float64(len(nb.rounds)), "count", 0)
	rep.note("dataset.gen_s", w.genS, "s", 1)
	return rep.finish(nb.attempted, nb.failed)
}

// timeSetups runs the program's set-up reps times and returns the timings
// and the last product; earlier products are released through drop. A
// forced collection before each repetition (outside the clock) keeps one
// repetition's garbage from being charged to the next, or to peak RSS.
func timeSetups[T any](reps int, setup func() (T, float64, error), drop func(T) error) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		v, s, err := setup()
		if err != nil {
			return last, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, s)
		if i < reps-1 {
			if err := drop(v); err != nil {
				return last, nil, fmt.Errorf("set-up %d: release: %w", i, err)
			}
			continue
		}
		last = v
	}
	return last, secs, nil
}

func buildExact(w *world) (*core.Exact, float64, error) {
	start := time.Now()
	idx, err := core.BuildExact(w.db, metric.Euclidean{}, exactParams(w))
	return idx, time.Since(start).Seconds(), err
}

// warmAndTime runs timed/10 warm-up rounds, drops them, then the timed
// rounds; between is called in the gap (counter snapshots).
func warmAndTime(t target, w *world, layer string, timed int, between func()) (roundStats, int64, error) {
	warm := timed / 10
	ws, err := runRounds(t, w, layer, 0, warm, nil, nil)
	if err != nil {
		return ws, 0, err
	}
	if between != nil {
		between()
	}
	rs, err := runRounds(t, w, layer, warm, timed, nil, nil)
	return rs, ws.work.queries + rs.work.queries, err
}

// gate compares t's answers on the probe block — the block path for all of
// it, the single path for its first 32 rows — with want: ids and every bit
// of every distance, the repo's bit-identity contract. A shard that failed
// to answer counts as a mismatch.
func gate(w *world, t target, want [][]par.Neighbor) (attempted, mismatched int64, err error) {
	probe := w.probes
	got, c, err := t.batch(probe, w.spec.k)
	if err != nil {
		return 0, 0, err
	}
	mismatched = sameAnswers(got, want) + c.failedShards
	const singles = 32
	for i := 0; i < singles; i++ {
		row, c, err := t.one(probe.Row(i), w.spec.k)
		if err != nil {
			return 0, 0, err
		}
		if !sameRow(row, want[i]) || c.failedShards != 0 {
			mismatched++
		}
	}
	return int64(w.spec.probes) + singles, mismatched, nil
}

// seededGate is the gate on inputs nobody tuned against: a corpus of
// gateRows rows generated from -seed, an index whose representatives are
// sampled from -seed, behind the workload's own entry point, against
// exact-grade brute force. The timed corpus is the workload's and never
// changes (spec), so without this a held-out seed would only re-deal probes
// over an index every earlier run had already checked.
func seededGate(cfg runCfg) (attempted, mismatched int64, err error) {
	s := cfg.spec
	s.n, s.nq, s.probes = min(s.n, gateRows), max(s.block, cfg.spec.probes), cfg.spec.probes
	w := newWorld(s, cfg.seed, cfg.seed, repsPerInput)
	want := bruteTruth(w)
	switch s.driver {
	case "batch":
		idx, _, err := buildExact(w)
		if err != nil {
			return 0, 0, err
		}
		return gate(w, exactTarget{idx}, want)
	case "cluster":
		c, err := buildCluster(w)
		if err != nil {
			return 0, 0, err
		}
		defer c.close()
		if err := c.distribute(nil); err != nil {
			return 0, 0, err
		}
		return gate(w, clusterTarget{c.cl}, want)
	default: // "serve"
		dir, err := freshDir(cfg.scratch)
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		srv, err := openDurable(w, w.db.Clone(), dir)
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		got, _, err := probeHandler(srv, w.probes, s.k)
		if err != nil {
			return 0, 0, err
		}
		return int64(s.probes), sameAnswers(got, want), nil
	}
}

// bruteTruth is the exact-grade brute-force answer to the probe block.
func bruteTruth(w *world) [][]par.Neighbor {
	return bruteforce.SearchK(w.probes, w.db, w.spec.k, metric.Euclidean{}, nil)
}

// payloadFloor is wire_bytes_per_query where no wire exists: the query row
// in and k (id, distance) pairs out, as they sit in memory. A constant, so
// it can only say that the batch workloads move nothing else; the driver
// wants every end-to-end metric from every run and none of them zero.
func payloadFloor(dim, k int) float64 { return float64(4*dim + 16*k) }

// fromRounds fills in what a block-driven timed phase measured.
func (nb *numbers) fromRounds(rs roundStats) {
	nb.qps, nb.latencyNS = rs.qps(), rs.singleTime()
	nb.rounds, nb.latencies = rs.blockNS, rs.singleNS
	nb.evalsPerQ, nb.queries = rs.work.evalsPerQuery(), rs.work.queries
}

func e2eBatch(cfg runCfg, w *world) (numbers, error) {
	var nb numbers
	idx, secs, err := timeSetups(cfg.setupReps, func() (*core.Exact, float64, error) { return buildExact(w) },
		func(*core.Exact) error { return nil })
	if err != nil {
		return nb, err
	}
	nb.setupS = secs
	t := exactTarget{idx}
	rs, ops, err := warmAndTime(t, w, "core", cfg.timedRounds(), nil)
	if err != nil {
		return nb, err
	}
	gateN, bad, err := gate(w, t, bruteTruth(w))
	if err != nil {
		return nb, err
	}
	nb.fromRounds(rs)
	nb.wireBytes = payloadFloor(w.db.Dim, cfg.spec.k)
	nb.attempted, nb.failed = ops+gateN, bad
	return nb, nil
}

func e2eServe(cfg runCfg, w *world) (numbers, error) {
	var nb numbers
	type opened struct {
		srv *server.Server
		db  *vec.Dataset
		dir string
	}
	last, secs, err := timeSetups(cfg.setupReps, func() (opened, float64, error) {
		dir, err := freshDir(cfg.scratch)
		if err != nil {
			return opened{}, 0, err
		}
		db := w.db.Clone()
		start := time.Now()
		srv, err := openDurable(w, db, dir)
		return opened{srv, db, dir}, time.Since(start).Seconds(), err
	}, func(o opened) error {
		o.srv.Close()
		return os.RemoveAll(o.dir)
	})
	if err != nil {
		return nb, err
	}
	defer os.RemoveAll(last.dir)
	nb.setupS = secs
	s, err := listen(last.srv, last.db, last.dir, nil)
	if err != nil {
		last.srv.Close()
		return nb, err
	}
	defer s.close()

	timed := cfg.timedRounds() * serveWindow
	warm := timed / 10 / serveWindow * serveWindow
	st := runServe(s, w.serveOps(warm+timed), warm, nil)
	bad, _, re, err := serveGates(s, w, st) // closes the server
	if err != nil {
		return nb, err
	}
	re.Close()
	nb.qps, nb.rounds, nb.latencies, nb.inserts = st.qps(), st.windowNS, st.queryNS, st.insertNS
	nb.latencyNS = median(st.queryNS)
	nb.evalsPerQ = float64(st.evals) / float64(st.queries)
	nb.wireBytes = float64(st.bodyBytes) / float64(st.queries)
	nb.queries = st.queries
	nb.attempted, nb.failed = st.ops+2*int64(w.spec.probes), st.failed+bad
	return nb, nil
}

func e2eCluster(cfg runCfg, w *world) (numbers, error) {
	var nb numbers
	c, secs, err := timeSetups(cfg.setupReps, func() (*cluster, float64, error) {
		c, err := buildCluster(w)
		if err != nil {
			return nil, 0, err
		}
		if err := c.distribute(nil); err != nil {
			c.close()
			return nil, 0, err
		}
		return c, c.buildS + c.distributeS, nil
	}, (*cluster).close)
	if err != nil {
		return nb, err
	}
	defer c.close()
	nb.setupS = secs

	t := clusterTarget{c.cl}
	var before netTotals
	rs, ops, err := warmAndTime(t, w, "distributed", cfg.timedRounds(), func() { before = c.netTotals() })
	if err != nil {
		return nb, err
	}
	net := c.netTotals().sub(before)

	// The single-node index over the same corpus is the cluster's oracle:
	// bit-identical by contract.
	ref, _, err := buildExact(w)
	if err != nil {
		return nb, err
	}
	want, _ := ref.KNNBatch(w.probes, cfg.spec.k)
	gateN, bad, err := gate(w, t, want)
	if err != nil {
		return nb, err
	}
	nb.fromRounds(rs)
	nb.wireBytes = float64(net.sent+net.recv) / float64(rs.work.queries)
	nb.attempted = ops + gateN
	nb.failed = bad + rs.work.failedShards + net.failures
	return nb, nil
}

// statusMiB reads a kB field of /proc/self/status; 0 where there is none.
func statusMiB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
