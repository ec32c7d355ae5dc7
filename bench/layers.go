package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/distributed/wire"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/wal"
)

// The traced run times each layer's public functions from outside, on the
// workload's own corpus, k and block size. Every workload runs all three
// drivers: its own at full traced length with spans (after an equal
// untraced pass, which gives the tracing overhead), the other two for
// miniRounds, so that every per-layer metric exists on every workload and
// means the same thing everywhere.
type sizes struct {
	mini       int // rounds of the two drivers that are not the workload's own
	probeReps  int // samples behind each standalone p50
	fullScans  int // full-scan replays: 25.6M evals each on batch-pruned
	inserts    int // timed Exact.Insert calls
	deletes    int
	walAppends int
	walFsyncs  int
	parBlocks  int
	calibBytes int // streamed per calibration pass; past every cache level on the sandbox
	rowPoints  int // points per row-kernel pass
}

var (
	fullSizes = sizes{mini: 40, probeReps: 300, fullScans: 16, inserts: 2000, deletes: 400,
		walAppends: 5000, walFsyncs: 200, parBlocks: 12, calibBytes: 32 << 20, rowPoints: 32768}
	// toySizes keeps the smoke test, which only asks that every metric
	// comes out, inside its ten seconds under the race detector.
	toySizes = sizes{mini: 2, probeReps: 4, fullScans: 1, inserts: 20, deletes: 5,
		walAppends: 20, walFsyncs: 3, parBlocks: 1, calibBytes: 1 << 18, rowPoints: 256}
)

// phaseStats is what the traced run needs from any driver's timed pass.
type phaseStats interface {
	roundTimes() []float64
	latencies() []float64
	throughput() float64
	timedOps() int64
}

func (rs roundStats) roundTimes() []float64 { return rs.blockNS }
func (rs roundStats) latencies() []float64  { return rs.singleNS }
func (rs roundStats) throughput() float64   { return rs.qps() }
func (rs roundStats) timedOps() int64       { return rs.work.queries }

func (st serveStats) roundTimes() []float64 { return st.windowNS }
func (st serveStats) latencies() []float64  { return st.queryNS }
func (st serveStats) throughput() float64   { return st.qps() }
func (st serveStats) timedOps() int64 {
	return int64(len(st.queryNS) + len(st.insertNS) + len(st.deleteNS))
}

// primary is the workload's own driver as the traced run saw it.
type primary struct {
	untraced, traced phaseStats
	mem              [2]runtime.MemStats // around the untraced pass
}

// observe runs pass 0 of a driver untraced and, when the driver is the
// workload's own, pass 1 traced. It returns pass 0.
func (p *primary) observe(own bool, tr *tracer, pass func(pass int, tr *tracer) (phaseStats, error)) (phaseStats, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	un, err := pass(0, nil)
	if err != nil || !own {
		return un, err
	}
	runtime.ReadMemStats(&m1)
	p.untraced, p.mem = un, [2]runtime.MemStats{m0, m1}
	p.traced, err = pass(1, tr)
	return un, err
}

func runTraced(cfg runCfg) (result, error) {
	s := cfg.spec
	ownRounds := max(100, s.rounds(cfg.seconds)/10)
	if cfg.rounds > 0 {
		ownRounds = cfg.rounds
	}
	w := newWorld(s, corpusSeed, cfg.seed, ownRounds)
	fmt.Fprintf(cfg.out, "corpus %s n=%d dim=%d pool=%d k=%d block=%d hash=%016x gen=%.3fs\n",
		s.corpus, w.db.N(), w.db.Dim, w.pool.N(), s.k, s.block, w.hash(), w.genS)
	rep := newReport(perLayer, cfg.out)
	tr := newTracer()
	rounds := func(driver string) int {
		if s.driver != driver {
			return cfg.sz.mini
		}
		return ownRounds
	}
	var prim primary
	var attempted, failed int64

	stream := probeCalib(rep, cfg.sz)
	probeMetric(rep, cfg.sz, stream)

	idx, buildS, err := buildExact(w)
	if err != nil {
		return result{}, err
	}
	rep.put("core.build_s", buildS, 1)

	b, err := tracedBatch(cfg.sz, w, idx, rounds("batch"), s.driver == "batch", tr, &prim, rep)
	if err != nil {
		return result{}, fmt.Errorf("batch phase: %w", err)
	}
	gateN, bad, err := gate(w, exactTarget{idx}, bruteTruth(w))
	if err != nil {
		return result{}, fmt.Errorf("batch gate: %w", err)
	}
	attempted, failed = attempted+b.work.queries+gateN, failed+bad
	probePar(rep, cfg.sz, w, idx, median(b.blockNS))

	sv, err := tracedServe(cfg, w, idx, rounds("serve"), s.driver == "serve", tr, &prim, rep)
	if err != nil {
		return result{}, fmt.Errorf("serve phase: %w", err)
	}
	attempted += sv.ops
	failed += sv.failed

	cl, err := tracedCluster(cfg.sz, w, idx, rounds("cluster"), s.driver == "cluster", tr, &prim, rep, median(b.blockNS))
	if err != nil {
		return result{}, fmt.Errorf("cluster phase: %w", err)
	}
	attempted += cl.ops
	failed += cl.failed

	if err := probeWAL(rep, cfg.sz, w, cfg.scratch); err != nil {
		return result{}, fmt.Errorf("wal probes: %w", err)
	}
	if err := probeWire(rep, cfg.sz, w); err != nil {
		return result{}, fmt.Errorf("wire probes: %w", err)
	}
	// Last: these change the index and corpus every earlier phase read.
	if err := probeMutation(rep, cfg.sz, w, idx); err != nil {
		return result{}, fmt.Errorf("mutation probes: %w", err)
	}

	un, trd := prim.untraced, prim.traced
	rep.put("bench.round_ms_p90", percentile(un.roundTimes(), 90)/1e6, len(un.roundTimes()))
	rep.put("bench.round_ms_p99", percentile(un.roundTimes(), 99)/1e6, len(un.roundTimes()))
	rep.put("bench.latency_p99_ms", percentile(un.latencies(), 99)/1e6, len(un.latencies()))
	rep.put("bench.noise_ratio", mean(un.roundTimes())/median(un.roundTimes()), len(un.roundTimes()))
	rep.put("bench.rounds_timed", float64(len(trd.roundTimes())), 0)
	rep.put("bench.trace_overhead_pct", 100*(1-trd.throughput()/un.throughput()), len(trd.roundTimes()))
	rep.put("dataset.gen_s", w.genS, 1)
	m0, m1, ops := prim.mem[0], prim.mem[1], float64(un.timedOps())
	rep.put("runtime.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/ops, int(ops))
	rep.put("runtime.alloc_bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/ops, int(ops))
	rep.put("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), 0)
	rep.put("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))

	gateN, bad, err = seededGate(cfg)
	if err != nil {
		return result{}, fmt.Errorf("seeded gate: %w", err)
	}
	attempted, failed = attempted+gateN, failed+bad

	if err := tr.write(cfg.traceOut, s.name, cfg.seed); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.out, "spans written to %s\n", cfg.traceOut)
	return rep.finish(attempted, failed)
}

// timeN calls f n times and returns each call's duration in ns.
func timeN(n int, f func(i int)) []float64 {
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		f(i)
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return ns
}

// probeCalib measures what the machine gives this process right now: a
// dependent multiply-add chain (clock speed and steal) and a streaming read
// (the roofline denominator of ROADMAP 1c). Returns the stream rate, GB/s.
func probeCalib(rep *report, sz sizes) float64 {
	fma := timeN(50, func(int) {
		x := 1.0
		for i := 0; i < 100_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		runtime.KeepAlive(x) // or the loop is dead code
	})
	rep.put("bench.calib_fma_us_p50", median(fma)/1e3, len(fma))
	buf := make([]float32, sz.calibBytes/4)
	for i := range buf {
		buf[i] = float32(i)
	}
	pass := timeN(12, func(int) {
		var s0, s1, s2, s3 float32
		for i := 0; i+4 <= len(buf); i += 4 {
			s0 += buf[i]
			s1 += buf[i+1]
			s2 += buf[i+2]
			s3 += buf[i+3]
		}
		runtime.KeepAlive(s0 + s1 + s2 + s3)
	})
	gbps := float64(sz.calibBytes) / median(pass) // bytes per ns = GB/s
	rep.put("bench.calib_stream_gbps", gbps, len(pass))
	return gbps
}

// probeMetric times the row and tile kernels on fixed shapes: the exact
// grade at dim 64 (batch-dense's kernel) and the Gram-fast grade at dim 21
// (phase 1 on the Robot corpus).
func probeMetric(rep *report, sz sizes, streamGBps float64) {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = rng.Float32()
		}
		return out
	}
	m := metric.Euclidean{}
	exact, fast := metric.NewKernel(m), metric.NewFastKernel(m)

	const rowDim = 64
	rowN := sz.rowPoints // 8 MiB of points per row pass
	pts, q := fill(rowN*rowDim), fill(rowDim)
	out := make([]float64, rowN)
	row := timeN(40, func(int) { exact.Ordering(q, pts, rowDim, out) })
	gbps := float64(4*rowN*rowDim) / median(row)
	rep.put("metric.exact_row_gbps", gbps, len(row))
	rep.put("metric.pct_of_stream", 100*gbps/streamGBps, len(row))

	tile := func(ker *metric.Kernel, nq, np, dim int) (evalsPerS float64, n int) {
		qs, ps := fill(nq*dim), fill(np*dim)
		out := make([]float64, nq*np)
		ts := metric.GetTileScratch()
		defer metric.PutTileScratch(ts)
		ns := timeN(sz.probeReps, func(int) { ker.Tile(qs, nil, ps, nil, dim, out, ts) })
		return float64(nq*np) / (median(ns) / 1e9), len(ns)
	}
	v, n := tile(exact, 32, 512, 64)
	rep.put("metric.exact_tile_evals_per_s", v, n)
	v, n = tile(fast, 128, 512, 21)
	rep.put("metric.fast_tile_evals_per_s", v, n)
	budget, _ := metric.TileBudget()
	rep.put("metric.tile_budget", float64(budget), 0)
}

// replayer pushes a round's block through the layers under Exact.KNNBatch:
// phase 1 as bruteforce sees it (BF(block, R) on the fast grade), the same
// shape as one Kernel.Tile call, and — fullScans times — the full scan that
// is the no-index baseline. With a tracer each replay is a span under the
// round's root, after the round's own calls.
type replayer struct {
	w        *world
	full     int // full scans still to replay
	reps     *vec.Dataset
	fast     *metric.Kernel
	tileOut  []float64
	phase1NS []float64
	tileNS   []float64
	fullNS   []float64
}

func newReplayer(w *world, idx *core.Exact, fullScans int) *replayer {
	reps := w.db.Subset(idx.RepIDs())
	return &replayer{w: w, full: fullScans, reps: reps, fast: metric.NewFastKernel(metric.Euclidean{}),
		tileOut: make([]float64, w.spec.block*reps.N())}
}

func (rp *replayer) round(tr *tracer, r, root int, blk *vec.Dataset) {
	m, k := metric.Euclidean{}, min(rp.w.spec.k, rp.reps.N())
	timed := func(layer, name string, dst *[]float64, f func()) {
		id := tr.begin(root, r+1, layer, "replay "+name)
		t0 := time.Now()
		f()
		*dst = append(*dst, float64(time.Since(t0).Nanoseconds()))
		tr.end(id)
	}
	timed("bruteforce", "bruteforce.SearchKFast(block,R)", &rp.phase1NS, func() {
		bruteforce.SearchKFast(blk, rp.reps, k, m, nil)
	})
	timed("metric", "Kernel.Tile(block,R)", &rp.tileNS, func() {
		rp.fast.Tile(blk.Data, nil, rp.reps.Data, nil, blk.Dim, rp.tileOut, nil)
	})
	if rp.full > 0 {
		rp.full--
		timed("bruteforce", "bruteforce.SearchK(block,X)", &rp.fullNS, func() {
			bruteforce.SearchK(blk, rp.w.db, rp.w.spec.k, m, nil)
		})
	}
}

// tracedBatch drives Exact for n rounds (and n more traced, if it is the
// workload's own driver), replays the lower layers, and emits the
// bruteforce.* and core.* search metrics from the untraced pass.
func tracedBatch(sz sizes, w *world, idx *core.Exact, n int, own bool, tr *tracer, prim *primary, rep *report) (roundStats, error) {
	t := exactTarget{idx}
	rp := newReplayer(w, idx, sz.fullScans)
	warm := n / 10
	if _, err := runRounds(t, w, "core", 0, warm, nil, nil); err != nil {
		return roundStats{}, err
	}
	ps, err := prim.observe(own, tr, func(pass int, tr *tracer) (phaseStats, error) {
		var hook roundHook
		if pass == 1 {
			hook = func(r, root int, blk *vec.Dataset) { rp.round(tr, r, root, blk) }
		}
		return runRounds(t, w, "core", warm+pass*n, n, tr, hook)
	})
	if err != nil {
		return roundStats{}, err
	}
	if !own {
		for r := 0; r < n; r++ {
			rp.round(nil, r, 0, w.blocks[r%len(w.blocks)])
		}
	}
	b := ps.(roundStats)
	s, c := w.spec, b.work
	q := float64(c.queries)
	blockNS, phase1NS, fullNS := median(b.blockNS), median(rp.phase1NS), median(rp.fullNS)
	rep.put("bruteforce.phase1_ms_per_block", phase1NS/1e6, len(rp.phase1NS))
	rep.put("bruteforce.full_scan_evals_per_s", float64(s.block*w.db.N())/(fullNS/1e9), len(rp.fullNS))
	one := timeN(sz.probeReps/2, func(i int) {
		bruteforce.SearchOneK(w.pool.Row(w.singles[i%len(w.singles)]), w.db, s.k, metric.Euclidean{}, nil)
	})
	rep.put("bruteforce.single_scan_us", median(one)/1e3, len(one))

	rep.put("core.rep_evals_per_query", float64(c.repEvals)/q, int(q))
	rep.put("core.point_evals_per_query", float64(c.pointEvals)/q, int(q))
	rep.put("core.reps_kept_per_query", float64(c.repsKept)/q, int(q))
	repPairs := q * float64(idx.NumReps())
	rep.put("core.pruned_psi_share", 100*float64(c.psi)/repPairs, int(q))
	rep.put("core.pruned_triple_share", 100*float64(c.triple)/repPairs, int(q))
	rep.put("core.speedup_vs_bf", fullNS/blockNS, len(b.blockNS))
	phase2NS := blockNS - phase1NS
	rep.put("core.phase2_ms_per_block", phase2NS/1e6, len(b.blockNS))
	rep.put("core.scan_evals_per_s", float64(b.blockWork.pointEvals)/float64(b.blockWork.batches)/(phase2NS/1e9), len(b.blockNS))
	rep.put("core.batch_vs_single_ratio", median(b.singleNS)/(blockNS/float64(s.block)), len(b.singleNS))
	return b, nil
}

// probePar reruns the block path at GOMAXPROCS=nproc. Parallel scaling is
// the paper's manycore axis, but two shared vCPUs cannot measure it
// repeatably (README, noise rule 2), so this is a diagnostic only.
func probePar(rep *report, sz sizes, w *world, idx *core.Exact, blockNSAt1 float64) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	ns := timeN(sz.parBlocks, func(i int) { idx.KNNBatch(w.blocks[i%len(w.blocks)], w.spec.k) })
	runtime.GOMAXPROCS(prev)
	rep.put("par.speedup_nproc", blockNSAt1/median(ns), len(ns))
}

// phaseOps is what a traced driver phase adds to the run's attempted and
// failed operation counts.
type phaseOps struct{ ops, failed int64 }

// tracedServe opens the durable server on the workload's corpus, drives it
// with two clients, checks the serve gates, and emits server.*.
func tracedServe(cfg runCfg, w *world, idx *core.Exact, windows int, own bool, tr *tracer, prim *primary, rep *report) (phaseOps, error) {
	var out phaseOps
	dir, err := freshDir(cfg.scratch)
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	db := w.db.Clone()
	srv, err := openDurable(w, db, dir)
	if err != nil {
		return out, err
	}
	s, err := listen(srv, db, dir, tr)
	if err != nil {
		srv.Close()
		return out, err
	}
	defer s.close()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	var rttErr error
	rtt := timeN(cfg.sz.probeReps, func(int) {
		resp, err := hc.Get(s.base + "/healthz")
		if err != nil {
			rttErr = err
			return
		}
		resp.Body.Close()
	})
	hc.CloseIdleConnections()
	if rttErr != nil {
		return out, rttErr
	}
	rep.put("server.healthz_rtt_us_p50", median(rtt)/1e3, len(rtt))

	n := windows * serveWindow
	warm := n / 10 / serveWindow * serveWindow
	ops := w.serveOps(warm + 2*n)
	slice := func(lo, hi int) (o [serveClient][]op) {
		for c := range ops {
			o[c] = ops[c][lo:hi]
		}
		return o
	}
	all := runServe(s, slice(0, warm), 0, nil)
	ps, err := prim.observe(own, tr, func(pass int, tr *tracer) (phaseStats, error) {
		st := runServe(s, slice(warm+pass*n, warm+(pass+1)*n), 0, tr)
		all.merge(st)
		return st, nil
	})
	if err != nil {
		return out, err
	}
	st := ps.(serveStats)
	rep.put("server.coalesce_batch_mean", coalesceBatchMean(s), int(st.queries))
	rep.put("server.insert_latency_ms_p50", median(st.insertNS)/1e6, len(st.insertNS))

	// Handler time without the network or the coalescer: a plain server
	// (no options) over the reference index, which /query only reads.
	plain := server.NewExact(w.db, metric.Euclidean{}, idx)
	row := func(i int) []float32 { return w.pool.Row(w.singles[i%len(w.singles)]) }
	bodies := make([][]byte, cfg.sz.probeReps)
	for i := range bodies {
		bodies[i] = mustJSON(map[string]any{"point": row(i), "k": w.spec.k})
	}
	handlerNS := timeN(cfg.sz.probeReps, func(i int) {
		plain.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies[i])))
	})
	knn := timeN(cfg.sz.probeReps, func(i int) { idx.KNN(row(i), w.spec.k) })
	rep.put("server.query_handler_us_p50", median(handlerNS)/1e3, len(handlerNS))
	rep.put("server.json_overhead_us", (median(handlerNS)-median(knn))/1e3, len(knn))
	rep.put("server.coalesce_wait_us_p50", (median(st.queryNS)-median(rtt)-median(handlerNS))/1e3, len(st.queryNS))

	bad, recoveryS, re, err := serveGates(s, w, all)
	if err != nil {
		return out, err
	}
	defer re.Close()
	rep.put("server.recovery_s", recoveryS, 1)
	start := time.Now()
	if _, err := re.Snapshot(); err != nil {
		return out, fmt.Errorf("snapshot: %w", err)
	}
	rep.put("server.snapshot_s", time.Since(start).Seconds(), 1)
	out.ops, out.failed = all.ops+2*int64(w.spec.probes), all.failed+bad
	return out, nil
}

// tracedCluster builds the 2-shard cluster on the workload's corpus, times
// it on loopback, lifts it onto TCP shard servers, times it again, checks
// it against the single-node index, and emits distributed.* and the wire
// ping.
func tracedCluster(sz sizes, w *world, ref *core.Exact, n int, own bool, tr *tracer, prim *primary, rep *report, singleNodeBlockNS float64) (phaseOps, error) {
	var out phaseOps
	c, err := buildCluster(w)
	if err != nil {
		return out, err
	}
	defer c.close()
	t := clusterTarget{c.cl}
	warm := n / 10
	if _, err := runRounds(t, w, "distributed", 0, warm, nil, nil); err != nil {
		return out, err
	}
	loop, err := runRounds(t, w, "distributed", warm, sz.mini, nil, nil)
	if err != nil {
		return out, err
	}
	if err := c.distribute(tr); err != nil {
		return out, err
	}
	rep.put("distributed.build_s", c.buildS, 1)
	rep.put("distributed.distribute_s", c.distributeS, 1)
	if _, err := runRounds(t, w, "distributed", 0, warm, nil, nil); err != nil {
		return out, err
	}
	before := c.netTotals()
	var net netTotals
	ps, err := prim.observe(own, tr, func(pass int, tr *tracer) (phaseStats, error) {
		rs, err := runRounds(t, w, "distributed", warm+pass*n, n, tr, nil)
		if pass == 0 {
			net = c.netTotals().sub(before)
		}
		return rs, err
	})
	if err != nil {
		return out, err
	}
	tcp := ps.(roundStats)
	want, _ := ref.KNNBatch(w.probes, w.spec.k)
	gateN, bad, err := gate(w, t, want)
	if err != nil {
		return out, err
	}
	out.ops, out.failed = loop.work.queries+tcp.work.queries+gateN, bad+tcp.work.failedShards+net.failures

	q, blocks := float64(tcp.work.queries), float64(tcp.work.batches)
	loopNS, tcpNS := median(loop.blockNS), median(tcp.blockNS)
	rep.put("distributed.loopback_block_ms_p50", loopNS/1e6, len(loop.blockNS))
	rep.put("distributed.tcp_overhead_ms", (tcpNS-loopNS)/1e6, len(tcp.blockNS))
	rep.put("distributed.exchange_rtt_us_mean", float64(net.rtt.Microseconds())/float64(net.requests), int(net.requests))
	rep.put("distributed.requests_per_block", float64(tcp.blockWork.requests)/blocks, int(blocks))
	rep.put("distributed.bytes_sent_per_query", float64(net.sent)/q, int(q))
	rep.put("distributed.bytes_recv_per_query", float64(net.recv)/q, int(q))
	rep.put("distributed.windows_per_query", float64(tcp.work.windows)/q, int(q))
	rep.put("distributed.empty_window_share", 100*float64(tcp.work.emptyWin)/float64(max(tcp.work.windows, 1)), int(tcp.work.windows))
	rep.put("distributed.retries", float64(net.retries), int(net.requests))
	rep.put("distributed.failed_shards", float64(tcp.work.failedShards), int(net.requests))
	rep.put("distributed.vs_single_node_ratio", tcpNS/singleNodeBlockNS, len(tcp.blockNS))

	rtt, err := pingShard(c.shards.addrs[0], sz.probeReps)
	if err != nil {
		return out, fmt.Errorf("ping shard: %w", err)
	}
	rep.put("wire.frame_roundtrip_us", median(rtt)/1e3, len(rtt))
	return out, nil
}

// pingShard times MsgPing → MsgPong exchanges on one connection: a frame
// each way through WriteFrame/ReadFrame and loopback TCP, no payload.
func pingShard(addr string, n int) ([]float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	ping := wire.EncodeEmpty(wire.MsgPing)
	var perr error
	ns := timeN(n, func(int) {
		if err := wire.WriteFrame(conn, ping); err != nil {
			perr = err
			return
		}
		if mt, _, err := wire.ReadFrame(conn, wire.MaxFrameBytes); err != nil || mt != wire.MsgPong {
			perr = fmt.Errorf("reply type %d: %v", mt, err)
		}
	})
	return ns, perr
}

// probeWAL times the log on records shaped like the workload's inserts:
// appends without and with fsync, then a replay of what was appended.
func probeWAL(rep *report, sz sizes, w *world, scratch string) error {
	dir, err := freshDir(scratch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	row := func(i int) []float32 { return w.pool.Row(i % w.pool.N()) }
	appendN := func(path string, mode wal.SyncMode, n int) ([]float64, wal.Stats, error) {
		l, _, err := wal.Open(path, wal.Options{Sync: mode}, nil)
		if err != nil {
			return nil, wal.Stats{}, err
		}
		var aerr error
		ns := timeN(n, func(i int) {
			if err := l.AppendInsert(row(i)); err != nil {
				aerr = err
			}
		})
		st := l.Stats()
		if err := l.Close(); err != nil && aerr == nil {
			aerr = err
		}
		return ns, st, aerr
	}
	buffered := filepath.Join(dir, "none.log")
	none, st, err := appendN(buffered, wal.SyncNone, sz.walAppends)
	if err != nil {
		return err
	}
	always, sst, err := appendN(filepath.Join(dir, "always.log"), wal.SyncAlways, sz.walFsyncs)
	if err != nil {
		return err
	}
	rep.put("wal.append_us_p50", median(none)/1e3, len(none))
	rep.put("wal.fsync_us_p50", (median(always)-median(none))/1e3, len(always))
	rep.put("wal.bytes_per_insert", float64(st.Bytes)/float64(st.Records), int(st.Records))
	rep.put("wal.syncs_per_insert", float64(sst.Syncs)/float64(sst.Appended), int(sst.Appended))

	replayed := 0
	start := time.Now()
	l, rs, err := wal.Open(buffered, wal.Options{Sync: wal.SyncNone}, func(wal.Record) error { replayed++; return nil })
	if err != nil {
		return err
	}
	secs := time.Since(start).Seconds()
	if err := l.Close(); err != nil {
		return err
	}
	if replayed != sz.walAppends || rs.Records != sz.walAppends {
		return fmt.Errorf("replayed %d of %d records", replayed, sz.walAppends)
	}
	rep.put("wal.replay_records_per_s", float64(replayed)/secs, replayed)
	return nil
}

// probeWire times the codec on messages shaped like the workload's: one
// block's scan request (three segments and windows per query), its reply,
// and half the corpus as a shard image. Decode includes ReadFrame's CRC
// check, as encode includes Finish's.
func probeWire(rep *report, sz sizes, w *world) error {
	s, dim := w.spec, w.db.Dim
	blk := w.blocks[0]
	const segsPerQuery = 3
	req := &wire.ScanRequest{Dim: dim, K: s.k, Epoch: 1, Qs: blk.Data, Bounds: make([]float64, s.block),
		Segs: make([][]int, s.block), Wins: make([]float64, 2*segsPerQuery*s.block)}
	for i := range req.Segs {
		req.Segs[i] = []int{i, i + 1, i + 2}
	}
	reply := &wire.ScanReply{KNN: make([][]par.Neighbor, s.block)}
	for i := range reply.KNN {
		reply.KNN[i] = make([]par.Neighbor, s.k)
	}
	half := w.db.N() / 2
	nreps := core.DefaultNumReps(w.db.N()) / 2
	state := &wire.ShardState{Dim: dim, Epoch: 1, Metric: wire.MetricSpec{Kind: wire.MetricEuclidean},
		RepIDs: make([]int32, nreps), Offsets: make([]int, nreps+1), IDs: make([]int32, half), IsRep: make([]bool, half),
		Gather: w.db.Data[:half*dim], SegDists: make([]float64, half)}
	for i := range state.Offsets {
		state.Offsets[i] = i * half / nreps
	}

	mbps := func(bytes int, ns []float64) float64 { return float64(bytes) / (median(ns) / 1e3) } // bytes/µs = MB/s
	codec := func(name string, reps int, encode func() []byte, decode func(body []byte) error) error {
		var frame []byte
		enc := timeN(reps, func(int) { frame = encode() })
		rep.put("wire."+name+"_encode_mb_per_s", mbps(len(frame), enc), reps)
		if decode == nil {
			return nil
		}
		var derr error
		dec := timeN(reps, func(int) {
			_, body, err := wire.ReadFrame(bytes.NewReader(frame), wire.MaxFrameBytes)
			if err == nil {
				err = decode(body)
			}
			if err != nil {
				derr = err
			}
		})
		rep.put("wire."+name+"_decode_mb_per_s", mbps(len(frame), dec), reps)
		return derr
	}
	if err := codec("scanreq", sz.probeReps, func() []byte { return wire.EncodeScanRequest(req) },
		func(b []byte) error { _, err := wire.DecodeScanRequest(b); return err }); err != nil {
		return err
	}
	if err := codec("scanreply", sz.probeReps, func() []byte { return wire.EncodeScanReply(reply) },
		func(b []byte) error { _, err := wire.DecodeScanReply(b); return err }); err != nil {
		return err
	}
	return codec("shardstate", max(2, sz.probeReps/60), func() []byte { return wire.EncodeShardState(state) }, nil)
}

// probeMutation times the write paths on the reference index: /insert
// through the plain handler, then Insert and Delete direct, then a save
// and a load of the mutated index.
func probeMutation(rep *report, sz sizes, w *world, idx *core.Exact) error {
	m := metric.Euclidean{}
	plain := server.NewExact(w.db, m, idx)
	nq := w.pool.N()
	bodies := make([][]byte, sz.probeReps)
	for i := range bodies {
		bodies[i] = mustJSON(map[string]any{"point": w.pool.Row(nq - 1 - i%nq)})
	}
	var herr error
	handler := timeN(sz.probeReps, func(i int) {
		rec := httptest.NewRecorder()
		plain.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK {
			herr = fmt.Errorf("/insert: status %d", rec.Code)
		}
	})
	if herr != nil {
		return herr
	}
	rep.put("server.insert_handler_us_p50", median(handler)/1e3, len(handler))

	inserts := timeN(sz.inserts, func(i int) { idx.Insert(w.pool.Row(nq - 1 - i%nq)) })
	rep.put("core.insert_us_p50", median(inserts)/1e3, len(inserts))
	victims := rand.New(rand.NewSource(w.seed ^ 0xde1)).Perm(w.spec.n)[:sz.deletes]
	var derr error
	deletes := timeN(sz.deletes, func(i int) {
		if err := idx.Delete(victims[i]); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return derr
	}
	rep.put("core.delete_us_p50", median(deletes)/1e3, len(deletes))
	rep.put("core.seg_merges", float64(idx.SegMerges()), sz.probeReps+sz.inserts)

	var img bytes.Buffer
	start := time.Now()
	idx.Flush()
	if err := idx.Save(&img); err != nil {
		return err
	}
	rep.put("core.save_s", time.Since(start).Seconds(), 1)
	start = time.Now()
	if _, err := core.LoadExact(&img, w.db, m); err != nil {
		return err
	}
	rep.put("core.load_s", time.Since(start).Seconds(), 1)
	return nil
}
