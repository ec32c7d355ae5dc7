package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// spec fixes everything about a workload except the seed: corpus, held-out
// query pool, k, block size, and the reference round rate that turns
// -seconds into a round count. Nothing in a run is time-boxed (noise rule
// 4): the same flags always do the same work.
//
// The corpus and the index over it are part of the spec, not of the seed.
// The driver runs every workload on ten seeds and takes the spread of each
// metric over them, and ten Robot corpora differ by 20 % in evaluations per
// query (1159–1664) and so in everything timed; ten orderings of one
// corpus's held-out queries do not. The seed picks which held-out rows form
// which block, every order, the gate's probes, and the server's op lists.
type spec struct {
	name   string
	why    string
	driver string // "batch", "serve" or "cluster": the entry point the timed phase drives
	corpus string // "robot" or "cube64"
	n, nq  int    // corpus rows, held-out query rows
	k      int
	block  int // queries per KNNBatch block
	single int // timed single-query calls per round
	// roundsPerSec is the reference round rate on the sandbox (2-vCPU
	// Xeon 2.1 GHz, GOMAXPROCS=1); timed rounds = max(minRounds,
	// seconds × roundsPerSec). For "serve" a round is one client's
	// window of serveWindow ops.
	roundsPerSec float64
	probes       int // correctness-gate queries per run
}

const (
	// corpusSeed generates every timed corpus and samples its index's
	// representatives, whatever -seed says; -seed's own corpus is the
	// seeded gate's (seededGate).
	corpusSeed = 20120501
	minRounds  = 300 // fewer timed rounds than this and the medians stop repeating
	// repsPerInput is how often each distinct block and each distinct
	// single query is asked in a run, at least: bestPerInput needs
	// repetitions to find an undisturbed one. A workload with fewer
	// rounds asks fewer distinct inputs, never each input less often.
	repsPerInput = 32
	serveWindow  = 20 // ops per client per throughput window
	serveClient  = 2  // closed-loop keep-alive clients (= nproc on the sandbox)
	// serveQueryRows distinct /query points: a run asks each about twenty
	// times, so the part-cycle at either end of the timed phase is a
	// fortieth of the queries, not a fifth.
	serveQueryRows = 1024
	probeN         = 256    // correctness-gate queries per full-size run
	gateRows       = 20_000 // corpus rows of the seeded gate
)

var specs = []spec{
	{
		name: "batch-pruned", driver: "batch", corpus: "robot", n: 200_000, nq: 8192, k: 1, block: 128, single: 8,
		roundsPerSec: 225, probes: probeN,
		why: "low intrinsic dimension: pruning works (~1.4k of 200k evals/query), so core's phase 1, bounds and windowed scan do the work and the row kernels little",
	},
	{
		name: "batch-dense", driver: "batch", corpus: "cube64", n: 50_000, nq: 1024, k: 10, block: 32, single: 2,
		roundsPerSec: 17, probes: probeN,
		why: "high intrinsic dimension: nothing prunes (evals/query = n), so metric/bruteforce row kernels do all the work; the bypass for any pruning change",
	},
	{
		name: "serve-mixed", driver: "serve", corpus: "robot", n: 200_000, nq: 8192, k: 1, block: 128, single: 8,
		roundsPerSec: 38, probes: probeN,
		why: "same corpus and k behind rbc-server's defaults over HTTP, 88% query 10% insert 2% delete: the difference from batch-pruned is server + wal, reads beside writes",
	},
	{
		name: "cluster-tcp", driver: "cluster", corpus: "robot", n: 200_000, nq: 8192, k: 1, block: 128, single: 8,
		roundsPerSec: 210, probes: probeN,
		why: "same corpus and k through a 2-shard cluster on loopback TCP: block throughput vs batch-pruned is planning + wire + merge, single-query latency is RTT-bound",
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns s shrunk to a toy size for the smoke test: n corpus rows,
// a matching query pool and an eighth of the gate probes; k, block and op
// mix stay.
func (s spec) scaled(n int) spec {
	s.n = n
	s.nq = 4 * s.block
	s.probes = probeN / 8
	return s
}

func (s spec) rounds(seconds int) int {
	return max(minRounds, int(math.Round(float64(seconds)*s.roundsPerSec)))
}

// world is a workload's inputs, all derived from (spec, corpusSeed, seed).
type world struct {
	spec       spec
	corpusSeed int64 // generates the corpus and samples the index's representatives
	seed       int64
	db         *vec.Dataset   // corpus; the program under test owns it from set-up on
	pool       *vec.Dataset   // held-out rows, never in the corpus
	blocks     []*vec.Dataset // pool rows in seeded order, cut into spec.block-row blocks
	singles    []int          // seeded pool row per single-query call, cycled
	probes     *vec.Dataset   // the correctness gate's query block: seeded pool rows
	genS       float64
}

// newWorld generates n+nq rows in one call and holds the last nq out, so
// queries come from the corpus's distribution without being in it. rounds
// is how many timed rounds the run plans; it bounds how many distinct
// blocks and single queries the world deals (repsPerInput). Every timed
// world's corpus comes from corpusSeed; the seeded gate's comes from -seed.
func newWorld(s spec, corpus, seed int64, rounds int) *world {
	start := time.Now()
	var all *vec.Dataset
	switch s.corpus {
	case "robot":
		all = dataset.Robot(s.n+s.nq, corpus)
	case "cube64":
		all = dataset.UniformCube(s.n+s.nq, 64, corpus)
	default:
		panic("unknown corpus " + s.corpus)
	}
	w := &world{spec: s, corpusSeed: corpus, seed: seed, genS: time.Since(start).Seconds()}
	cut := s.n * all.Dim
	// Full slice expression: an Insert into db reallocates rather than
	// growing over the pool.
	w.db = vec.FromFlat(all.Data[:cut:cut], all.Dim)
	w.pool = vec.FromFlat(all.Data[cut:], all.Dim)

	// Which rows form which block, and which rows are asked singly, is the
	// workload's (the corpus seed): bestPerInput takes a median over distinct
	// inputs, and a seed that drew its own 843 of 8192 single queries would
	// move that median by the draw, not by the machine. The seed deals the
	// order in which blocks and singles come round, and the probes.
	fixed := rand.New(rand.NewSource(corpus ^ 0x5eed))
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := fixed.Perm(s.nq)
	distinct := max(1, min(s.nq/s.block, rounds/repsPerInput))
	for _, b := range rng.Perm(distinct) {
		blk := vec.New(all.Dim, s.block)
		for _, r := range perm[b*s.block : (b+1)*s.block] {
			blk.Append(w.pool.Row(r))
		}
		w.blocks = append(w.blocks, blk)
	}
	w.singles = fixed.Perm(s.nq)[:max(1, min(s.nq, rounds*s.single/repsPerInput))]
	rng.Shuffle(len(w.singles), func(i, j int) { w.singles[i], w.singles[j] = w.singles[j], w.singles[i] })
	w.probes = vec.New(all.Dim, s.probes)
	for _, r := range rng.Perm(s.nq)[:s.probes] {
		w.probes.Append(w.pool.Row(r))
	}
	return w
}

// hash fingerprints everything the seed decides here — the blocks, the
// single-query order, the probes — on top of the corpus: the
// seed-determinism test compares it across runs.
func (w *world) hash() uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(fs []float32) {
		for _, f := range fs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
			h.Write(b[:])
		}
	}
	put(w.db.Data)
	for _, blk := range w.blocks {
		put(blk.Data)
	}
	put(w.probes.Data)
	for _, s := range w.singles {
		binary.LittleEndian.PutUint32(b[:], uint32(s))
		h.Write(b[:])
	}
	return h.Sum64()
}

// op is one pre-encoded HTTP request of the serve driver.
type op struct {
	path  string    // "/query", "/insert" or "/delete"
	body  []byte    // JSON, encoded before the clock starts
	point []float32 // /insert: the row, kept for the live-set check
	id    int       // /delete: the corpus id
}

// serveOps builds each client's op list: 88 % /query (k = spec.k; the
// first serveQueryRows pool rows, dealt from a seeded shuffle so every row
// is asked equally often: the cost of a query is heavy-tailed, and
// evals_per_query must not ride on which rows a seed happened to draw),
// 10 % /insert (rows from the back quarter of the pool, so no query is ever
// its own inserted neighbour), 2 % /delete (distinct corpus ids, disjoint
// between clients, so no delete can fail). Clients interleave freely at run
// time, but each list is fixed.
func (w *world) serveOps(perClient int) [serveClient][]op {
	rng := rand.New(rand.NewSource(w.seed ^ 0x0b5))
	nq := w.pool.N()
	qrows, irow := min(serveQueryRows, nq*3/4), nq*3/4
	deal, dealt := rng.Perm(qrows), 0
	victims := rng.Perm(w.spec.n)
	var out [serveClient][]op
	for c := range out {
		out[c] = make([]op, perClient)
		for i := range out[c] {
			switch u := rng.Float64(); {
			case u < 0.88:
				p := w.pool.Row(deal[dealt%qrows])
				dealt++
				out[c][i] = op{path: "/query", body: mustJSON(map[string]any{"point": p, "k": w.spec.k})}
			case u < 0.98:
				p := w.pool.Row(irow)
				if irow++; irow == nq {
					irow = nq * 3 / 4
				}
				out[c][i] = op{path: "/insert", body: mustJSON(map[string]any{"point": p}), point: p}
			default:
				id := victims[0]
				victims = victims[1:]
				out[c][i] = op{path: "/delete", body: mustJSON(map[string]int{"id": id}), id: id}
			}
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // float32 slices and ints always encode
	}
	return b
}

// opsHash fingerprints the op lists for the seed-determinism test.
func opsHash(ops [serveClient][]op) uint64 {
	h := fnv.New64a()
	for _, list := range ops {
		for _, o := range list {
			h.Write([]byte(o.path))
			h.Write(o.body)
		}
	}
	return h.Sum64()
}
