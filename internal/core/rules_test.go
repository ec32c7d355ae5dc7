package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/par"
)

// convertFirstDecide is the phase-1 step as it was written before
// pruner.decide, kept here as its specification: every ordering converted
// to a distance first, γ_k selected among the live distances, seeds
// chosen by distance, the home as the first smallest distance, and both
// rules applied to distances. γ_1 is the smallest distance over every
// representative, tombstoned ones included — the home's distance — or,
// with liveGamma1, over the live ones only, as before tombstoned
// representatives counted.
func convertFirstDecide(p *pruner, ords []float64, k int, h *par.KHeap, st *Stats,
	probe func(home int, d float64), keep func(j int, d, w float64), liveGamma1 bool) float64 {
	d := make([]float64, len(ords))
	var live []float64
	for j, o := range ords {
		d[j] = p.ker.ToDistance(o)
		if p.live(j) {
			live = append(live, d[j])
		}
	}
	home, gamma1 := par.ArgMin(d)
	if liveGamma1 {
		gamma1 = math.Inf(1)
		for _, v := range live {
			gamma1 = min(gamma1, v)
		}
	}
	gammaK := math.Inf(1)
	if k <= len(live) {
		sel := par.NewKHeap(k)
		for i, v := range live {
			sel.Push(i, v)
		}
		gammaK, _ = sel.Worst()
	}
	for j := range d {
		if d[j] > gammaK || !p.live(j) {
			continue
		}
		h.Push(p.repIDs[j], ords[j])
	}
	if probe != nil {
		probe(home, d[home])
		if worst, full := h.Worst(); full {
			gammaK = min(gammaK, p.ker.ToDistance(worst))
		}
	}
	w := relaxedGamma(gammaK, p.approxEps)
	triple := tripleRule(gamma1, gammaK)
	for j := range d {
		if p.psi && psiRule(w, p.radii[j]).holds(d[j]) {
			st.PrunedPsi++
			continue
		}
		if p.triple && triple.holds(d[j]) {
			st.PrunedTriple++
			continue
		}
		st.RepsKept++
		keep(j, d[j], w)
	}
	return w
}

// decision is everything one phase-1 step decides.
type decision struct {
	Home   int
	Gamma1 float64
	Seeded []par.Neighbor // the heap as the probe found it
	Final  []par.Neighbor // the heap after the probe
	Kept   [][3]float64   // (j, ρ(q,r_j), w) per survivor
	W      float64
	Stats  Stats
}

func runDecision(p *pruner, ords []float64, k int, withProbe bool,
	run func(*pruner, []float64, int, *par.KHeap, *Stats, func(int, float64), func(int, float64, float64)) float64) decision {
	var out decision
	out.Home = -1
	h := par.NewKHeap(k)
	var probe func(int, float64)
	if withProbe {
		// A deterministic stand-in for the home-list scan: candidates
		// around the home's own ordering, so γ_k can tighten.
		probe = func(home int, d float64) {
			out.Home, out.Gamma1, out.Seeded = home, d, h.Results()
			for t, f := range []float64{0.5, 1, 1.5} {
				h.Push(1_000_000+t, ords[home]*f)
			}
		}
	}
	out.W = run(p, ords, k, h, &out.Stats, probe, func(j int, d, w float64) {
		out.Kept = append(out.Kept, [3]float64{float64(j), d, w})
	})
	out.Final = h.Results()
	return out
}

// TestDecideMatchesConvertFirst holds pruner.decide to the convert-first
// specification on synthetic phase-1 rows built to sit on its edges:
// exact ties, orderings one or two ulps apart (which a correctly rounded
// sqrt may merge into one distance, ahead of or behind the smallest
// ordering), radii that put ρ(q,r) on a rule's threshold, k at and past
// the number of representatives, and tombstones up to all but one
// representative — under the squared (Euclidean), identity (Manhattan)
// and math.Pow (Minkowski) orderings. Home, γ_1, γ_k (the window
// half-width without a probe), the seeded and probed heaps, the kept
// survivors with their distances and every counter must be equal.
func TestDecideMatchesConvertFirst(t *testing.T) {
	kernels := []*metric.Kernel{
		metric.NewKernel(metric.Euclidean{}),
		metric.NewKernel(metric.Manhattan{}),
		metric.NewKernel(metric.NewMinkowski(3)),
	}
	legacy := func(p *pruner, ords []float64, k int, h *par.KHeap, st *Stats, probe func(int, float64), keep func(int, float64, float64)) float64 {
		return convertFirstDecide(p, ords, k, h, st, probe, keep, false)
	}
	rng := rand.New(rand.NewSource(64))
	for c := 0; c < 3000; c++ {
		ker := kernels[c%len(kernels)]
		nr := []int{1, 2, 3, 7, 40}[rng.Intn(5)]
		ords := syntheticRow(rng, nr)
		k := []int{1, 1, 2, 3, nr, nr + 2}[rng.Intn(6)]
		repIDs := rng.Perm(4 * nr)[:nr]
		radii := make([]float64, nr)
		kth := ker.ToDistance(ords[rng.Intn(nr)])
		for j := range radii {
			switch rng.Intn(3) {
			case 0:
				radii[j] = rng.Float64() * ker.ToDistance(ords[j])
			case 1: // ρ(q,r) on or next to the ψ threshold
				radii[j] = math.Max(0, ker.ToDistance(ords[j])-kth)
				for range rng.Intn(3) {
					radii[j] = math.Nextafter(radii[j], math.Inf(2*rng.Intn(2)-1))
				}
			}
		}
		var deleted []bool
		switch rng.Intn(3) {
		case 1:
			deleted = make([]bool, 4*nr)
			for _, id := range repIDs {
				deleted[id] = rng.Intn(3) == 0
			}
		case 2: // all but one
			deleted = make([]bool, 4*nr)
			for _, id := range repIDs {
				deleted[id] = true
			}
			deleted[repIDs[rng.Intn(nr)]] = false
		}
		p := newPruner(ker, repIDs, radii, ExactParams{
			PrunePsi: rng.Intn(4) != 0, PruneTriple: rng.Intn(4) != 0, ApproxEps: []float64{0, 0, 0.5}[rng.Intn(3)],
		})
		if !p.psi && !p.triple {
			p.psi = true
		}
		p.deleted = deleted
		for _, withProbe := range []bool{false, true} {
			sc := par.GetScratch()
			got := runDecision(&p, ords, k, withProbe, func(p *pruner, ords []float64, k int, h *par.KHeap, st *Stats, probe func(int, float64), keep func(int, float64, float64)) float64 {
				return p.decide(ords, k, h, sc, st, probe, keep)
			})
			par.PutScratch(sc)
			want := runDecision(&p, ords, k, withProbe, legacy)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d (%s, nr=%d, k=%d, probe=%v, deleted=%v)\nords %v\nradii %v\ngot  %+v\nwant %+v",
					c, ker.Metric().Name(), nr, k, withProbe, deleted != nil, ords, radii, got, want)
			}
		}
	}
}

// syntheticRow draws nr phase-1 orderings rich in the cases decide must
// get right: exact ties, values an ulp or two apart (placed ahead of and
// behind each other) and values at three magnitudes.
func syntheticRow(rng *rand.Rand, nr int) []float64 {
	ords := make([]float64, nr)
	scale := []float64{1e-4, 1, 1e3}[rng.Intn(3)]
	for j := range ords {
		ords[j] = float64(rng.Intn(50)) / 8 * scale
		if rng.Intn(4) == 0 {
			ords[j] = rng.Float64() * scale
		}
	}
	for j := range ords {
		switch rng.Intn(4) {
		case 0: // an exact tie
			ords[j] = ords[rng.Intn(nr)]
		case 1: // one or two ulps from another value
			o := ords[rng.Intn(nr)]
			for range 1 + rng.Intn(2) {
				o = math.Nextafter(o, math.Inf(2*rng.Intn(2)-1))
			}
			ords[j] = math.Abs(o)
		}
	}
	return ords
}

// The ulp rows must actually produce distance ties the orderings do not
// have, or the test above would not reach decide's home correction.
func TestSyntheticRowsMergeUnderSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	merged := 0
	for c := 0; c < 300; c++ {
		ords := syntheticRow(rng, 40)
		seen := map[float64]float64{}
		for _, o := range ords {
			d := math.Sqrt(o)
			if prev, ok := seen[d]; ok && prev != o {
				merged++
			}
			seen[d] = o
		}
	}
	if merged == 0 {
		t.Fatal("no two distinct orderings share a distance")
	}
	t.Logf("%d orderings share a distance with a distinct one", merged)
}

// With most representatives tombstoned, γ_1 is taken over every
// representative: a tombstoned one still owns its list, so Lemma 1's
// bound holds at its distance. Answers must stay brute force's over the
// live rows, and RepsKept must equal the convert-first count at that γ_1,
// never exceed the count at the live-only γ_1, and fall below it on
// queries that sit on a tombstoned representative.
func TestTombstonedRepresentativesSetGamma1(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := clusteredDataset(rng, 3000, 3, 10)
	m := metric.Euclidean{}
	e, err := BuildExact(db, m, ExactParams{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 20, 3)
	for i, rid := range e.RepIDs() {
		if i%5 != 0 {
			if err := e.Delete(rid); err != nil {
				t.Fatal(err)
			}
			if queries.N() < 60 {
				queries.Append(db.Row(rid))
			}
		}
	}
	var liveIDs []int
	for id := 0; id < db.N(); id++ {
		if !e.isDeleted(id) {
			liveIDs = append(liveIDs, id)
		}
	}
	liveDB := db.Subset(liveIDs)
	keptAt := func(q []float32, k int, liveGamma1 bool) int64 {
		sc := par.GetScratch()
		defer par.PutScratch(sc)
		p := newPruner(e.ker, e.repIDs, e.radii, e.prm)
		p.deleted = e.mut.deleted
		h := sc.Heap(0, k)
		var st Stats
		probe := func(j int, d float64) {
			off := e.offsets[j]
			lo, hi := ProbeRun(e.dists[off:e.offsets[j+1]], d, HomeProbe*k)
			e.scanRun(q, off+lo, off+hi, h, sc.Float64(2, hi-lo))
		}
		convertFirstDecide(&p, e.phase1(q, nil, sc), k, h, &st, probe, func(int, float64, float64) {}, liveGamma1)
		return st.RepsKept
	}
	fewer := 0
	for _, k := range []int{1, 4} {
		var sum Stats
		for i := 0; i < queries.N(); i++ {
			q := queries.Row(i)
			got, st := e.KNN(q, k)
			sum.Add(st)
			want := bruteforce.SearchOneK(q, liveDB, k, m, nil)
			for r := range want {
				want[r].ID = liveIDs[want[r].ID]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d query %d: %v, brute force over live rows %v", k, i, got, want)
			}
			all, live := keptAt(q, k, false), keptAt(q, k, true)
			if st.RepsKept != all || st.RepsKept > live {
				t.Fatalf("k=%d query %d: RepsKept %d, want %d (live-only γ_1 keeps %d)", k, i, st.RepsKept, all, live)
			}
			if st.RepsKept < live {
				fewer++
			}
		}
		if _, bst := e.KNNBatch(queries, k); bst != sum {
			t.Fatalf("k=%d: KNNBatch stats %+v, per-query sum %+v", k, bst, sum)
		}
	}
	if fewer == 0 {
		t.Fatal("no query kept fewer representatives than at the live-only γ_1")
	}
	t.Logf("%d queries kept fewer representatives", fewer)
}

// squaredBound stands in for Euclidean's Kernel.OrderingBound inside
// decide's loop, so it must never fall below it — anywhere from zero and
// the subnormal squares through ordinary magnitudes to overflow.
func TestSquaredBoundCoversOrderingBound(t *testing.T) {
	ker := metric.NewKernel(metric.Euclidean{})
	ts := []float64{0, math.SmallestNonzeroFloat64, 1e-170, 0x1p-537, 0x1p-512, 0x1p-511, 1e-150,
		1, 2, 3, math.Sqrt2, math.Nextafter(2, 0), 1e150, math.Sqrt(math.MaxFloat64), 1e160, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(3))
	for range 200000 {
		ts = append(ts, math.Float64frombits(rng.Uint64()&^(1<<63)))
	}
	for _, v := range ts {
		if math.IsNaN(v) {
			continue
		}
		if got, want := squaredBound(v), ker.OrderingBound(v); !(got >= want) {
			t.Fatalf("squaredBound(%v) = %v, below OrderingBound %v", v, got, want)
		}
	}
}
