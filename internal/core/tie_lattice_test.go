package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/vec"
)

// Tie-rich lattice tests for Exact: per-query and batched searches must
// agree bit for bit — answers and work counters — and match the
// brute-force reference. Integer lattices are the adversarial case: rep
// distances land exactly on pruning thresholds (d == γ + ψ_r), window
// edges and the heap bound, so any rule, window or admission test that is
// off by one comparison would admit or drop tied candidates with
// different ids.

// tieGridDataset lays points on a small integer lattice with heavy
// duplication, so distances collide and every threshold comparison is a
// potential razor tie.
func tieGridDataset(rng *rand.Rand, n, dim, side int) *vec.Dataset {
	d := vec.New(dim, n)
	for i := 0; i < n; i++ {
		row := make([]float32, dim)
		for j := range row {
			row[j] = float32(rng.Intn(side))
		}
		d.Append(row)
	}
	return d
}

// TestTieLatticeKNNBitIdentity: k-NN on lattices, per-query ≡ batch ≡
// brute force, across the EarlyExit and ApproxEps variants.
func TestTieLatticeKNNBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := metric.Euclidean{}
	for _, tc := range []struct {
		name string
		prm  ExactParams
	}{
		{"default", ExactParams{Seed: 5}},
		{"earlyexit", ExactParams{Seed: 5, EarlyExit: true}},
		{"approx", ExactParams{Seed: 5, EarlyExit: true, ApproxEps: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range []struct{ n, dim, side int }{
				{300, 2, 4}, // dense collisions: most pairs tie
				{500, 3, 3},
				{400, 5, 2}, // hypercube corners only
			} {
				db := tieGridDataset(rng, shape.n, shape.dim, shape.side)
				e, err := BuildExact(db, m, tc.prm)
				if err != nil {
					t.Fatal(err)
				}
				// Queries sit on the same lattice (razor ties everywhere)
				// plus a few off-lattice perturbations.
				queries := tieGridDataset(rng, 24, shape.dim, shape.side)
				for i := 0; i < 8; i++ {
					row := make([]float32, shape.dim)
					copy(row, queries.Row(i))
					row[0] += 0.5
					queries.Append(row)
				}
				for _, k := range []int{1, 3, 7} {
					batch, bst := e.SearchK(queries, k)
					var sum Stats
					for i := 0; i < queries.N(); i++ {
						q := queries.Row(i)
						got, st := e.KNN(q, k)
						sum.Add(st)
						// Per-query vs batched (grouped) back half.
						if len(got) != len(batch[i]) {
							t.Fatalf("%v n=%d dim=%d k=%d q=%d: per-query %d results, batch %d",
								tc.prm, shape.n, shape.dim, k, i, len(got), len(batch[i]))
						}
						for j := range got {
							if got[j] != batch[i][j] {
								t.Fatalf("%v n=%d dim=%d k=%d q=%d pos=%d: per-query %+v, batch %+v (bit-for-bit)",
									tc.prm, shape.n, shape.dim, k, i, j, got[j], batch[i][j])
							}
						}
						// Exact variants vs the brute-force reference,
						// under the index's ordering-tie contract
						// (distances bit-true at every rank; ids may
						// permute within a tied distance — the ψ-prune is
						// allowed to drop a point that exactly ties γ_k).
						// The approx variant only guarantees (1+ε)
						// distances, so it is exercised for path parity
						// above but not pinned to the reference.
						if tc.prm.ApproxEps == 0 {
							want := bruteforce.SearchOneK(q, db, k, m, nil)
							seen := map[int]bool{}
							for j := range got {
								if got[j].Dist != want[j].Dist {
									t.Fatalf("n=%d dim=%d k=%d q=%d pos=%d: dist %v, want %v (bit-for-bit)",
										shape.n, shape.dim, k, i, j, got[j].Dist, want[j].Dist)
								}
								if seen[got[j].ID] {
									t.Fatalf("n=%d dim=%d k=%d q=%d: duplicate id %d",
										shape.n, shape.dim, k, i, got[j].ID)
								}
								seen[got[j].ID] = true
								if d := bruteforce.SearchOneK(q, db.Subset([]int{got[j].ID}), 1, m, nil)[0].Dist; d != got[j].Dist {
									t.Fatalf("n=%d dim=%d k=%d q=%d: id %d reported dist %v, true dist %v",
										shape.n, shape.dim, k, i, got[j].ID, got[j].Dist, d)
								}
							}
						}
					}
					// Work counters must agree between the paths too: the
					// exact-rescore fallback is uncounted on both, and the
					// certified decisions are the same decisions.
					if sum.RepsKept != bst.RepsKept || sum.PrunedPsi != bst.PrunedPsi ||
						sum.PrunedTriple != bst.PrunedTriple || sum.PointEvals != bst.PointEvals {
						t.Fatalf("n=%d dim=%d k=%d: per-query stats %+v, batch %+v",
							shape.n, shape.dim, k, sum, bst)
					}
				}
			}
		})
	}
}

// TestTieLatticeRange pins the range path the same way: per-query vs
// batched range search, and both against the brute-force reference.
func TestTieLatticeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	m := metric.Euclidean{}
	db := tieGridDataset(rng, 400, 3, 4)
	e, err := BuildExact(db, m, ExactParams{Seed: 6, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := tieGridDataset(rng, 16, 3, 4)
	// Integer eps values land exactly on lattice distances, exercising the
	// window-edge razor cases.
	for _, eps := range []float64{0, 1, 2, 1.5} {
		batch, _ := e.RangeBatch(queries, eps)
		for i := 0; i < queries.N(); i++ {
			q := queries.Row(i)
			got, _ := e.Range(q, eps)
			want := bruteforce.RangeSearch(q, db, eps, m, nil)
			if len(got) != len(want) || len(batch[i]) != len(want) {
				t.Fatalf("eps=%v q=%d: per-query %d, batch %d, want %d hits",
					eps, i, len(got), len(batch[i]), len(want))
			}
			for j := range want {
				if got[j] != want[j] || batch[i][j] != want[j] {
					t.Fatalf("eps=%v q=%d pos=%d: per-query %+v, batch %+v, want %+v (bit-for-bit)",
						eps, i, j, got[j], batch[i][j], want[j])
				}
			}
		}
	}
}

// TestTieLatticeMutatedPath drives the per-query back half with dynamic
// state (inserts + deletes), where buffer windows and live-γ selection
// come into play, and checks against brute force over the live set.
func TestTieLatticeMutatedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	m := metric.Euclidean{}
	db := tieGridDataset(rng, 300, 3, 3)
	e, err := BuildExact(db, m, ExactParams{Seed: 7, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		row := make([]float32, 3)
		for j := range row {
			row[j] = float32(rng.Intn(3))
		}
		e.Insert(row)
	}
	deleted := map[int]bool{}
	for i := 0; i < 30; i++ {
		id := rng.Intn(e.db.N())
		if !deleted[id] {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
			deleted[id] = true
		}
	}
	live := vec.New(3, e.db.N())
	var liveIDs []int
	for id := 0; id < e.db.N(); id++ {
		if !deleted[id] {
			live.Append(e.db.Row(id))
			liveIDs = append(liveIDs, id)
		}
	}
	liveSet := map[int]bool{}
	for _, id := range liveIDs {
		liveSet[id] = true
	}
	queries := tieGridDataset(rng, 16, 3, 3)
	for _, k := range []int{1, 4} {
		for i := 0; i < queries.N(); i++ {
			q := queries.Row(i)
			got, _ := e.KNN(q, k)
			want := bruteforce.SearchOneK(q, live, k, m, nil)
			if len(got) != len(want) {
				t.Fatalf("k=%d q=%d: %d results, want %d", k, i, len(got), len(want))
			}
			// Distances bit-true at every rank; ids under the ordering-tie
			// contract, but always live, distinct, and dist-consistent.
			seen := map[int]bool{}
			for j := range want {
				if got[j].Dist != want[j].Dist {
					t.Fatalf("k=%d q=%d pos=%d: dist %v, want %v (bit-for-bit)",
						k, i, j, got[j].Dist, want[j].Dist)
				}
				if !liveSet[got[j].ID] || seen[got[j].ID] {
					t.Fatalf("k=%d q=%d: id %d deleted or duplicated", k, i, got[j].ID)
				}
				seen[got[j].ID] = true
				if d := bruteforce.SearchOneK(q, e.db.Subset([]int{got[j].ID}), 1, m, nil)[0].Dist; d != got[j].Dist {
					t.Fatalf("k=%d q=%d: id %d reported dist %v, true dist %v",
						k, i, got[j].ID, got[j].Dist, d)
				}
			}
		}
	}
}

// TestTieLatticeOneShotCertifyAgreesWithOne: on lattices several
// representatives often sit at exactly the nearest distance. Certify must
// witness the list One scans, so both must resolve that tie the same way
// — to the lowest representative index. Checked against the spec computed
// independently: r is the lowest index at the minimum distance, One
// returns the (dist, id)-least member of r's list, and Certify reports
// ρ(q,r) ≤ ψ_r/2.
func TestTieLatticeOneShotCertifyAgreesWithOne(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	m := metric.Euclidean{}
	ties, certified := 0, 0
	for _, shape := range []struct{ n, dim, side int }{
		{300, 2, 4},
		{500, 3, 3},
		{400, 5, 2},
	} {
		db := tieGridDataset(rng, shape.n, shape.dim, shape.side)
		o, err := BuildOneShot(db, m, OneShotParams{NumReps: 40, S: 30, Seed: 6, ExactCount: true})
		if err != nil {
			t.Fatal(err)
		}
		queries := tieGridDataset(rng, 60, shape.dim, shape.side)
		for i := 0; i < queries.N(); i++ {
			q := queries.Row(i)
			r, rd, atMin := -1, math.Inf(1), 0
			for j, id := range o.RepIDs() {
				switch d := m.Distance(q, db.Row(id)); {
				case d < rd:
					r, rd, atMin = j, d, 1
				case d == rd:
					atMin++
				}
			}
			if atMin > 1 {
				ties++
			}
			want := Result{ID: -1, Dist: math.Inf(1)}
			for _, id := range o.ids[r*o.S() : (r+1)*o.S()] {
				d := m.Distance(q, db.Row(int(id)))
				if d < want.Dist || (d == want.Dist && int(id) < want.ID) {
					want = Result{ID: int(id), Dist: d}
				}
			}
			if got, _ := o.One(q); got != want {
				t.Fatalf("n=%d dim=%d query %d: One %+v, best of list %d %+v", shape.n, shape.dim, i, got, r, want)
			}
			cert := rd <= o.Radii()[r]/2
			if got := o.Certify(q); got != cert {
				t.Fatalf("n=%d dim=%d query %d: Certify %v, want %v for representative %d (ρ=%v, ψ=%v)",
					shape.n, shape.dim, i, got, cert, r, rd, o.Radii()[r])
			}
			if cert {
				certified++
			}
		}
	}
	if ties == 0 || certified == 0 {
		t.Fatalf("vacuous lattice: %d tied probes, %d certified queries", ties, certified)
	}
}
