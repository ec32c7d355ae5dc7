package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/vec"
)

func TestBuildOneShotInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := clusteredDataset(rng, 600, 5, 8)
	m := metric.Euclidean{}
	o, err := BuildOneShot(db, m, OneShotParams{NumReps: 25, S: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o.S() != 40 {
		t.Fatalf("S=%d", o.S())
	}
	// Invariant: list j holds exactly the s nearest db points of rep j,
	// and ψ_r is the distance to the s-th.
	for j := 0; j < o.NumReps(); j++ {
		rep := db.Row(o.repIDs[j])
		want := bruteforce.SearchOneK(rep, db, 40, m, nil)
		for i := 0; i < 40; i++ {
			if int(o.ids[j*40+i]) != want[i].ID {
				t.Fatalf("rep %d pos %d: id %d, want %d", j, i, o.ids[j*40+i], want[i].ID)
			}
		}
		if o.radii[j] != want[39].Dist {
			t.Fatalf("rep %d: radius %v, want %v", j, o.radii[j], want[39].Dist)
		}
	}
}

func TestOneShotDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomDataset(rng, 400, 4)
	o, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{})
	if err != nil {
		t.Fatal(err)
	}
	// Default: nr ≈ √400 = 20, s = NumReps requested (20).
	if o.S() != 20 {
		t.Fatalf("default S=%d, want 20", o.S())
	}
}

func TestOneShotErrors(t *testing.T) {
	var empty vec.Dataset
	if _, err := BuildOneShot(&empty, metric.Euclidean{}, OneShotParams{}); err == nil {
		t.Fatal("empty db should error")
	}
}

func TestOneShotAnswersAreRealPoints(t *testing.T) {
	// One-shot may be inexact but must always return a genuine database
	// point with a correctly computed distance.
	rng := rand.New(rand.NewSource(3))
	db := clusteredDataset(rng, 800, 6, 8)
	m := metric.Euclidean{}
	o, err := BuildOneShot(db, m, OneShotParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomDataset(rng, 50, 6)
	res, st := o.KNNBatch(queries, 1)
	for i, nbs := range res {
		r := nbs[0]
		if r.ID < 0 || r.ID >= db.N() {
			t.Fatalf("query %d: id %d out of range", i, r.ID)
		}
		if got := m.Distance(queries.Row(i), db.Row(r.ID)); math.Abs(got-r.Dist) > 1e-9 {
			t.Fatalf("query %d: reported dist %v, actual %v", i, r.Dist, got)
		}
	}
	if st.RepEvals != int64(queries.N()*o.NumReps()) {
		t.Fatalf("RepEvals=%d", st.RepEvals)
	}
	wantPointEvals := int64(queries.N() * o.S())
	if st.PointEvals != wantPointEvals {
		t.Fatalf("PointEvals=%d, want %d (one list per query)", st.PointEvals, wantPointEvals)
	}
}

func TestOneShotHighRecallAtTheoremSetting(t *testing.T) {
	// With n_r = s = √(n ln(1/δ))·c and queries from the data distribution
	// the one-shot answer should be exact for the vast majority of
	// queries. We use a modest clustered set and check recall ≥ 0.9.
	rng := rand.New(rand.NewSource(4))
	all := clusteredDataset(rng, 2100, 5, 10)
	db := all.Subset(seqInts(0, 2000))
	queries := all.Subset(seqInts(2000, 2100))
	m := metric.Euclidean{}
	nr := int(3 * math.Sqrt(2000)) // c·√(n·ln(1/δ)) with a small constant
	o, err := BuildOneShot(db, m, OneShotParams{NumReps: nr, S: nr, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteforce.Search(queries, db, m, nil)
	got, _ := o.KNNBatch(queries, 1)
	correct := 0
	for i := range got {
		if got[i][0].Dist == want[i].Dist {
			correct++
		}
	}
	if recall := float64(correct) / float64(len(got)); recall < 0.9 {
		t.Fatalf("recall %.2f below 0.9 at the theorem's parameter setting", recall)
	}
}

func TestOneShotCertify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all := clusteredDataset(rng, 1100, 4, 6)
	db := all.Subset(seqInts(0, 1000))
	queries := all.Subset(seqInts(1000, 1100))
	m := metric.Euclidean{}
	o, err := BuildOneShot(db, m, OneShotParams{NumReps: 90, S: 90, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteforce.Search(queries, db, m, nil)
	certified, certifiedCorrect := 0, 0
	for i := 0; i < queries.N(); i++ {
		if o.Certify(queries.Row(i)) {
			certified++
			got, _ := o.KNN(queries.Row(i), 1)
			if got[0].Dist == want[i].Dist {
				certifiedCorrect++
			}
		}
	}
	// The certificate is sound: every certified answer must be exact.
	if certified != certifiedCorrect {
		t.Fatalf("certificate unsound: %d certified, only %d correct", certified, certifiedCorrect)
	}
	if certified == 0 {
		t.Log("note: no queries certified at this parameter setting")
	}
}

func TestOneShotKNNZeroK(t *testing.T) {
	db := vec.FromRows([][]float32{{1}, {2}})
	o, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := o.KNN([]float32{0}, 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestOneShotSingleton(t *testing.T) {
	db := vec.FromRows([][]float32{{5, 5}})
	o, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := o.KNN([]float32{0, 0}, 1)
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestOneShotSGreaterThanN(t *testing.T) {
	// s > n must clamp: lists then hold the whole database and one-shot
	// becomes exact.
	rng := rand.New(rand.NewSource(8))
	db := randomDataset(rng, 60, 3)
	m := metric.Euclidean{}
	o, err := BuildOneShot(db, m, OneShotParams{NumReps: 5, S: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.S() != 60 {
		t.Fatalf("S=%d, want clamp to 60", o.S())
	}
	queries := randomDataset(rng, 20, 3)
	want := bruteforce.Search(queries, db, m, nil)
	got, _ := o.KNNBatch(queries, 1)
	for i := range got {
		if got[i][0].Dist != want[i].Dist {
			t.Fatalf("query %d should be exact when s=n", i)
		}
	}
}

func TestOneShotDimMismatchPanics(t *testing.T) {
	db := vec.FromRows([][]float32{{1, 2}, {3, 4}})
	o, err := BuildOneShot(db, metric.Euclidean{}, OneShotParams{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	o.KNNBatch(vec.FromRows([][]float32{{1}}), 1)
}

// Property: one-shot with s=n is exact, because the one scanned list then
// covers the whole database.
func TestQuickOneShotFullProbeExact(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 80
		db := randomDataset(rng, n, 2)
		o, err := BuildOneShot(db, m, OneShotParams{NumReps: 8, S: n, Seed: seed})
		if err != nil {
			return false
		}
		q := randomDataset(rng, 1, 2).Row(0)
		got, _ := o.KNN(q, 1)
		want := bruteforce.SearchOne(q, db, m, nil)
		return got[0].Dist == want.Dist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the one-shot answer can never beat the true NN and is always a
// valid distance (the returned distance is achievable).
func TestQuickOneShotNeverBeatsTruth(t *testing.T) {
	m := metric.Euclidean{}
	f := func(seed int64, nrRaw, sRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 120
		nr := int(nrRaw)%30 + 1
		s := int(sRaw)%50 + 1
		db := randomDataset(rng, n, 3)
		o, err := BuildOneShot(db, m, OneShotParams{NumReps: nr, S: s, Seed: seed})
		if err != nil {
			return false
		}
		q := randomDataset(rng, 1, 3).Row(0)
		got, _ := o.KNN(q, 1)
		want := bruteforce.SearchOne(q, db, m, nil)
		if got[0].Dist < want.Dist {
			return false // impossible: claims better than the true NN
		}
		return math.Abs(m.Distance(q, db.Row(got[0].ID))-got[0].Dist) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
