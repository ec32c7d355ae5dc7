package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/metric"
)

func TestGenericExactKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := randomStrings(rng, 400, 10)
	m := metric.Metric[string](metric.Edit{})
	g, err := BuildGenericExact(db, m, ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := randomStrings(rng, 25, 10)
	for _, k := range []int{1, 4, 9} {
		for _, q := range queries {
			got, st := g.KNN(q, k)
			want := bruteforce.SearchOneKGeneric(q, db, k, m, nil)
			if len(got) != len(want) {
				t.Fatalf("k=%d %q: %d results want %d", k, q, len(got), len(want))
			}
			for j := range got {
				if got[j].Dist != want[j].Dist {
					t.Fatalf("k=%d %q pos=%d: %v want %v", k, q, j, got[j].Dist, want[j].Dist)
				}
			}
			if st.TotalEvals() == 0 {
				t.Fatal("no work recorded")
			}
		}
	}
}

func TestGenericExactRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomStrings(rng, 350, 9)
	m := metric.Metric[string](metric.Edit{})
	g, err := BuildGenericExact(db, m, ExactParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range randomStrings(rng, 15, 9) {
		for _, eps := range []float64{1, 3, 6} {
			got, _ := g.Range(q, eps)
			want := bruteforce.RangeSearchGeneric(q, db, eps, m, nil)
			if len(got) != len(want) {
				t.Fatalf("%q eps=%v: %d hits want %d", q, eps, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%q eps=%v pos=%d: %+v want %+v", q, eps, j, got[j], want[j])
				}
			}
		}
	}
}

func TestGenericOneShotKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomStrings(rng, 300, 8)
	m := metric.Metric[string](metric.Edit{})
	g, err := BuildGenericOneShot(db, m, OneShotParams{NumReps: 50, S: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, st := g.KNN(db[5], 5)
	if len(got) != 5 {
		t.Fatalf("knn: %v", got)
	}
	if got[0].Dist != 0 {
		t.Fatalf("self should be nearest: %v", got[0])
	}
	for j := 1; j < len(got); j++ {
		if got[j].Dist < got[j-1].Dist {
			t.Fatal("not sorted")
		}
	}
	if st.PointEvals == 0 {
		t.Fatal("no work recorded")
	}
	if res, _ := g.KNN(db[5], 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
	if res, _ := (&GenericExact[string]{}).KNN("x", 0); res != nil {
		t.Fatal("k=0 on exact should return nil")
	}
}

// Property: generic k-NN distance multisets match brute force for random
// k and dictionaries.
func TestQuickGenericKNN(t *testing.T) {
	m := metric.Metric[string](metric.Edit{})
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomStrings(rng, 100, 7)
		k := int(kRaw)%8 + 1
		g, err := BuildGenericExact(db, m, ExactParams{Seed: seed})
		if err != nil {
			return false
		}
		q := randomStrings(rng, 1, 7)[0]
		got, _ := g.KNN(q, k)
		want := bruteforce.SearchOneKGeneric(q, db, k, m, nil)
		if len(got) != len(want) {
			return false
		}
		for j := range got {
			if got[j].Dist != want[j].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
