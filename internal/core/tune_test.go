package core

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/metric"
	"repro/internal/vec"
)

func TestAutoTuneExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	all := clusteredDataset(rng, 2100, 5, 10)
	db := all.Subset(seqInts(0, 2000))
	probes := all.Subset(seqInts(2000, 2100))
	m := metric.Euclidean{}
	res, err := AutoTuneExact(db, m, probes, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReps < 1 || res.NumReps > db.N() {
		t.Fatalf("selected nr=%d", res.NumReps)
	}
	if len(res.Curve) < 4 {
		t.Fatalf("curve too short: %v", res.Curve)
	}
	// The winner must be the curve's minimum.
	for _, p := range res.Curve {
		if p.EvalsPerQuery < res.EvalsPerQuery {
			t.Fatalf("curve point %v beats selected %v", p, res.EvalsPerQuery)
		}
	}
	// And it must beat brute force on clustered data.
	if res.EvalsPerQuery >= float64(db.N()) {
		t.Fatalf("tuned setting does no better than brute force: %v", res.EvalsPerQuery)
	}
	// The tuned index must still be exact.
	idx, err := BuildExact(db, m, ExactParams{NumReps: res.NumReps, Seed: 7, ExactCount: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, _ := idx.KNN(probes.Row(i), 1)
		want := bruteforce.SearchOne(probes.Row(i), db, m, nil)
		if got[0].Dist != want.Dist {
			t.Fatalf("tuned index inexact at probe %d", i)
		}
	}
}

func TestAutoTuneExactErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomDataset(rng, 100, 3)
	m := metric.Euclidean{}
	if _, err := AutoTuneExact(db, m, nil, 1); err == nil {
		t.Fatal("nil probes should error")
	}
	var empty vec.Dataset
	empty.Dim = 3
	if _, err := AutoTuneExact(db, m, &empty, 1); err == nil {
		t.Fatal("empty probes should error")
	}
	wrong := randomDataset(rng, 5, 4)
	if _, err := AutoTuneExact(db, m, wrong, 1); err == nil {
		t.Fatal("dim mismatch should error")
	}
}

func TestAutoTuneOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := clusteredDataset(rng, 1600, 4, 8)
	db := all.Subset(seqInts(0, 1500))
	probes := all.Subset(seqInts(1500, 1600))
	m := metric.Euclidean{}
	res, err := AutoTuneOneShot(db, m, probes, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReps < 1 {
		t.Fatalf("selected nr=%d", res.NumReps)
	}
	// Verify the selected setting actually achieves ~the target.
	idx, err := BuildOneShot(db, m, OneShotParams{
		NumReps: res.NumReps, S: res.NumReps, Seed: 5, ExactCount: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := idx.KNNBatch(probes, 1)
	want := bruteforce.Search(probes, db, m, nil)
	correct := 0
	for i := range got {
		if got[i][0].Dist == want[i].Dist {
			correct++
		}
	}
	if recall := float64(correct) / float64(len(got)); recall < 0.8 {
		t.Fatalf("tuned one-shot recall %.2f well below target", recall)
	}
}

func TestAutoTuneOneShotErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := randomDataset(rng, 100, 3)
	probes := randomDataset(rng, 10, 3)
	m := metric.Euclidean{}
	if _, err := AutoTuneOneShot(db, m, nil, 0.9, 1); err == nil {
		t.Fatal("nil probes should error")
	}
	if _, err := AutoTuneOneShot(db, m, probes, 0, 1); err == nil {
		t.Fatal("recall 0 should error")
	}
	if _, err := AutoTuneOneShot(db, m, probes, 1.5, 1); err == nil {
		t.Fatal("recall >1 should error")
	}
}
