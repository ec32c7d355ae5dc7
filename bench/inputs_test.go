package main

import "testing"

func TestSeedDeterminism(t *testing.T) {
	for _, s := range specs {
		s = s.scaled(2000)
		a, b, c := newWorld(s, corpusSeed, 7, 320), newWorld(s, corpusSeed, 7, 320), newWorld(s, corpusSeed, 8, 320)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, different corpus or query order", s.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds, same corpus and query order", s.name)
		}
		if got, want := len(a.blocks), min(s.nq/s.block, 320/repsPerInput); got != want {
			t.Errorf("%s: %d distinct blocks, want %d", s.name, got, want)
		}
		oa, ob, oc := opsHash(a.serveOps(500)), opsHash(b.serveOps(500)), opsHash(c.serveOps(500))
		if oa != ob {
			t.Errorf("%s: same seed, different op list", s.name)
		}
		if oa == oc {
			t.Errorf("%s: different seeds, same op list", s.name)
		}
	}
}

func TestServeOpsCannotFail(t *testing.T) {
	s, _ := specByName("serve-mixed")
	w := newWorld(s.scaled(2000), corpusSeed, 7, minRounds)
	deleted := map[int]bool{}
	count := map[string]int{}
	for _, list := range w.serveOps(5000) {
		for _, o := range list {
			count[o.path]++
			if o.path == "/delete" {
				if deleted[o.id] || o.id < 0 || o.id >= w.spec.n {
					t.Fatalf("delete of id %d would fail", o.id)
				}
				deleted[o.id] = true
			}
		}
	}
	// 88 / 10 / 2 within sampling error of 10 000 draws.
	for path, want := range map[string]int{"/query": 8800, "/insert": 1000, "/delete": 200} {
		if got := count[path]; got < want*85/100 || got > want*115/100 {
			t.Errorf("%d %s ops of 10000, want about %d", got, path, want)
		}
	}
}

func TestRoundsFloor(t *testing.T) {
	for _, s := range specs {
		if got := s.rounds(1); got < minRounds {
			t.Errorf("%s: %d timed rounds at -seconds 1, floor is %d", s.name, got, minRounds)
		}
		if s.rounds(60) < s.rounds(15) {
			t.Errorf("%s: more seconds, fewer rounds", s.name)
		}
	}
}
