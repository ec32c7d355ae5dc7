//lint:file-ignore SA1019 this file pins that the deprecated ExactParams.EarlyExit is ignored

package core

import (
	"math/rand"
	"testing"

	"repro/internal/metric"
)

// The deprecated ExactParams.EarlyExit is ignored: indexes built with it
// off and on answer alike and count the same work.
func TestEarlyExitFieldIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := clusteredDataset(rng, 900, 5, 8)
	m := metric.Euclidean{}
	off, err := BuildExact(db, m, ExactParams{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	on, err := BuildExact(db, m, ExactParams{Seed: 43, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearches(t, "EarlyExit off vs on", off, on, clusteredDataset(rng, 40, 5, 8))
}
