package search

import (
	"fmt"
	"testing"

	"repro/internal/vec"
)

// ForEachEquivalenceInput runs fn as a subtest on every entry of the
// equivalence corpus, so suites outside this package (the public facade)
// are held to the same tie-rich inputs.
func ForEachEquivalenceInput(t *testing.T, fn func(t *testing.T, db, queries *vec.Dataset, k int)) {
	for _, c := range equivalenceCorpus {
		c := c
		t.Run(fmt.Sprintf("seed=%d/dim=%d/n=%d/k=%d", c.seed, c.dimSel, c.nSel, c.kSel), func(t *testing.T) {
			db, queries, k := equivalenceInputs(c.seed, c.dimSel, c.nSel, c.kSel)
			fn(t, db, queries, k)
		})
	}
}
