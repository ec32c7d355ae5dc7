package search

import (
	"testing"

	"repro/internal/vec"
)

// ForEachEquivalenceInput runs fn as a subtest on every entry of the
// equivalence corpus, so suites outside this package (the public facade)
// are held to the same tie-rich inputs.
func ForEachEquivalenceInput(t *testing.T, fn func(t *testing.T, db, queries *vec.Dataset, k int)) {
	for _, c := range equivalenceCorpus {
		c := c
		t.Run(equivalenceName(c.seed, c.dimSel, c.nSel, c.kSel, c.metricSel, c.stepSel), func(t *testing.T) {
			db, queries, k := equivalenceInputs(c.seed, c.dimSel, c.nSel, c.kSel, c.stepSel)
			fn(t, db, queries, k)
		})
	}
}
