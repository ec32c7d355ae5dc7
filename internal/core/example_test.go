package core_test

import (
	"fmt"
	"math/rand"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
)

// mutate applies up to edits random single-character edits to s.
func mutate(rng *rand.Rand, s string, edits int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz"
	b := []byte(s)
	for e := 0; e < edits; e++ {
		if len(b) == 0 {
			b = append(b, alphabet[rng.Intn(26)])
			continue
		}
		switch rng.Intn(3) {
		case 0: // substitute
			b[rng.Intn(len(b))] = alphabet[rng.Intn(26)]
		case 1: // insert
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{alphabet[rng.Intn(26)]}, b[i:]...)...)
		case 2: // delete
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		}
	}
	return string(b)
}

// ExampleBuildGenericExact runs the exact RBC over a non-vector metric
// space: a fuzzy-matching dictionary of strings under Levenshtein
// distance. §6 of the paper notes that the expansion rate, and with it
// the RBC, "is defined for arbitrary metric spaces, so makes sense for
// the edit distance on strings".
func ExampleBuildGenericExact() {
	// Root words plus morphological variants. Variants cluster tightly
	// around their roots while unrelated roots sit far apart, which is
	// what gives a dictionary its low intrinsic dimension.
	rng := rand.New(rand.NewSource(11))
	const roots = 100
	var words []string
	seen := map[string]bool{}
	for r := 0; r < roots; r++ {
		root := make([]byte, rng.Intn(8)+6)
		for i := range root {
			root[i] = byte('a' + rng.Intn(26))
		}
		for v := 0; v < 25; v++ {
			w := mutate(rng, string(root), rng.Intn(3))
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	fmt.Printf("dictionary: %d words\n", len(words))

	// Edit distances are small integers, so the radius bound needs a
	// representative near each root's cluster; n_r = 3·roots keeps γ at
	// one or two edits and lets pruning bite.
	m := metric.Metric[string](metric.Edit{})
	idx, err := core.BuildGenericExact(words, m, core.ExactParams{
		NumReps: 3 * roots, Seed: 5, ExactCount: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("generic exact RBC: %d representatives\n", idx.NumReps())

	// Misspellings of dictionary words, looked up by 1-NN and checked
	// against brute force.
	const nQueries = 100
	queries := make([]string, nQueries)
	for i := range queries {
		queries[i] = mutate(rng, words[rng.Intn(len(words))], 1+rng.Intn(2))
	}
	want := bruteforce.SearchGeneric(queries, words, m, nil)
	var st core.Stats
	diverged := 0
	for i, q := range queries {
		nbs, s := idx.KNN(q, 1)
		st.Add(s)
		if nbs[0].Dist != want[i].Dist {
			diverged++
		}
		if i < 3 {
			fmt.Printf("  %q -> %q (distance %.0f)\n", q, words[nbs[0].ID], nbs[0].Dist)
		}
	}
	fmt.Printf("correctness: %d of %d lookups diverged from brute force\n", diverged, nQueries)
	fmt.Printf("work: %.0f evals/query against %d for brute force\n",
		float64(st.TotalEvals())/nQueries, len(words))
	// Output:
	// dictionary: 1670 words
	// generic exact RBC: 300 representatives
	//   "leutblivm" -> "leutblivmg" (distance 1)
	//   "ohhkbftchgqqny" -> "ohhkftchgqqny" (distance 1)
	//   "sxyordtyjet" -> "sxyorttyjep" (distance 2)
	// correctness: 0 of 100 lookups diverged from brute force
	// work: 328 evals/query against 1670 for brute force
}
