// Editdistance: the RBC over a non-vector metric space — strings under
// Levenshtein distance. §6 of the paper emphasizes that the expansion
// rate (and hence the RBC) "is defined for arbitrary metric spaces, so
// makes sense for the edit distance on strings"; this example makes that
// concrete with a fuzzy-matching dictionary, comparing the generic exact
// RBC against brute force.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
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

func main() {
	rng := rand.New(rand.NewSource(11))
	// Build a synthetic dictionary: root words plus morphological
	// variants, which is what gives real dictionaries their low intrinsic
	// dimension under edit distance — variants cluster tightly around
	// their roots while unrelated roots sit far apart.
	const roots = 300
	var words []string
	seen := map[string]bool{}
	for r := 0; r < roots; r++ {
		l := rng.Intn(8) + 6
		root := make([]byte, l)
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

	// Edit-distance values are small integers, so the radius bound needs
	// enough representatives to land one near each morphological cluster;
	// n_r ≈ 3·roots keeps γ at 1-2 edits and makes pruning bite.
	m := metric.Metric[string](metric.Edit{})
	idx, err := core.BuildGenericExact(words, m, core.ExactParams{
		NumReps: 3 * roots, Seed: 5, ExactCount: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generic exact RBC: %d representatives\n", idx.NumReps())

	// Fuzzy lookups: misspellings of dictionary words.
	const nQueries = 300
	queries := make([]string, nQueries)
	for i := range queries {
		queries[i] = mutate(rng, words[rng.Intn(len(words))], 1+rng.Intn(2))
	}

	// 1-NN lookups (KNN at k = 1), in parallel like the brute force below.
	start := time.Now()
	res := make([][]par.Neighbor, nQueries)
	perQuery := make([]core.Stats, nQueries)
	par.ForEach(nQueries, 1, func(i int) {
		res[i], perQuery[i] = idx.KNN(queries[i], 1)
	})
	rbcTime := time.Since(start)
	var st core.Stats
	for _, s := range perQuery {
		st.Add(s)
	}

	start = time.Now()
	want := bruteforce.SearchGeneric(queries, words, m, nil)
	bruteTime := time.Since(start)

	mismatches := 0
	for i := range res {
		if res[i][0].Dist != want[i].Dist {
			mismatches++
		}
	}
	fmt.Printf("correctness: %d/%d mismatches vs brute force (expect 0)\n", mismatches, nQueries)
	fmt.Printf("work: %.0f evals/query vs %d for brute force (%.1fx reduction)\n",
		float64(st.TotalEvals())/nQueries, len(words),
		float64(len(words))*nQueries/float64(st.TotalEvals()))
	fmt.Printf("time: rbc %v, brute %v (%.1fx)\n", rbcTime, bruteTime,
		bruteTime.Seconds()/rbcTime.Seconds())

	// Show a few corrections.
	fmt.Println("\nsample corrections:")
	for i := 0; i < 5; i++ {
		fmt.Printf("  %-14q -> %-14q (distance %.0f)\n",
			queries[i], words[res[i][0].ID], res[i][0].Dist)
	}
}
