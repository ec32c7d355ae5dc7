// Command rbc-query builds, saves, loads and queries RBC indexes over
// datasets produced by rbc-datagen (or any RBCV/CSV file).
//
// Build and save an index:
//
//	rbc-query -data robot.rbcv -mode exact -save robot.idx
//
// Query (loads the index if -load is given, otherwise builds in memory):
//
//	rbc-query -data robot.rbcv -load robot.idx -q "0.1,0.2,..." -k 5
//	rbc-query -data robot.rbcv -mode oneshot -queries probes.csv -k 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	rbc "repro"
	"repro/internal/core"
	"repro/internal/vec"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset file (RBCV binary or CSV; required)")
		mode      = flag.String("mode", "exact", "index type: exact or oneshot")
		numReps   = flag.Int("reps", 0, "number of representatives (0 = sqrt(n))")
		sParam    = flag.Int("s", 0, "one-shot ownership list size (0 = reps)")
		seed      = flag.Int64("seed", 1, "random seed for representative sampling")
		savePath  = flag.String("save", "", "save the built index to this file and exit")
		loadPath  = flag.String("load", "", "load a previously saved index")
		queryStr  = flag.String("q", "", "single query: comma-separated floats")
		queryFile = flag.String("queries", "", "CSV file of queries, one per line")
		k         = flag.Int("k", 1, "number of neighbors to return")
	)
	flag.Parse()

	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "rbc-query: -data is required")
		os.Exit(2)
	}
	db, err := loadDataset(*dataPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbc-query: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dataset: %d points x %d dims\n", db.N(), db.Dim)

	searcher, err := buildOrLoad(db, *mode, *numReps, *sParam, *seed, *loadPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbc-query: %v\n", err)
		os.Exit(1)
	}
	if *savePath != "" {
		if err := saveIndex(searcher, *savePath); err != nil {
			fmt.Fprintf(os.Stderr, "rbc-query: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("index saved to %s\n", *savePath)
		return
	}

	queries, err := collectQueries(*queryStr, *queryFile, db.Dim)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbc-query: %v\n", err)
		os.Exit(2)
	}
	if queries.N() == 0 {
		fmt.Fprintln(os.Stderr, "rbc-query: provide -q or -queries (or -save)")
		os.Exit(2)
	}
	start := time.Now()
	for i := 0; i < queries.N(); i++ {
		nbs, st := searcher.KNN(queries.Row(i), *k)
		fmt.Printf("query %d: ", i)
		for j, nb := range nbs {
			if j > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("#%d (d=%.4f)", nb.ID, nb.Dist)
		}
		fmt.Printf("  [%d distance evals]\n", st.TotalEvals())
	}
	elapsed := time.Since(start)
	fmt.Printf("%d queries in %v (%.0f queries/sec)\n",
		queries.N(), elapsed, float64(queries.N())/elapsed.Seconds())
}

// searcher is the common surface of the two index types.
type searcher interface {
	KNN(q []float32, k int) ([]struct {
		ID   int
		Dist float64
	}, core.Stats)
}

// The internal KNN signatures return par.Neighbor; adapt via small
// wrappers so the CLI stays independent of internal types.
type exactSearcher struct{ idx *rbc.Exact }

func (s exactSearcher) KNN(q []float32, k int) ([]struct {
	ID   int
	Dist float64
}, core.Stats) {
	nbs, st := s.idx.KNN(q, k)
	out := make([]struct {
		ID   int
		Dist float64
	}, len(nbs))
	for i, nb := range nbs {
		out[i].ID, out[i].Dist = nb.ID, nb.Dist
	}
	return out, st
}

type oneShotSearcher struct{ idx *rbc.OneShot }

func (s oneShotSearcher) KNN(q []float32, k int) ([]struct {
	ID   int
	Dist float64
}, core.Stats) {
	nbs, st := s.idx.KNN(q, k)
	out := make([]struct {
		ID   int
		Dist float64
	}, len(nbs))
	for i, nb := range nbs {
		out[i].ID, out[i].Dist = nb.ID, nb.Dist
	}
	return out, st
}

func buildOrLoad(db *vec.Dataset, mode string, reps, s int, seed int64, loadPath string) (searcher, error) {
	m := rbc.Euclidean()
	switch mode {
	case "exact":
		if loadPath != "" {
			f, err := os.Open(loadPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			idx, err := rbc.LoadExact(f, db, m)
			if err != nil {
				return nil, err
			}
			return exactSearcher{idx}, nil
		}
		start := time.Now()
		idx, err := rbc.BuildExact(db, m, rbc.ExactParams{NumReps: reps, Seed: seed})
		if err != nil {
			return nil, err
		}
		fmt.Printf("built exact index: %d representatives in %v\n", idx.NumReps(), time.Since(start))
		return exactSearcher{idx}, nil
	case "oneshot":
		if loadPath != "" {
			f, err := os.Open(loadPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			idx, err := rbc.LoadOneShot(f, db, m)
			if err != nil {
				return nil, err
			}
			return oneShotSearcher{idx}, nil
		}
		start := time.Now()
		idx, err := rbc.BuildOneShot(db, m, rbc.OneShotParams{NumReps: reps, S: s, Seed: seed})
		if err != nil {
			return nil, err
		}
		fmt.Printf("built one-shot index: %d representatives, s=%d in %v\n",
			idx.NumReps(), idx.S(), time.Since(start))
		return oneShotSearcher{idx}, nil
	default:
		return nil, fmt.Errorf("unknown mode %q (want exact or oneshot)", mode)
	}
}

func saveIndex(s searcher, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch v := s.(type) {
	case exactSearcher:
		return v.idx.Save(f)
	case oneShotSearcher:
		return v.idx.Save(f)
	}
	return fmt.Errorf("unknown index type")
}

func loadDataset(path string) (*vec.Dataset, error) {
	if strings.HasSuffix(path, ".csv") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return vec.ReadCSV(f)
	}
	return vec.LoadFile(path)
}

func collectQueries(queryStr, queryFile string, dim int) (*vec.Dataset, error) {
	queries := vec.New(dim, 4)
	if queryStr != "" {
		fields := strings.Split(queryStr, ",")
		if len(fields) != dim {
			return nil, fmt.Errorf("query has %d values, dataset dim is %d", len(fields), dim)
		}
		row := make([]float32, dim)
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 32)
			if err != nil {
				return nil, fmt.Errorf("query value %d: %w", i+1, err)
			}
			row[i] = float32(v)
		}
		queries.Append(row)
	}
	if queryFile != "" {
		f, err := os.Open(queryFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		qs, err := vec.ReadCSV(f)
		if err != nil {
			return nil, err
		}
		if qs.N() > 0 && qs.Dim != dim {
			return nil, fmt.Errorf("queries have dim %d, dataset dim is %d", qs.Dim, dim)
		}
		for i := 0; i < qs.N(); i++ {
			queries.Append(qs.Row(i))
		}
	}
	return queries, nil
}
