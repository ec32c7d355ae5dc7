// Command rbc-datagen materializes the synthetic benchmark workloads
// (Table 1 equivalents; internal/dataset's package comment gives the
// substitution rationale)
// as binary or CSV files consumable by rbc-query and by external tools.
//
// Usage:
//
//	rbc-datagen -name robot -n 50000 -out robot.rbcv
//	rbc-datagen -name tiny16 -scale 0.001 -format csv -out tiny16.csv
//	rbc-datagen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/vec"
)

func main() {
	var (
		name     = flag.String("name", "", "workload name (see -list)")
		n        = flag.Int("n", 0, "number of points (overrides -scale)")
		scale    = flag.Float64("scale", 0.01, "fraction of the paper's size")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("out", "", "output file (required)")
		format   = flag.String("format", "bin", "output format: bin or csv")
		listOnly = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *listOnly {
		fmt.Printf("%-8s %10s %5s\n", "name", "paper n", "dim")
		for _, e := range dataset.Catalog() {
			fmt.Printf("%-8s %10d %5d\n", e.Name, e.PaperN, e.Dim)
		}
		return
	}
	if *name == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "rbc-datagen: -name and -out are required (try -list)")
		os.Exit(2)
	}
	entry, err := dataset.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbc-datagen: %v\n", err)
		os.Exit(2)
	}
	count := *n
	if count <= 0 {
		count = entry.ScaledN(*scale)
	}
	fmt.Printf("generating %s: n=%d dim=%d seed=%d\n", entry.Name, count, entry.Dim, *seed)
	db := entry.Generate(count, *seed)
	if err := writeDataset(db, *out, *format); err != nil {
		fmt.Fprintf(os.Stderr, "rbc-datagen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d points x %d dims)\n", *out, db.N(), db.Dim)
}

func writeDataset(db *vec.Dataset, path, format string) error {
	switch format {
	case "bin":
		return db.SaveFile(path)
	case "csv":
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := db.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	default:
		return fmt.Errorf("unknown format %q (want bin or csv)", format)
	}
}
