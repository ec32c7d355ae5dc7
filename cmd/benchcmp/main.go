// Command benchcmp is the bench-regression gate behind the CI pipeline:
// it parses `go test -bench` output, compares it against a checked-in
// baseline (BENCH_baseline.json at the repository root), and fails when
// the geometric-mean slowdown across the common benchmarks exceeds a
// threshold — so a kernel or scan-path regression turns the build red
// instead of silently eroding the numbers the ROADMAP records.
//
// Usage:
//
//	go test -run '^$' -bench ... ./... | tee bench-new.txt
//	benchcmp -baseline BENCH_baseline.json -new bench-new.txt \
//	    -out bench-new.json -max-regress 1.15 \
//	    -assert-ratio 'BenchmarkRowKernelExactRef/dim=64;BenchmarkRowKernelExact/dim=64;2.0'
//
// Refresh the baseline (after an intentional perf change, on the pinned
// CI bench config) with:
//
//	benchcmp -update -new bench-new.txt -baseline BENCH_baseline.json
//
// With -count N runs, the fastest (minimum ns/op) sample per benchmark
// is used on both sides — robust against scheduler noise spikes, which
// only ever slow a run down. -assert-ratio (repeatable) asserts
// ns/op(first) / ns/op(second) >= min in the NEW numbers; it is how CI
// pins the AVX2 exact row kernel's >= 2x win over its scalar reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the checked-in benchmark snapshot: benchmark name (CPU
// suffix stripped) to ns/op.
type Baseline struct {
	// Note records the pinned configuration the numbers were taken on.
	Note       string             `json:"note"`
	Benchmarks map[string]float64 `json:"benchmarks"`
}

// benchLine matches a `go test -bench` result line, e.g.
// "BenchmarkRowKernelExact/dim=64-8   2000   67448 ns/op   3886 MB/s".
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench reads go test -bench output, keeping the minimum ns/op per
// benchmark across repeated (-count) runs.
func parseBench(data []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := out[m[1]]; !ok || ns < prev {
			out[m[1]] = ns
		}
	}
	return out
}

// ratioAssert is one -assert-ratio triple: ns/op(num)/ns/op(den) >= min.
type ratioAssert struct {
	num, den string
	min      float64
}

func main() {
	var (
		newPath    = flag.String("new", "", "go test -bench output to evaluate (required)")
		basePath   = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline JSON")
		outPath    = flag.String("out", "", "write the parsed new numbers as JSON (CI artifact)")
		maxRegress = flag.Float64("max-regress", 1.15, "fail when geomean(new/baseline) exceeds this")
		update     = flag.Bool("update", false, "rewrite the baseline from -new instead of comparing")
		note       = flag.String("note", "", "note stored in the baseline on -update")
	)
	var asserts []ratioAssert
	flag.Func("assert-ratio", "'NUM;DEN;MIN' — assert ns/op(NUM)/ns/op(DEN) >= MIN in the new numbers (repeatable)", func(s string) error {
		parts := strings.Split(s, ";")
		if len(parts) != 3 {
			return fmt.Errorf("want 'NUM;DEN;MIN', got %q", s)
		}
		min, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return fmt.Errorf("bad MIN in %q: %v", s, err)
		}
		asserts = append(asserts, ratioAssert{num: parts[0], den: parts[1], min: min})
		return nil
	})
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -new is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*newPath)
	if err != nil {
		fatal(err)
	}
	fresh := parseBench(data)
	if len(fresh) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *newPath))
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, Baseline{Note: *note, Benchmarks: fresh}); err != nil {
			fatal(err)
		}
	}
	if *update {
		if err := writeJSON(*basePath, Baseline{Note: *note, Benchmarks: fresh}); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcmp: baseline %s updated with %d benchmarks\n", *basePath, len(fresh))
		return
	}

	baseData, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(baseData, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *basePath, err))
	}
	geo, rows, missing, gone := compare(base.Benchmarks, fresh)
	for _, r := range rows {
		fmt.Println(r)
	}
	for _, name := range missing {
		fmt.Printf("benchcmp: note: %-52s not in baseline (new benchmark?)\n", name)
	}
	failed := false
	// A benchmark present in the baseline but absent from the new run
	// would silently shrink the gate (a renamed bench, regex drift or a
	// failing package removes itself from the geomean) — treat it as a
	// failure; prune intentionally-retired benchmarks with -update.
	for _, name := range gone {
		fmt.Fprintf(os.Stderr, "benchcmp: FAIL: baseline benchmark %q missing from the new run (renamed? regex drift? package failure?)\n", name)
		failed = true
	}
	if math.IsNaN(geo) {
		fmt.Fprintln(os.Stderr, "benchcmp: FAIL: no benchmarks in common with the baseline")
		failed = true
	} else {
		fmt.Printf("benchcmp: geomean new/baseline = %.3f (gate %.3f)\n", geo, *maxRegress)
		if geo > *maxRegress {
			fmt.Fprintf(os.Stderr, "benchcmp: FAIL: geomean regression %.1f%% exceeds %.1f%%\n",
				(geo-1)*100, (*maxRegress-1)*100)
			failed = true
		}
	}
	for _, a := range asserts {
		num, okN := fresh[a.num]
		den, okD := fresh[a.den]
		if !okN || !okD {
			fmt.Fprintf(os.Stderr, "benchcmp: FAIL: ratio assertion needs %q and %q in the new numbers\n", a.num, a.den)
			failed = true
			continue
		}
		ratio := num / den
		fmt.Printf("benchcmp: ratio %s / %s = %.2fx (need >= %.2fx)\n", a.num, a.den, ratio, a.min)
		if ratio < a.min {
			fmt.Fprintf(os.Stderr, "benchcmp: FAIL: ratio %.2fx below required %.2fx\n", ratio, a.min)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// compare returns the geomean of new/old over common benchmarks (NaN when
// none), per-benchmark report rows sorted worst-first, the names that are
// new-only, and the baseline names absent from the new run.
func compare(old, fresh map[string]float64) (float64, []string, []string, []string) {
	type row struct {
		name  string
		ratio float64
		old   float64
		new_  float64
	}
	var rows []row
	var missing []string
	var logSum float64
	for name, ns := range fresh {
		if oldNS, ok := old[name]; ok && oldNS > 0 {
			r := ns / oldNS
			rows = append(rows, row{name, r, oldNS, ns})
			logSum += math.Log(r)
		} else {
			missing = append(missing, name)
		}
	}
	var gone []string
	for name := range old {
		if _, ok := fresh[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ratio > rows[j].ratio })
	sort.Strings(missing)
	sort.Strings(gone)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%-56s %12.0f -> %12.0f ns/op  (%.3fx)", r.name, r.old, r.new_, r.ratio)
	}
	if len(rows) == 0 {
		return math.NaN(), out, missing, gone
	}
	return math.Exp(logSum / float64(len(rows))), out, missing, gone
}

func writeJSON(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
