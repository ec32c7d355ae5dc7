package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metric"
)

// child runs this binary again with args and returns its last stdout line.
// Every measured run is a process of its own, as the driver's are.
func child(args ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1], nil
}

// aaRow is one workload × end-to-end metric of the A/A report.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        aaSet   `json:"a"`
	B        aaSet   `json:"b"`
	// Worse is how far set B's median is worse than set A's, as a share
	// of A's (negative: better). Pass says it is within Bound: the two
	// sets agree.
	Worse float64 `json:"b_worse_than_a"`
	Pass  bool    `json:"pass"`
	// Spread is the wider of the two sets' (Q3−Q1)/median. The driver
	// also wants it inside Bound (setup_s apart), over ten runs; over
	// fewer the quartiles sit next to the extremes (at five, Q3 is halfway
	// to the maximum), so here it is reported, not judged.
	Spread       float64 `json:"spread"`
	SpreadWithin bool    `json:"spread_within_bound"`
}

type aaSet struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

func newAASet(vs []float64) aaSet {
	q1, q2, q3 := quartiles(vs)
	return aaSet{Values: vs, Q1: q1, Median: q2, Q3: q3}
}

func (s aaSet) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// runAA runs every workload 2n times — set A and set B interleaved, every
// run on a seed of its own and in a process of its own, as the driver's two
// sets are — and reports, per workload × end-to-end metric, whether two
// sets of runs of the same code agree within the benchmark's own bounds.
func runAA(n, seconds int, out io.Writer) error {
	if n < 2 {
		return fmt.Errorf("-aa %d: quartiles need at least 2 runs per set", n)
	}
	type key struct{ workload, metric string }
	vals := map[key]*[2][]float64{}
	for i := 0; i < n; i++ {
		for _, s := range specs {
			for set := 0; set < 2; set++ {
				line, err := child("-workload", s.name, "-seed", strconv.Itoa(defaultSeed+2*i+set), "-seconds", strconv.Itoa(seconds), "-trace", "0")
				if err != nil {
					return err
				}
				var res result
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					return fmt.Errorf("%s: result line %q: %w", s.name, line, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: run reported %d failed operations", s.name, res.Failed)
				}
				for name, v := range res.Metrics {
					k := key{s.name, name}
					if vals[k] == nil {
						vals[k] = new([2][]float64)
					}
					vals[k][set] = append(vals[k][set], v.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: pair %d/%d %s set %c done\n", i+1, n, s.name, 'A'+set)
			}
		}
	}
	var rows []aaRow
	pass := true
	for _, s := range specs {
		for _, d := range endToEnd {
			v := vals[key{s.name, d.Name}]
			r := aaRow{Workload: s.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, A: newAASet(v[0]), B: newAASet(v[1])}
			r.Worse = (r.B.Median - r.A.Median) / r.A.Median
			if d.Better == "higher" {
				r.Worse = -r.Worse
			}
			r.Spread = max(r.A.spread(), r.B.spread())
			r.Pass = r.Worse <= d.Bound
			r.SpreadWithin = r.Spread <= d.Bound
			pass = pass && r.Pass
			rows = append(rows, r)
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	if err := enc.Encode(map[string]any{"runs_per_set": n, "seconds": seconds, "pass": pass, "rows": rows}); err != nil {
		return err
	}
	if !pass {
		return fmt.Errorf("A/A: two sets of runs of the same code disagree beyond a bound")
	}
	return nil
}

// probeAutotile starts n child processes that do not pin the tile budget
// and reports what metric.TileBudget() resolved to in each, then the
// batch-dense block time at every budget seen plus the pin — the numbers a
// later issue needs to fix or delete the autotuner. Pinned runs never use
// it.
func probeAutotile(n int, seed int64, out io.Writer) error {
	picks := map[int]int{}
	var order []int
	for i := 0; i < n; i++ {
		line, err := child("-child-tile", "0")
		if err != nil {
			return err
		}
		b, err := strconv.Atoi(line)
		if err != nil {
			return fmt.Errorf("child printed %q", line)
		}
		if picks[b] == 0 {
			order = append(order, b)
		}
		picks[b]++
		fmt.Fprintf(out, "start %d: autotuned tile budget %d\n", i+1, b)
	}
	if picks[tileBudgetPin] == 0 {
		order = append(order, tileBudgetPin)
	}
	fmt.Fprintf(out, "%-12s %-8s %s\n", "tile_budget", "picked", "batch-dense block ms (per-block best of 64 rounds, median over blocks)")
	for _, b := range order {
		line, err := child("-child-tile", strconv.Itoa(b), "-seed", strconv.FormatInt(seed, 10))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-12d %-8s %s\n", b, fmt.Sprintf("%d/%d", picks[b], n), line)
	}
	return nil
}

// autotileChild is one child of probeAutotile: with budget 0 it prints the
// budget the autotuner resolves to in this process; otherwise it pins that
// budget and prints batch-dense's median block time.
func autotileChild(budget int, seed int64) error {
	if budget == 0 {
		b, _ := metric.TileBudget()
		fmt.Println(b)
		return nil
	}
	metric.SetTileBudget(budget)
	runtime.GOMAXPROCS(1) // rule 2 holds here too; only rule 1 is lifted
	pinned, _ := metric.TileBudget()
	if pinned != budget {
		return fmt.Errorf("tile budget %d clamped to %d", budget, pinned)
	}
	s, err := specByName("batch-dense")
	if err != nil {
		return err
	}
	w := newWorld(s, corpusSeed, seed, 8*repsPerInput) // eight distinct blocks
	idx, err := core.BuildExact(w.db, metric.Euclidean{}, exactParams(w))
	if err != nil {
		return err
	}
	const warm, timed = 4, 64
	ns := timeN(warm+timed, func(i int) { idx.KNNBatch(w.blocks[i%len(w.blocks)], s.k) })[warm:]
	fmt.Printf("%.3f\n", bestPerInput(ns, warm, len(w.blocks))/1e6)
	return nil
}
