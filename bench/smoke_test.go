package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metric"
)

// smokeCfg is a workload at toy scale: 1000 rows, 10 timed rounds, two
// set-ups — half the issue's toy scale, which is what it takes to run all
// four workloads end to end twice and traced once inside ten seconds under
// the race detector on two vCPUs. The smoke tests pin the tile budget but not GOMAXPROCS, and run
// their workloads side by side: they assert what comes out, not how fast,
// and the race detector makes every kernel call several times dearer.
// heldOutSeed is the seed nobody tunes against (README, "What the seed
// decides").
const heldOutSeed = 7

func smokeCfg(t *testing.T, s spec) runCfg {
	t.Helper()
	metric.SetTileBudget(tileBudgetPin)
	return runCfg{spec: s.scaled(1000), seed: heldOutSeed, seconds: 1, setupReps: 2, rounds: 10, sz: toySizes,
		scratch: t.TempDir(), traceOut: filepath.Join(t.TempDir(), "trace.json"), out: io.Discard}
}

func checkMetrics(t *testing.T, name string, res result, catalog []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(catalog) {
		t.Errorf("%s: %d metrics emitted, catalog has %d", name, len(res.Metrics), len(catalog))
	}
	for _, d := range catalog {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", name, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, v.Unit, d.Unit)
		}
	}
}

// Every workload, untraced, twice: all six end-to-end metrics with
// their units, no failed operation, and — for the workloads whose op order
// is fixed — bit-identical work counters across the two runs.
func TestSmokeEndToEnd(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeCfg(t, s)
			a, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, s.name, a, endToEnd)
			for _, d := range endToEnd {
				if a.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, a.Metrics[d.Name].Value)
				}
			}
			if s.driver == "serve" {
				return // two clients interleave freely; its counters are bounded, not identical
			}
			b, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"evals_per_query", "wire_bytes_per_query"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs across two runs of the same seed: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
		})
	}
}

// Every workload, traced: every per-layer metric with its unit, and a span
// file whose self times sum to its roots.
func TestSmokeTraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeCfg(t, s)
			cfg.rounds = 5 // each traced run drives all three stacks
			res, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, s.name, res, perLayer)
			b, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var f traceFile
			if err := json.Unmarshal(b, &f); err != nil {
				t.Fatal(err)
			}
			if f.Roots == 0 || len(f.Spans) <= f.Roots {
				t.Errorf("span file has %d roots and %d spans: no child spans recorded", f.Roots, len(f.Spans))
			}
			if f.RootNS+f.SiblingOverlapNS != f.SumSelfNS {
				t.Errorf("self times sum to %d ns, roots to %d ns (+%d overlap)", f.SumSelfNS, f.RootNS, f.SiblingOverlapNS)
			}
		})
	}
}

// BENCHMARK.json is the driver's copy of the catalog in report.go and the
// workload list in inputs.go; they must say the same thing.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from report.go:\n file %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from report.go")
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in inputs.go", len(file.Workloads), len(specs))
	}
	for i, s := range specs {
		if file.Workloads[i].Name != s.name || file.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, inputs.go has %q", i, file.Workloads[i].Name, s.name)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", s.name, len(s.why))
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(file.PerLayer), len(file.EndToEnd))
	}
}
