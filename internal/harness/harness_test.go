package harness

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// tinyConfig keeps harness tests fast: the smallest usable workloads.
func tinyConfig() Config {
	return Config{Scale: 1e-9, Queries: 24, Seed: 7, RepFactor: 2, CoverTreeCap: 400}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.01 || c.Queries != 200 || c.Seed == 0 || c.RepFactor != 2 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestRegistryAndByID(t *testing.T) {
	reg := Registry()
	if len(reg) != 11 {
		t.Fatalf("registry size %d", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"table1", "fig1", "fig2", "table3", "fig3"} {
		if _, err := ByID(id); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("bogus"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestWorkloadSplitsQueries(t *testing.T) {
	cfg := tinyConfig()
	entry, err := dataset.ByName("robot")
	if err != nil {
		t.Fatal(err)
	}
	db, queries := workload(entry, cfg, 0)
	if db.N() != 256 { // scale floor
		t.Fatalf("db n=%d", db.N())
	}
	if queries.N() != cfg.Queries {
		t.Fatalf("queries n=%d", queries.N())
	}
	if db.Dim != queries.Dim {
		t.Fatal("dim mismatch")
	}
	capped, _ := workload(entry, cfg, 100)
	if capped.N() != 100 {
		t.Fatalf("cap: %d", capped.N())
	}
}

func TestTable1Runs(t *testing.T) {
	out, err := RunTable1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || out.Tables[0].NumRows() != 8 {
		t.Fatalf("table1 shape: %+v", out.Tables[0])
	}
	text := out.Tables[0].String()
	for _, name := range []string{"bio", "cov", "phy", "robot", "tiny4", "tiny32"} {
		if !strings.Contains(text, name) {
			t.Fatalf("missing %s:\n%s", name, text)
		}
	}
}

func TestFig2RunsAndShowsSpeedup(t *testing.T) {
	out, err := RunFig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	if tb.NumRows() != 8 {
		t.Fatalf("fig2 rows: %d", tb.NumRows())
	}
}

func TestFig1Runs(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 16
	out, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Charts) != 1 {
		t.Fatal("fig1 should emit a chart")
	}
	if out.Tables[0].NumRows() != 8*len(fig1Factors) {
		t.Fatalf("fig1 rows: %d", out.Tables[0].NumRows())
	}
}

func TestTable3Runs(t *testing.T) {
	out, err := RunTable3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Tables[0].NumRows() != 8 {
		t.Fatalf("table3 rows: %d", out.Tables[0].NumRows())
	}
}

func TestFig3Runs(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 16
	out, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tables[0].NumRows() != 8*len(fig3Factors) {
		t.Fatalf("fig3 rows: %d", out.Tables[0].NumRows())
	}
	if len(out.Charts) != 1 {
		t.Fatal("fig3 should emit a chart")
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 16
	if _, err := RunAblationBounds(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestScalingRuns(t *testing.T) {
	out, err := RunScaling(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Tables[0].NumRows() < 1 {
		t.Fatal("scaling table empty")
	}
}

func TestDistributedRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 12
	out, err := RunDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tables[0].NumRows() != 10 { // 5 shard counts × 2 modes
		t.Fatalf("distributed rows: %d", out.Tables[0].NumRows())
	}
}

func TestAblationApproxRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 16
	out, err := RunAblationApprox(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tables[0].NumRows() != 8 { // 2 datasets x 4 eps values
		t.Fatalf("approx rows: %d", out.Tables[0].NumRows())
	}
}

func TestQuantSweepRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 8
	cfg.QuantSweepCap = 2000 // both sweep sizes collapse to one capped row per dim
	out, err := RunQuantSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tables[0].NumRows() != len(quantSweepDims) {
		t.Fatalf("quant-sweep rows: %d", out.Tables[0].NumRows())
	}
	if len(out.Charts) != 1 {
		t.Fatal("quant-sweep should emit a chart")
	}
}
