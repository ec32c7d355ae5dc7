package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/stats"
)

func TestSelectExperiments(t *testing.T) {
	all := selectExperiments("all")
	if len(all) != len(harness.Registry()) {
		t.Fatalf("all: %d experiments, want %d", len(all), len(harness.Registry()))
	}
	paper := selectExperiments("paper")
	want := []string{"table1", "fig1", "fig2", "table3", "fig3"}
	if len(paper) != len(want) {
		t.Fatalf("paper: %v", paper)
	}
	for i, id := range want {
		if paper[i] != id {
			t.Fatalf("paper[%d]=%s want %s", i, paper[i], id)
		}
	}
	custom := selectExperiments(" fig2 , table3 ")
	if len(custom) != 2 || custom[0] != "fig2" || custom[1] != "table3" {
		t.Fatalf("custom: %v", custom)
	}
	if got := selectExperiments(""); len(got) != 0 {
		t.Fatalf("empty spec: %v", got)
	}
}

func TestWriteOutputs(t *testing.T) {
	dir := t.TempDir()
	tb := stats.NewTable("T", "a", "b")
	tb.AddRow("x", 1.5)
	tb2 := stats.NewTable("T2", "c")
	tb2.AddRow("y")
	ch := stats.NewChart("C", "x", "y")
	ch.Add("s", []float64{1}, []float64{2})
	out := &harness.Output{Tables: []*stats.Table{tb, tb2}, Charts: []*stats.Chart{ch}}
	if err := writeOutputs(dir, "myexp", out); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join(dir, "myexp.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "T") || !strings.Contains(string(text), "C") {
		t.Fatalf("txt content:\n%s", text)
	}
	csv1, err := os.ReadFile(filepath.Join(dir, "myexp.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv1), "a,b\n") {
		t.Fatalf("csv content:\n%s", csv1)
	}
	if _, err := os.Stat(filepath.Join(dir, "myexp_1.csv")); err != nil {
		t.Fatal("second table csv missing")
	}
}
