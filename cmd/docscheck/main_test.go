package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// One command defining two flags; one doc that names only defined and
// go-tool flags, one that names a flag no command defines.
func TestFlagRule(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "cmd", "tool", "main.go"), `package main

import "flag"

func main() {
	_ = flag.String("addr", ":8080", "listen address")
	_ = flag.Duration("drain-timeout", 0, "drain")
	flag.Parse()
}
`)
	flags, err := definedFlags(filepath.Join(dir, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(flags) != 2 || !flags["addr"] || !flags["drain-timeout"] {
		t.Fatalf("defined flags: %v", flags)
	}

	good := filepath.Join(dir, "good.md")
	writeFile(t, good, "Set `-addr`, `-addr :9090` or `-drain-timeout=5s`; test with `-race`.\n"+
		"A `package`-level example and `go test -bogus` inside a command are not flag spans.\n"+
		"```\ntool -batch-wait 1ms   # fences are not checked\n```\n")
	if problems := checkFile(good, flags, nil); len(problems) != 0 {
		t.Fatalf("clean doc reported: %v", problems)
	}

	bad := filepath.Join(dir, "bad.md")
	writeFile(t, bad, "Fine: `-addr`.\nTune `-batch-wait` to taste.\n")
	problems := checkFile(bad, flags, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "bad.md:2") || !strings.Contains(problems[0], "-batch-wait") {
		t.Fatalf("doc naming a missing flag reported: %v", problems)
	}
}

// A module with one package and a nested module: a doc naming a method
// that exists passes, one naming a method declared only in a test file or
// in the nested module fails, and chains that start at a stdlib package
// or a local variable are not checked.
func TestSymbolRule(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "core", "exact.go"), `package core

type ExactParams struct{ EarlyExit bool }

type Exact struct {
	Stats
	prm ExactParams
}

type Stats struct{ PointEvals int64 }

func (e *Exact) KNN(q []float32, k int) {}
`)
	writeFile(t, filepath.Join(dir, "core", "exact_test.go"), "package core\n\nfunc (e *Exact) One(q []float32) {}\n")
	writeFile(t, filepath.Join(dir, "bench", "go.mod"), "module bench\n")
	writeFile(t, filepath.Join(dir, "bench", "core.go"), "package core\n\nfunc (e *Exact) Search() {}\n")
	syms, err := declaredSymbols(dir)
	if err != nil {
		t.Fatal(err)
	}

	good := filepath.Join(dir, "good.md")
	writeFile(t, good, "Call `Exact.KNN` or `core.Exact.KNN(q, 1)`; set `core.ExactParams.EarlyExit`.\n"+
		"Promoted: `Exact.PointEvals`. Unchecked: `sort.Search`, `http.Server.Shutdown`, `e.prm.Seed`, `exact.go`.\n")
	if problems := checkFile(good, nil, syms); len(problems) != 0 {
		t.Fatalf("clean doc reported: %v", problems)
	}

	bad := filepath.Join(dir, "bad.md")
	writeFile(t, bad, "Fine: `Exact.KNN`.\nCall `Exact.One` or `core.Exact.Search`, or `core.Cluster`.\n")
	problems := checkFile(bad, nil, syms)
	if len(problems) != 3 {
		t.Fatalf("doc naming missing symbols reported %d problems: %v", len(problems), problems)
	}
	for i, name := range []string{"Exact.One", "Exact.Search", "core.Cluster"} {
		if !strings.Contains(problems[i], "bad.md:2") || !strings.Contains(problems[i], name) {
			t.Fatalf("problem %d = %q, want bad.md:2 naming %s", i, problems[i], name)
		}
	}
}
