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
	if problems := checkFile(good, flags); len(problems) != 0 {
		t.Fatalf("clean doc reported: %v", problems)
	}

	bad := filepath.Join(dir, "bad.md")
	writeFile(t, bad, "Fine: `-addr`.\nTune `-batch-wait` to taste.\n")
	problems := checkFile(bad, flags)
	if len(problems) != 1 || !strings.Contains(problems[0], "bad.md:2") || !strings.Contains(problems[0], "-batch-wait") {
		t.Fatalf("doc naming a missing flag reported: %v", problems)
	}
}
