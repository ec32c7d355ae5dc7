package rbc_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateSize = flag.Bool("update", false, "rewrite docs/size.golden from the source tree")

const sizeGolden = "docs/size.golden"

// TestSizeLedger keeps docs/size.golden in step with the source: per
// package, the non-test Go and assembly line count (all lines and
// non-blank lines) and the number of exported identifiers, so every
// change's surface delta shows up in review as a diff of that file.
// Exported identifiers are exported top-level names (funcs, types, vars,
// consts), exported methods, and the exported fields and interface
// methods of top-level types. A directory holding its own go.mod (bench/)
// is a separate module and is not counted.
//
// Regenerate after a change with: go test -run TestSizeLedger -update .
func TestSizeLedger(t *testing.T) {
	got, err := sizeLedger(".")
	if err != nil {
		t.Fatal(err)
	}
	if *updateSize {
		if err := os.WriteFile(sizeGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sizeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Fatalf("%s is stale; regenerate with: go test -run TestSizeLedger -update .\n--- want\n%s--- got\n%s", sizeGolden, want, got)
	}
}

type pkgSize struct{ lines, nonBlank, exported int }

func sizeLedger(root string) (string, error) {
	sizes := map[string]*pkgSize{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		isGo := strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		if !isGo && !strings.HasSuffix(name, ".s") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		sz := sizes[pkg]
		if sz == nil {
			sz = &pkgSize{}
			sizes[pkg] = sz
		}
		for _, line := range strings.SplitAfter(string(src), "\n") {
			if line == "" {
				continue
			}
			sz.lines++
			if strings.TrimSpace(line) != "" {
				sz.nonBlank++
			}
		}
		if isGo {
			f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sz.exported += exportedIdents(f)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	pkgs := make([]string, 0, len(sizes))
	for pkg := range sizes {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	var b strings.Builder
	b.WriteString("# Non-test Go+asm size per package (see TestSizeLedger in size_test.go).\n")
	b.WriteString("# Regenerate: go test -run TestSizeLedger -update .\n")
	row := func(name string, sz pkgSize) {
		fmt.Fprintf(&b, "%-28s %7d %9d %9d\n", name, sz.lines, sz.nonBlank, sz.exported)
	}
	fmt.Fprintf(&b, "%-28s %7s %9s %9s\n", "package", "lines", "nonblank", "exported")
	var total pkgSize
	for _, pkg := range pkgs {
		sz := *sizes[pkg]
		row(pkg, sz)
		total.lines += sz.lines
		total.nonBlank += sz.nonBlank
		total.exported += sz.exported
	}
	row("TOTAL", total)
	return b.String(), nil
}

// exportedIdents counts f's exported identifiers by the ledger's rule.
func exportedIdents(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
					n += exportedMembers(s.Type)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// exportedMembers counts the exported fields of a struct type or the
// exported methods of an interface type.
func exportedMembers(expr ast.Expr) int {
	var fields *ast.FieldList
	switch t := expr.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return 0
	}
	n := 0
	for _, field := range fields.List {
		for _, name := range field.Names {
			if name.IsExported() {
				n++
			}
		}
	}
	return n
}
