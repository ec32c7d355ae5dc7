// Command docscheck keeps the markdown documentation honest. For each
// file named on the command line it verifies that
//
//   - every fenced ```go code block is gofmt-clean: it must parse (as a
//     whole file or as a declaration/statement list, the same contract
//     as go/format.Source) and already be in canonical gofmt form,
//   - every relative markdown link [text](path) resolves to a file or
//     directory that actually exists, relative to the markdown file's
//     own directory (external schemes and pure #anchors are skipped), and
//   - every inline code span that starts with a command-line flag
//     (`-name`, `-name value`, `-name=value`) names a flag that some
//     command under cmd/ defines with flag.<Kind>("name", …), or one of
//     the few Go tool flags the docs use, and
//   - every dotted name in an inline code span that starts at a package
//     or type of this module (`core.Exact`, `Exact.KNN`,
//     `core.ExactParams.ApproxEps`) names an exported declaration that
//     exists: a package's top-level name, or a type's method or field
//     (promoted ones included). Declarations in test files and in nested
//     modules (bench/) do not count; chains that start anywhere else —
//     stdlib packages, local variables — are not checked.
//
// It prints one line per violation and exits nonzero if there are any,
// so CI can run `docscheck README.md ARCHITECTURE.md docs/OPERATIONS.md`
// from the repository root and fail the build when an example rots, a
// link dangles or a deleted flag or API lingers in the prose.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var (
	linkRe  = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	flagRe  = regexp.MustCompile(`^-([A-Za-z][A-Za-z0-9-]*)`)
	chainRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+`)
)

// goToolFlags are flags of the go tool itself, which the docs may name
// although no command here defines them.
var goToolFlags = map[string]bool{"race": true, "count": true, "run": true, "bench": true, "C": true}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck file.md ...")
		os.Exit(2)
	}
	flags, err := definedFlags("cmd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	syms, err := declaredSymbols(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	bad := 0
	for _, path := range os.Args[1:] {
		for _, problem := range checkFile(path, flags, syms) {
			fmt.Println(problem)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
}

// definedFlags parses every command package under cmdDir and returns
// the names passed to flag.String, flag.Int, flag.Duration and the like.
func definedFlags(cmdDir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(cmdDir, "*", "*.go"))
	if err != nil {
		return nil, err
	}
	flags := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
			return true
		})
	}
	return flags, nil
}

// symbols is the exported surface of the module's non-test code.
type symbols struct {
	pkgs    map[string]map[string]bool // package name → exported top-level names
	members map[string]map[string]bool // type name → exported methods and fields
	embeds  map[string][]string        // type name → embedded type names
}

// declaredSymbols parses every non-test Go file under root, skipping the
// directories the go tool ignores and nested modules. Types are keyed by
// bare name, so same-named types of different packages (and aliases such
// as rbc.Exact = core.Exact) share one member set.
func declaredSymbols(root string) (*symbols, error) {
	s := &symbols{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
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
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.addFile(f)
		return nil
	})
	return s, err
}

func (s *symbols) addFile(f *ast.File) {
	pkg := s.pkgs[f.Name.Name]
	if pkg == nil {
		pkg = map[string]bool{}
		s.pkgs[f.Name.Name] = pkg
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				pkg[d.Name.Name] = true
			} else if typ := typeName(d.Recv.List[0].Type); typ != "" {
				s.member(typ)[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						pkg[sp.Name.Name] = true
					}
					s.addMembers(sp.Name.Name, sp.Type)
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							pkg[n.Name] = true
						}
					}
				}
			}
		}
	}
}

// addMembers records a type's exported fields or interface methods and
// its embedded types.
func (s *symbols) addMembers(typ string, expr ast.Expr) {
	set := s.member(typ)
	var fields *ast.FieldList
	switch t := expr.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, field := range fields.List {
		if len(field.Names) == 0 {
			if emb := typeName(field.Type); emb != "" {
				s.embeds[typ] = append(s.embeds[typ], emb)
				if ast.IsExported(emb) {
					set[emb] = true
				}
			}
			continue
		}
		for _, n := range field.Names {
			if n.IsExported() {
				set[n.Name] = true
			}
		}
	}
}

func (s *symbols) member(typ string) map[string]bool {
	set := s.members[typ]
	if set == nil {
		set = map[string]bool{}
		s.members[typ] = set
	}
	return set
}

// hasMember reports whether typ, or a type it embeds, declares name.
func (s *symbols) hasMember(typ, name string, seen map[string]bool) bool {
	if s.members[typ][name] {
		return true
	}
	seen[typ] = true
	for _, emb := range s.embeds[typ] {
		if !seen[emb] && s.hasMember(emb, name, seen) {
			return true
		}
	}
	return false
}

// typeName is the bare name of a receiver or embedded type expression:
// T, *T, T[P], pkg.T.
func typeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// checkSymbols looks at the line's inline code spans and resolves every
// dotted chain that starts at a package or type of this module, one link
// at a time: after a package comes one of its exported names, after a
// type one of its exported methods or fields. Links past a name that is
// neither a package nor a type (a func's result, a field's value) are not
// followed.
func checkSymbols(path string, lineNo int, line string, syms *symbols) []string {
	if syms == nil {
		return nil
	}
	var problems []string
	spans := strings.Split(line, "`")
	for i := 1; i < len(spans); i += 2 {
		for _, chain := range chainRe.FindAllString(spans[i], -1) {
			parts := strings.Split(chain, ".")
			for j := 0; j+1 < len(parts); j++ {
				x, y := parts[j], parts[j+1]
				_, isPkg := syms.pkgs[x]
				_, isType := syms.members[x]
				if j > 0 {
					isPkg = false // only the chain's head may name a package
				}
				if !isPkg && !isType {
					break
				}
				if !ast.IsExported(y) {
					break
				}
				if (isPkg && syms.pkgs[x][y]) || (isType && syms.hasMember(x, y, map[string]bool{})) {
					continue
				}
				problems = append(problems, fmt.Sprintf("%s:%d: `%s`: %s.%s is declared by no non-test code in this module", path, lineNo, chain, x, y))
				break
			}
		}
	}
	return problems
}

func checkFile(path string, flags map[string]bool, syms *symbols) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var problems []string
	lines := strings.Split(string(data), "\n")
	inFence := false
	fenceLang := ""
	fenceStart := 0
	var fenceBody []string
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if !inFence {
				inFence = true
				fenceLang = strings.TrimPrefix(trimmed, "```")
				fenceStart = i + 1
				fenceBody = fenceBody[:0]
			} else {
				if fenceLang == "go" {
					problems = append(problems, checkGoBlock(path, fenceStart, fenceBody)...)
				}
				inFence = false
			}
			continue
		}
		if inFence {
			fenceBody = append(fenceBody, line)
			continue
		}
		problems = append(problems, checkLinks(path, i+1, line)...)
		problems = append(problems, checkFlags(path, i+1, line, flags)...)
		problems = append(problems, checkSymbols(path, i+1, line, syms)...)
	}
	if inFence {
		problems = append(problems, fmt.Sprintf("%s:%d: unclosed code fence", path, fenceStart))
	}
	return problems
}

// checkGoBlock requires the block to be gofmt-canonical already —
// format.Source accepts whole files and declaration/statement lists, so
// doc snippets don't need package clauses, but they do need tabs and
// canonical spacing.
func checkGoBlock(path string, startLine int, body []string) []string {
	src := []byte(strings.Join(body, "\n") + "\n")
	formatted, err := format.Source(src)
	if err != nil {
		return []string{fmt.Sprintf("%s:%d: go block does not parse: %v", path, startLine, err)}
	}
	if !bytes.Equal(formatted, src) {
		return []string{fmt.Sprintf("%s:%d: go block is not gofmt-clean (indent with tabs, canonical spacing)", path, startLine)}
	}
	return nil
}

func checkLinks(path string, lineNo int, line string) []string {
	var problems []string
	for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" { // pure in-page anchor
			continue
		}
		resolved := filepath.Join(filepath.Dir(path), target)
		if _, err := os.Stat(resolved); err != nil {
			problems = append(problems, fmt.Sprintf("%s:%d: dangling link %q (%s does not exist)", path, lineNo, m[1], resolved))
		}
	}
	return problems
}

// checkFlags looks at the line's inline code spans — the odd segments
// between backticks — and requires each one that starts with a flag to
// name a defined one.
func checkFlags(path string, lineNo int, line string, flags map[string]bool) []string {
	var problems []string
	spans := strings.Split(line, "`")
	for i := 1; i < len(spans); i += 2 {
		m := flagRe.FindStringSubmatch(spans[i])
		if m == nil || flags[m[1]] || goToolFlags[m[1]] {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s:%d: flag -%s is defined by no command under cmd/", path, lineNo, m[1]))
	}
	return problems
}
