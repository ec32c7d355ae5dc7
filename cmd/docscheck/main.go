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
//     the few Go tool flags the docs use.
//
// It prints one line per violation and exits nonzero if there are any,
// so CI can run `docscheck README.md ARCHITECTURE.md docs/OPERATIONS.md`
// from the repository root and fail the build when an example rots, a
// link dangles or a deleted flag lingers in the prose.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var (
	linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	flagRe = regexp.MustCompile(`^-([A-Za-z][A-Za-z0-9-]*)`)
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
	bad := 0
	for _, path := range os.Args[1:] {
		for _, problem := range checkFile(path, flags) {
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

func checkFile(path string, flags map[string]bool) []string {
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
