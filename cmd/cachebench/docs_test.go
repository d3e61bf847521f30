package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"znscache/internal/harness"
)

var (
	goRunRE      = regexp.MustCompile(`go run (\./[\w./-]*)`)
	experimentRE = regexp.MustCompile("(?:^|[\\s`])-experiment[ =]([\\w|]+)")
)

// TestDocsNameRealCommands scans the commands README.md and EXPERIMENTS.md
// tell readers to run: every `go run ./PATH` must name a directory that
// holds a main package, and every -experiment name (each of an a|b|c list)
// must select an experiment.
func TestDocsNameRealCommands(t *testing.T) {
	all := experiments(sizes{}, 0, harness.Env{}, nil)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range goRunRE.FindAllStringSubmatch(line, -1) {
				if dir := strings.TrimRight(m[1], "./"); !isMainPackage(filepath.Join("..", "..", dir)) {
					t.Errorf("%s:%d: go run %s: no main package there", doc, i+1, m[1])
				}
			}
			for _, m := range experimentRE.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], "|") {
					if len(selected(all, name, "")) == 0 {
						t.Errorf("%s:%d: -experiment %s: no such experiment", doc, i+1, name)
					}
				}
			}
		}
	}
}

// isMainPackage reports whether dir holds a non-test Go file of package main.
func isMainPackage(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly); err == nil && ast.Name.Name == "main" {
			return true
		}
	}
	return false
}
