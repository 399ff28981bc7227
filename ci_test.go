package lfi_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameDeclaredTests keeps the CI workflow's focused steps
// honest: every alternative of a `go test -run` or `-bench` regex in
// .github/workflows/ci.yml must match a Test/Fuzz (for -run) or
// Benchmark (for -bench) function declared in that command's packages.
// A test renamed or folded away otherwise leaves its CI step silently
// running nothing.
func TestCIPatternsNameDeclaredTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		step, ok := strings.CutPrefix(strings.TrimSpace(line), "run:")
		if !ok {
			continue
		}
		if s := strings.TrimSpace(step); s == "|" || s == ">" {
			t.Fatalf("%s:%d: multi-line run blocks are not parsed by this check", workflow, n+1)
		}
		dir := "."
		for _, cmd := range strings.Split(step, "&&") {
			// The workflow quotes patterns with single quotes and puts
			// no spaces in them.
			words := strings.Fields(strings.ReplaceAll(cmd, "'", ""))
			if len(words) == 2 && words[0] == "cd" {
				dir = filepath.Join(dir, words[1])
			}
			if len(words) < 2 || words[0] != "go" || words[1] != "test" {
				continue
			}
			var pkgs []string
			patterns := map[string]string{} // regex -> the function prefixes it selects
			for i, w := range words {
				flag, val, eq := strings.Cut(w, "=")
				if !eq && i+1 < len(words) {
					val = words[i+1]
				}
				switch {
				case w == "." || strings.HasPrefix(w, "./"):
					pkgs = append(pkgs, filepath.Join(dir, w))
				case flag == "-run":
					patterns[val] = "Test|Fuzz"
				case flag == "-bench":
					patterns[val] = "Benchmark"
				}
			}
			decls := declaredFuncs(t, pkgs)
			for regex, prefix := range patterns {
				for _, alt := range topLevelAlternatives(regex) {
					if alt == "^$" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: alternative %q: %v", workflow, n+1, alt, err)
						continue
					}
					checked++
					if !matchesAny(re, regexp.MustCompile("^("+prefix+")"), decls) {
						t.Errorf("%s:%d: alternative %q matches no %s function in %v",
							workflow, n+1, alt, prefix, pkgs)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no -run or -bench pattern found", workflow)
	}
}

// topLevelAlternatives splits a regex at its unparenthesised,
// unbracketed | operators.
func topLevelAlternatives(re string) []string {
	var (
		out   []string
		depth int
		class bool
		start int
	)
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			out = append(out, re[start:i])
			start = i + 1
		}
	}
	return append(out, re[start:])
}

// declaredFuncs returns the top-level function names declared in the Go
// files, tests included, of the given package patterns; a trailing /...
// includes every directory below that is in the same module.
func declaredFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	addDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(filepath.ToSlash(pkg), "/...")
		if !recursive {
			addDir(pkg)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" {
					return filepath.SkipDir
				}
			}
			addDir(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// matchesAny reports whether re matches a name that kind matches.
func matchesAny(re, kind *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if kind.MatchString(name) && re.MatchString(name) {
			return true
		}
	}
	return false
}
