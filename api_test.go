package lfi_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that
// stay public although only tests reach them, each with its reason. Keys
// are "pkg.Name", "pkg.Type.Method" or "pkg.Type.Field", with pkg the
// path below internal/.
var surfaceAllowlist = map[string]string{
	"core.AvailSpec.LatencyPct":             "read by bench/replica.go, the campaign benchmark's copy of the executor; goes with it",
	"experiments.Table2Result.MeanAccuracy": "the metric BenchmarkTable2ProfilerAccuracy (bench_test.go) reports",
	"experiments.Table3Cell":                "BenchmarkTable3ApacheOverhead (bench_test.go) times one Table 3 cell",
	"experiments.Table4Cell":                "BenchmarkTable4MySQLOverhead (bench_test.go) times one Table 4 cell",
	"isa.R4":                                "a register of the ISA's register file; removing it renumbers SP and BP",
	"isa.R5":                                "a register of the ISA's register file; removing it renumbers SP and BP",
	"kernel.Kernel.FileData":                "the host-side read of a guest file; vm, apps and kernel tests check what guests wrote",
	"kernel.ORdwr":                          "the O_RDWR value of the guest open(2) flag set, which the kernel decodes",
	"mandoc.ParseSet":                       "reads back the docs.man bundle that lfi-corpus writes with Set.Render",
	"obj.File.Strip":                        "models strip(1); asm and profiler tests check stripped libraries still link and profile",
	"profiler.Options.PruneInfeasible":      "the §3.1 future-work extension, switched by its ablation benchmark and corpus test",
	"vm.System.SkippedCycles":               "the controller's spin lockstep tests read how many cycles the block engine skipped",
}

// TestPublicSurface keeps the public surface to what programs use. It
// type-checks every non-test file of this module and of the bench/
// module, the callers of internal/, and fails on
//
//   - (a) an exported package-level identifier or method under
//     internal/ that no non-test file references, and
//   - (b) an exported field of an exported struct under internal/ that
//     no non-test file writes: by a keyed or positional literal, an
//     assignment, an inc/dec or by taking its address.
//
// Excluded by rule: String, Error and Unwrap methods and the methods of
// sort.Interface (reached through the standard library), methods of
// unexported types, and XMLName and the tagged fields that
// encoding/xml or encoding/json fill. Every other exception is an entry
// of surfaceAllowlist. An identifier that only tests need belongs in an
// export_test.go file or in the test itself. CI runs this check in its
// Test step (go test ./...).
func TestPublicSurface(t *testing.T) {
	l := &loader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	l.addModule(t, ".", "lfi")
	l.addModule(t, "bench", "lfi/bench")
	paths := make([]string, 0, len(l.dirs))
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		used[obj] = true
	}
	written := map[types.Object]bool{}
	for _, f := range l.files {
		l.markWrites(f, written)
	}

	var dead []string
	allowed := map[string]bool{}
	report := func(key, why string) {
		if _, ok := surfaceAllowlist[key]; ok {
			allowed[key] = true
			return
		}
		dead = append(dead, key+": "+why)
	}
	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, "lfi/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				report(rel+"."+name, "no non-test file references it")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !ruleExcludedMethod(m.Name()) {
					report(rel+"."+name+"."+m.Name(), "no non-test file references it")
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				tag := reflect.StructTag(st.Tag(i))
				decoded := f.Name() == "XMLName" || tag.Get("xml") != "" || tag.Get("json") != ""
				if f.Exported() && !written[f] && !decoded {
					report(rel+"."+name+"."+f.Name(), "no non-test file sets it")
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s; unexport it, move it into the test that needs it, or allowlist it with a reason", d)
	}
	for key := range surfaceAllowlist {
		if !allowed[key] {
			t.Errorf("surfaceAllowlist entry %s names no test-only identifier; delete it", key)
		}
	}
}

// ruleExcludedMethod reports whether a method of this name is reached
// through a standard-library interface rather than by name.
func ruleExcludedMethod(name string) bool {
	switch name {
	case "String", "Error", "Unwrap", "Len", "Less", "Swap":
		return true
	}
	return false
}

// loader type-checks the non-test files of this repository's packages
// itself, so every caller resolves to the same objects, and imports
// the standard library from source.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File
}

// addModule registers every package directory of the module rooted at
// root, skipping nested modules and testdata.
func (l *loader) addModule(t *testing.T, root, module string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		l.dirs[importPath] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkgDir, ok := l.dirs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	bp, err := build.Default.ImportDir(pkgDir, 0)
	if _, none := err.(*build.NoGoError); none {
		l.pkgs[path] = types.NewPackage(path, "")
		return l.pkgs[path], nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(pkgDir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

// markWrites records every struct field that f writes.
func (l *loader) markWrites(f *ast.File, written map[types.Object]bool) {
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			typ := l.info.Types[n].Type
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem() // an elided &T in a []*T literal
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && l.info.Uses[id] != nil {
						written[l.info.Uses[id]] = true
					}
				} else {
					written[st.Field(i)] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
}
