// Package load discovers, parses and type-checks every Go package of a
// module using only the standard library: go/parser for syntax and go/types
// with the source importer for semantics. It exists because the repository
// builds fully offline — golang.org/x/tools (go/packages) is not available —
// and the hybridlint analyzers need type information to distinguish, say, a
// range over a map from a range over a slice.
//
// Module-internal imports are resolved against the packages discovered in the
// same load; everything else (the standard library) falls back to the source
// importer, which type-checks GOROOT packages from source.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"hybridndp/internal/analysis"
)

// rawPkg is one directory's worth of parsed files, pre type-check.
type rawPkg struct {
	files      []*ast.File     // package files + in-package _test.go files
	xtestFiles []*ast.File     // package foo_test files
	imports    map[string]bool // the package files' imports (external tests are checked last)
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	m := moduleRe.FindSubmatch(b)
	if m == nil {
		return "", fmt.Errorf("load: no module directive in %s/go.mod", root)
	}
	return string(m[1]), nil
}

// Module parses and type-checks every package under root (the module
// directory). Directories named testdata, vendor, or starting with "." or "_"
// are skipped. In-package test files are type-checked together with their
// package; external _test packages are returned as separate units with the
// import path suffix ".test".
func Module(root string) ([]*analysis.Unit, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	raw := map[string]*rawPkg{} // import path → package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		rp, err := parseDir(fset, path)
		if err != nil {
			return err
		}
		if rp != nil {
			raw[ip] = rp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return check(fset, raw)
}

// Tree is like Module but for a bare directory tree of packages whose import
// paths are their directory names relative to root (no module prefix). It is
// the loader behind analysistest fixtures, mirroring the GOPATH-style
// testdata/src layout of x/tools' analysistest.
func Tree(root string) ([]*analysis.Unit, error) {
	fset := token.NewFileSet()
	raw := map[string]*rawPkg{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			return nil
		}
		rp, err := parseDir(fset, path)
		if err != nil {
			return err
		}
		if rp != nil {
			raw[filepath.ToSlash(rel)] = rp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return check(fset, raw)
}

// parseDir parses one directory's Go files into a rawPkg (nil if no Go files).
func parseDir(fset *token.FileSet, dir string) (*rawPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rp := &rawPkg{imports: map[string]bool{}}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			rp.xtestFiles = append(rp.xtestFiles, f)
			continue
		}
		for _, imp := range f.Imports {
			rp.imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
		rp.files = append(rp.files, f)
	}
	if len(rp.files) == 0 && len(rp.xtestFiles) == 0 {
		return nil, nil
	}
	return rp, nil
}

// moduleImporter resolves module-internal imports from the checked map and
// delegates everything else to the source importer.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// check type-checks the raw packages in dependency order.
func check(fset *token.FileSet, raw map[string]*rawPkg) ([]*analysis.Unit, error) {
	internal := func(p string) bool {
		_, ok := raw[p]
		return ok
	}
	// Topological order over module-internal imports.
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("load: import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		deps := make([]string, 0, len(raw[p].imports))
		for d := range raw[p].imports {
			if internal(d) {
				deps = append(deps, d)
			}
		}
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	imp := &moduleImporter{
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var units []*analysis.Unit
	checkUnit := func(path, name string, files []*ast.File) (*types.Package, error) {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		var errs []string
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				errs = append(errs, err.Error())
			},
		}
		pkg, _ := conf.Check(name, fset, files, info)
		if len(errs) > 0 {
			n := len(errs)
			if n > 5 {
				errs = errs[:5]
			}
			return nil, fmt.Errorf("load: type errors in %s (%d):\n  %s", path, n, strings.Join(errs, "\n  "))
		}
		units = append(units, &analysis.Unit{Path: path, Fset: fset, Files: files, Info: info})
		return pkg, nil
	}
	for _, p := range order {
		rp := raw[p]
		if len(rp.files) > 0 {
			pkg, err := checkUnit(p, p, rp.files)
			if err != nil {
				return nil, err
			}
			imp.checked[p] = pkg
		}
	}
	// External test packages after every base package is available.
	for _, p := range order {
		rp := raw[p]
		if len(rp.xtestFiles) > 0 {
			if _, err := checkUnit(p+".test", p+"_test", rp.xtestFiles); err != nil {
				return nil, err
			}
		}
	}
	return units, nil
}
