package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"hybridndp/internal/analysis"
	"hybridndp/internal/analysis/load"
)

// testOnlyAllow names the findings of the test-only scan that stay, each with
// the reason it stays. An entry that matches nothing is itself a finding, so
// the table cannot outlive what it excuses.
var testOnlyAllow = map[string]string{
	"table.Stats.SelectivityOf":         "reference implementation: the optimizer's compiled selectivity is checked against it",
	"job.ExtensionQueries":              "a workload the tests run (GROUP BY, COUNT/SUM/AVG) that no CLI serves yet; ROADMAP item 5a's oracle needs it too",
	"sched.Ticket.Wait":                 "per-request result API of the scheduler, a public entry point",
	"sched.Ticket.Outcome":              "per-request result API of the scheduler, a public entry point",
	"hybridndp.System.Model":            "public field of the façade's assembled system",
	"hybridndp.System.DB":               "public field of the façade's assembled system",
	"hybridndp.System.JOB":              "public field of the façade's assembled system",
	"hybridndp.System.Flash":            "public field of the façade's assembled system",
	"harness.Fig17Result.HostBreakdown": "BenchmarkFig17Table4Timeline reports its host-wait-pct metric from it",
}

// TestNoTestOnlySurface fails for every declaration outside test files whose
// only users are _test.go files, and for every struct field that non-test
// code writes but only tests read or nothing reads, unless testOnlyAllow
// names it. The benchmark module's declarations are its own, but its uses
// count, as do cmd's and examples'. Uses flow back from importers and from
// _test units, which the loader checks after the package they use, while the
// analysis driver's facts flow forward only: so this is a test over the
// loader, not a hybridlint analyzer.
func TestNoTestOnlySurface(t *testing.T) {
	if raceEnabled() {
		t.Skip("a static scan: nothing for the race detector to see")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := load.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := load.Module(root)
	if err != nil {
		t.Fatal(err)
	}
	declares := func(path string) bool { return !strings.HasPrefix(path, mod+"/bench") }
	for _, f := range testOnly(units, declares, testOnlyAllow, root) {
		t.Error(f)
	}
}

// TestTestOnlyRules runs the scan over a fixture tree with one case per
// rule: a func and a field only tests use and a field nothing reads (beyond
// its own update) are found; a knob only tests write, interface methods
// (plain and generic), an embedded field, a tagged field and a test-support
// package are not; an allow entry hides its finding and a stale one is
// reported.
func TestTestOnlyRules(t *testing.T) {
	root := filepath.Join("testdata", "testonly")
	units, err := load.Tree(root)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{"lib.Reference": "fixture", "lib.Gone": "fixture"}
	got := testOnly(units, func(string) bool { return true }, allow, root)
	want := []string{
		"lib/lib.go:13: field lib.Report.Written",
		"lib/lib.go:16: unread field lib.Report.Peak",
		"lib/lib.go:5: func lib.OnlyTested",
		"stale allow entry: lib.Gone",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// testOnly returns, sorted, a "file:line: kind name" line for each finding of
// the scan among the packages declares accepts that allow does not name, and
// one for each allow entry that matched nothing. Files print relative to
// root.
//
// A declaration is a finding when tests use it and nothing else does; a
// field, when non-test code writes it and nothing but tests reads it. A
// composite-literal key or an assignment target is a write, and so is a read
// of the target inside its own update (x.f = max(x.f, v)); any other use is a
// read. Exempt: methods that satisfy an interface, embedded fields, fields of
// structs with tags (read by reflection), and the declarations of
// test-support packages (a name ending in "test").
func testOnly(units []*analysis.Unit, declares func(path string) bool, allow map[string]string, root string) []string {
	type uses struct{ test, read, write int }
	counts := map[types.Object]*uses{}
	isTest := func(fset *token.FileSet, pos token.Pos) bool {
		return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
	}
	pkgs := map[*types.Package]bool{}
	for _, u := range units {
		writes := map[*ast.Ident]bool{}
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.AssignStmt:
					for i, l := range n.Lhs {
						if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
							writes[sel.Sel] = true
							if len(n.Rhs) == len(n.Lhs) {
								selfReads(sel, n.Rhs[i], writes)
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				}
				return true
			})
		}
		for id, obj := range u.Info.Uses {
			obj = origin(obj)
			if obj.Pkg() != nil {
				pkgs[obj.Pkg()] = true
			}
			c := counts[obj]
			if c == nil {
				c = &uses{}
				counts[obj] = c
			}
			switch {
			case isTest(u.Fset, id.Pos()):
				if !writes[id] {
					c.test++
				}
			case writes[id]:
				c.write++
			default:
				c.read++
			}
		}
	}
	ifaces := interfaces(pkgs)

	var out []string
	matched := map[string]bool{}
	for _, u := range units {
		if strings.HasSuffix(u.Path, ".test") || !declares(u.Path) {
			continue
		}
		owners := fieldOwners(u)
		for id, obj := range u.Info.Defs {
			if obj == nil || isTest(u.Fset, id.Pos()) || strings.HasSuffix(obj.Pkg().Name(), "test") {
				continue
			}
			c := counts[obj]
			field, _ := obj.(*types.Var)
			if c == nil || c.read > 0 || c.test == 0 && (field == nil || !field.IsField()) {
				continue
			}
			var kind, name string
			switch obj := obj.(type) {
			case *types.Var:
				if !obj.IsField() {
					kind = "var"
					break
				}
				o, ok := owners[obj]
				if !ok || c.write == 0 || obj.Embedded() || o.tagged {
					continue
				}
				kind, name = "field", o.name+"."
				if c.test == 0 {
					kind = "unread field"
				}
			case *types.Func:
				if implements(obj, ifaces) {
					continue
				}
				kind = "func"
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					kind, name = "method", typeName(recv.Type())+"."
				}
			case *types.Const:
				kind = "const"
			case *types.TypeName:
				kind = "type"
			}
			// Fields and methods have no parent scope; a local's is not the
			// package's.
			if kind == "" || obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
				continue
			}
			name = obj.Pkg().Name() + "." + name + obj.Name()
			if _, ok := allow[name]; ok {
				matched[name] = true
				continue
			}
			p := u.Fset.Position(id.Pos())
			file := p.Filename
			if rel, err := filepath.Rel(root, file); err == nil {
				file = filepath.ToSlash(rel)
			}
			out = append(out, fmt.Sprintf("%s:%d: %s %s", file, p.Line, kind, name))
		}
	}
	for name := range allow {
		if !matched[name] {
			out = append(out, "stale allow entry: "+name)
		}
	}
	sort.Strings(out)
	return out
}

// selfReads marks every occurrence of target in rhs, the value assigned to
// it, as part of the write to target.
func selfReads(target *ast.SelectorExpr, rhs ast.Expr, writes map[*ast.Ident]bool) {
	want := types.ExprString(target)
	ast.Inspect(rhs, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && types.ExprString(sel) == want {
			writes[sel.Sel] = true
		}
		return true
	})
}

// origin maps a use of an instantiated generic method or field to the
// declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// typeName is the bare name of a (pointer to a) named type.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// owner is the package-level struct type a field belongs to, and whether
// that struct tags any field.
type owner struct {
	name   string
	tagged bool
}

// fieldOwners maps every field of u's package-level struct types to its
// owner.
func fieldOwners(u *analysis.Unit) map[*types.Var]owner {
	out := map[*types.Var]owner{}
	for _, obj := range u.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.Parent() != tn.Pkg().Scope() {
			continue
		}
		s, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		o := owner{name: tn.Name()}
		for i := 0; i < s.NumFields(); i++ {
			o.tagged = o.tagged || s.Tag(i) != ""
		}
		for i := 0; i < s.NumFields(); i++ {
			out[s.Field(i)] = o
		}
	}
	return out
}

// interfaces lists every interface with methods declared at package level in
// pkgs and in everything they import, generic ones included, and error.
func interfaces(pkgs map[*types.Package]bool) []*types.Named {
	seen := map[*types.Package]bool{}
	out := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && types.IsInterface(named) &&
				named.Underlying().(*types.Interface).NumMethods() > 0 {
				out = append(out, named)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for p := range pkgs {
		walk(p)
	}
	return out
}

// implements reports whether method m's receiver type satisfies an interface
// that declares m. A generic interface matches by method names, as each of
// its instantiations would.
func implements(m *types.Func, ifaces []*types.Named) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	for _, in := range ifaces {
		it := in.Underlying().(*types.Interface)
		declares, all := false, true
		for i := 0; i < it.NumMethods(); i++ {
			declares = declares || it.Method(i).Name() == m.Name()
			all = all && mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) != nil
		}
		switch {
		case !declares:
		case in.TypeParams().Len() > 0:
			if all {
				return true
			}
		case types.Implements(ptr, it):
			return true
		}
	}
	return false
}

// raceEnabled reports whether this test binary was built with the race
// detector.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
