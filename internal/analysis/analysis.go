// Package analysis is a minimal, dependency-free reimplementation of the
// go/analysis driver model (golang.org/x/tools is not vendored in this
// repository, and the build is fully offline). It provides just enough of the
// Analyzer / Pass / Diagnostic vocabulary for the hybridlint suite: analyzers
// receive a type-checked package and report position-tagged diagnostics; the
// driver filters them through the `//lint:allow` directive mechanism.
//
// Directives: a comment of the form
//
//	//lint:allow <analyzer> [reason...]
//
// suppresses diagnostics of <analyzer> on the same line and on the line
// directly below (so the directive can trail the offending expression or sit
// on its own line above it). Directives are only honored inside packages the
// analyzer explicitly allow-lists (Analyzer.AllowIn); anywhere else the
// directive itself is reported as a violation, so suppressions cannot creep
// into the simulator unnoticed.
//
// Facts: an analyzer may attach a Fact to a types.Object (typically a
// *types.Func) with Pass.ExportObjectFact and query it later with
// Pass.ImportObjectFact, mirroring go/analysis object facts. Units are
// analyzed in the order the loader produced them — dependencies before
// dependents (load.Module and load.Tree both type-check in topological
// order) — so a fact exported while analyzing internal/flash is visible when
// the same analyzer reaches internal/device. Facts are scoped per analyzer
// per Run: two analyzers never see each other's facts.
//
// The driver runs the analyzers of one Run call concurrently (one goroutine
// per analyzer, each walking the units sequentially so facts stay ordered)
// and merges their diagnostics into one deterministic, fully sorted list.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// SimPackages are the simulation packages the hybridlint analyzers guard:
// code that runs on virtual time, so it must be wall-clock free, charge its
// modeled I/O, balance its spans and keep scheduling deterministic. Matching
// is by final import-path segment (see pathMatches).
var SimPackages = []string{"vclock", "coop", "exec", "lsm", "flash", "sched", "device", "hw", "obs", "fault", "fleet", "serve"}

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Packages restricts the analyzer to packages whose import path's final
	// segment is in the list. Empty means every package.
	Packages []string
	// AllowIn lists package-path suffixes in which //lint:allow directives
	// for this analyzer are honored. A directive in any other package is
	// itself a diagnostic.
	AllowIn []string
	// SkipTests excludes _test.go files from the pass.
	SkipTests bool
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Fact is a datum an analyzer attaches to a types.Object so that later
// passes of the same analyzer — in the same package or in a downstream
// package — can query it. Implementations are plain structs with the AFact
// marker method, mirroring golang.org/x/tools/go/analysis.
type Fact interface{ AFact() }

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // package import path
	Info     *types.Info

	facts map[types.Object]Fact // shared across the analyzer's units, in load order
	diags []Diagnostic
}

// ExportObjectFact associates fact with obj for the rest of this analyzer's
// run. Object identity is preserved across packages by the loader (module-
// internal imports resolve to the already-checked *types.Package), so a fact
// exported on a function while analyzing its defining package is found again
// from call sites in importing packages. Exporting twice overwrites.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || fact == nil {
		return
	}
	p.facts[obj] = fact
}

// ImportObjectFact returns the fact previously exported on obj by this
// analyzer, if any.
func (p *Pass) ImportObjectFact(obj types.Object) (Fact, bool) {
	if obj == nil {
		return nil, false
	}
	f, ok := p.facts[obj]
	return f, ok
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

var directiveRe = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_]+)(\s|$)`)

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzer string
	pos      token.Position
}

// collectDirectives parses every //lint:allow comment in the files.
func collectDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				out = append(out, directive{analyzer: m[1], pos: fset.Position(c.Pos())})
			}
		}
	}
	return out
}

// pathMatches reports whether the package path matches any entry in list:
// the full path, a "/"-delimited suffix of it (entry "sched" matches
// "hybridndp/internal/sched"), or the reverse (a bare fixture path "hw"
// matches the entry "internal/hw").
func pathMatches(path string, list []string) bool {
	for _, s := range list {
		if path == s || strings.HasSuffix(path, "/"+s) || strings.HasSuffix(s, "/"+path) {
			return true
		}
	}
	return false
}

// Unit is one loadable package: files plus type information.
type Unit struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// Run applies every analyzer to every unit, resolves //lint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
// Analyzers run concurrently (one goroutine each); within one analyzer the
// units are visited strictly in the order given, which the loaders guarantee
// to be dependency order, so object facts flow from defining packages to
// importing packages. The merged output is fully ordered (file, line,
// column, analyzer, message) and therefore independent of goroutine
// interleaving.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := make([][]directive, len(units))
	for i, u := range units {
		dirs[i] = collectDirectives(u.Fset, u.Files)
	}
	results := make([][]Diagnostic, len(analyzers))
	errs := make([]error, len(analyzers))
	var wg sync.WaitGroup
	for ai := range analyzers {
		wg.Add(1)
		go func(ai int) {
			defer wg.Done()
			results[ai], errs[ai] = runOne(units, dirs, analyzers[ai])
		}(ai)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []Diagnostic
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool {
		pi, pj := all[i].Pos, all[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if all[i].Analyzer != all[j].Analyzer {
			return all[i].Analyzer < all[j].Analyzer
		}
		return all[i].Message < all[j].Message
	})
	return all, nil
}

// runOne walks the units in load order for a single analyzer, threading one
// fact store through every pass.
func runOne(units []*Unit, dirs [][]directive, a *Analyzer) ([]Diagnostic, error) {
	facts := map[types.Object]Fact{}
	var out []Diagnostic
	for i, u := range units {
		if len(a.Packages) > 0 && !pathMatches(u.Path, a.Packages) {
			// Out-of-scope package: a directive naming this analyzer is
			// dead weight but not a violation (nothing can be suppressed).
			continue
		}
		files := u.Files
		if a.SkipTests {
			files = nil
			for _, f := range u.Files {
				if !strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
					files = append(files, f)
				}
			}
		}
		pass := &Pass{Analyzer: a, Fset: u.Fset, Files: files, Path: u.Path, Info: u.Info, facts: facts}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Path, err)
		}
		out = append(out, filterAllowed(pass.diags, dirs[i], a, u.Path)...)
	}
	return out, nil
}

// filterAllowed drops diagnostics suppressed by a directive in an allow-listed
// package and reports directives that appear outside the allow-list.
func filterAllowed(diags []Diagnostic, dirs []directive, a *Analyzer, path string) []Diagnostic {
	inAllowList := pathMatches(path, a.AllowIn)
	// Lines covered by a directive for this analyzer: the directive's own
	// line and the line below it.
	covered := map[string]map[int]bool{}
	var out []Diagnostic
	for _, d := range dirs {
		if d.analyzer != a.Name {
			continue
		}
		if !inAllowList {
			out = append(out, Diagnostic{
				Analyzer: a.Name,
				Pos:      d.pos,
				Message: fmt.Sprintf("//lint:allow %s is not permitted in package %s (allow-list: %s)",
					a.Name, path, strings.Join(a.AllowIn, ", ")),
			})
			continue
		}
		if covered[d.pos.Filename] == nil {
			covered[d.pos.Filename] = map[int]bool{}
		}
		covered[d.pos.Filename][d.pos.Line] = true
		covered[d.pos.Filename][d.pos.Line+1] = true
	}
	for _, d := range diags {
		if covered[d.Pos.Filename][d.Pos.Line] {
			continue
		}
		out = append(out, d)
	}
	return out
}
