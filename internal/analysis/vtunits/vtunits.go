// Package vtunits enforces the boundary between virtual and wall-clock time
// units and between the two cooperative timelines:
//
//   - A vclock.Duration must not be cast directly to time.Duration (use the
//     .Std() accessor) and a time.Duration must not be cast directly to
//     vclock.Duration (use vclock.FromStd) — the raw conversions compile, but
//     they erase the unit boundary the simulator's determinism rests on, and
//     they are how wall-clock measurements silently leak into virtual
//     accounting.
//   - Arithmetic must not combine instants read from two different
//     vclock.Timelines (e.g. host.Now() - dev.Now()): the host and device
//     clocks advance independently, so the difference is meaningless outside
//     a rendezvous. Cross-timeline synchronization goes through
//     Timeline.WaitUntil, which models the stall explicitly.
//
// The vclock package itself is exempt: it is where the blessed conversions
// are defined.
package vtunits

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hybridndp/internal/analysis"
)

// Analyzer is the vtunits check.
// Analyzer skips test files: tests routinely compare the elapsed clocks of
// two *alternative* simulation runs (e.g. sequential vs random scans), which
// is cross-timeline only syntactically — the instants are measurements of
// separate executions, not concurrent clocks of one.
var Analyzer = &analysis.Analyzer{
	Name:      "vtunits",
	Doc:       "forbid raw vclock/time unit conversions and cross-timeline instant arithmetic",
	SkipTests: true,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	if pass.Path == "vclock" || strings.HasSuffix(pass.Path, "/vclock") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkConversion(pass, e)
				checkSubAdd(pass, e)
			case *ast.BinaryExpr:
				checkBinary(pass, e)
			}
			return true
		})
	}
	return nil
}

// isVclockType reports whether t is the named type vclock.<name>.
func isVclockType(t types.Type, name string) bool {
	nt, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := nt.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "vclock" || strings.HasSuffix(p, "/vclock")
}

// isTimeType reports whether t is the named type time.<name>.
func isTimeType(t types.Type, name string) bool {
	nt, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := nt.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// checkConversion flags raw casts across the vclock/time unit boundary.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := tv.Type
	src := pass.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isTimeType(dst, "Duration") && isVclockType(src, "Duration"):
		pass.Reportf(call.Pos(), "raw conversion time.Duration(%s) from vclock.Duration: use the .Std() accessor", render(call.Args[0]))
	case isTimeType(dst, "Duration") && isVclockType(src, "Time"):
		pass.Reportf(call.Pos(), "raw conversion time.Duration(%s) from vclock.Time: use the .Std() accessor", render(call.Args[0]))
	case isVclockType(dst, "Duration") && isTimeType(src, "Duration"):
		pass.Reportf(call.Pos(), "raw conversion vclock.Duration(%s) from time.Duration: use vclock.FromStd", render(call.Args[0]))
	case isVclockType(dst, "Time") && isTimeType(src, "Duration"):
		pass.Reportf(call.Pos(), "raw conversion vclock.Time(%s) from time.Duration: wall-clock time must not seed a virtual instant", render(call.Args[0]))
	}
}

// timelineRoots collects the receivers of <x>.Now() calls (where x is a
// *vclock.Timeline) within e, rendered as source text. Two distinct roots in
// one arithmetic expression mean two independent clocks are being mixed.
func timelineRoots(pass *analysis.Pass, e ast.Expr) map[string]bool {
	roots := map[string]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" {
			return true
		}
		t := pass.TypeOf(sel.X)
		if t == nil {
			return true
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if isVclockType(t, "Timeline") {
			roots[render(sel.X)] = true
		}
		return true
	})
	return roots
}

func union(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// checkBinary flags binary arithmetic/comparison combining instants from two
// different timelines.
func checkBinary(pass *analysis.Pass, e *ast.BinaryExpr) {
	switch e.Op {
	case token.ADD, token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	roots := union(timelineRoots(pass, e.X), timelineRoots(pass, e.Y))
	if len(roots) > 1 {
		pass.Reportf(e.Pos(), "expression combines instants from different timelines (%s): rendezvous via Timeline.WaitUntil instead",
			joinKeys(roots))
	}
}

// checkSubAdd flags t.Sub(u) / t.Add(d) where t and u come from different
// timelines.
func checkSubAdd(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Sub" && sel.Sel.Name != "Add") || len(call.Args) != 1 {
		return
	}
	recvT := pass.TypeOf(sel.X)
	if recvT == nil || !isVclockType(recvT, "Time") {
		return
	}
	roots := union(timelineRoots(pass, sel.X), timelineRoots(pass, call.Args[0]))
	if len(roots) > 1 {
		pass.Reportf(call.Pos(), "%s.%s combines instants from different timelines (%s): rendezvous via Timeline.WaitUntil instead",
			render(sel.X), sel.Sel.Name, joinKeys(roots))
	}
}

func joinKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func render(e ast.Expr) string {
	var b bytes.Buffer
	_ = printer.Fprint(&b, token.NewFileSet(), e)
	return b.String()
}
