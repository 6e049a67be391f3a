// Package errsink forbids discarding error results from simulator APIs.
//
// The PR 5/6 work made the emit, fault-injection and recovery surfaces
// error-returning precisely so that callers must route failures into the
// deterministic recovery machinery (sched.ReportDeviceResult, retry/fallback
// in coop, circuit-breaking admission). An error silently dropped with
//
//	_ = emit(batch)
//	dev.Produce(cmd, emit)  // (value used as statement)
//	go inj.Inject(ev)       // (goroutine result vanishes)
//
// doesn't just lose a log line: the virtual-time ledger and the fault
// bookkeeping diverge from the modeled device state, and the divergence is
// invisible until a fingerprint mismatch much later. The check is syntactic
// and whole-package: any call whose static callee is declared in a
// simulation package and whose result tuple contains an error must consume
// that error — assigning it to `_`, using the call as a bare statement, or
// launching it via go/defer all count as sinks and are reported.
//
// Calls into non-simulation packages (fmt, io, strings, ...) are never
// flagged — this analyzer guards the simulator's own contract, not general
// Go hygiene. Deliberate sinks in allow-listed packages use
// //lint:allow errsink with a justification.
package errsink

import (
	"go/ast"
	"go/types"
	"strings"

	"hybridndp/internal/analysis"
)

// Analyzer is the errsink check.
var Analyzer = &analysis.Analyzer{
	Name:      "errsink",
	Doc:       "error results of simulator APIs (emit, inject, recovery feeds) must not be discarded",
	Packages:  analysis.SimPackages,
	AllowIn:   []string{"internal/obs", "internal/fault"},
	SkipTests: true,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					check(pass, call, "is discarded: the call is used as a statement")
				}
			case *ast.GoStmt:
				check(pass, st.Call, "vanishes with the goroutine: collect it and feed it to the recovery path")
			case *ast.DeferStmt:
				check(pass, st.Call, "is discarded by defer: wrap it in a closure that consumes the error")
			case *ast.AssignStmt:
				checkAssign(pass, st)
			}
			return true
		})
	}
	return nil
}

// check reports call if its callee is a simulator function (or a
// simulator-declared func value, e.g. an emit callback) whose results
// include an error.
func check(pass *analysis.Pass, call *ast.CallExpr, how string) {
	name, idx, _ := simErrCallee(pass, call)
	if idx < 0 {
		return
	}
	pass.Reportf(call.Pos(), "error result of %s %s", name, how)
}

// checkAssign reports `_`-in-error-position assignments from sim calls:
// v, _ := dev.Run(...) and _ = emit(b).
func checkAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, idx, nres := simErrCallee(pass, call)
	if idx < 0 {
		return
	}
	var target ast.Expr
	switch {
	case nres == len(st.Lhs):
		target = st.Lhs[idx]
	case nres == 1 && len(st.Lhs) == 1:
		target = st.Lhs[0]
	default:
		return
	}
	if id, ok := target.(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(call.Pos(), "error result of %s is assigned to _: handle it or feed it to the recovery path", name)
	}
}

// simErrCallee resolves the call's callee and, when it belongs to a
// simulation package and returns an error, yields a display name, the
// error's index in the result tuple, and the tuple length. Two callee kinds
// qualify: a statically-resolved function or method declared in a sim
// package, and a func-typed value (parameter, field, local — e.g. a
// device.Run emit callback) declared in a sim package. Calls that resolve to
// neither are skipped.
func simErrCallee(pass *analysis.Pass, call *ast.CallExpr) (string, int, int) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", -1, 0
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil || obj.Pkg() == nil || !inSimPackage(obj.Pkg().Path()) {
		return "", -1, 0
	}
	var name string
	switch obj.(type) {
	case *types.Func:
		name = obj.Pkg().Name() + "." + obj.Name()
	case *types.Var:
		name = obj.Name() // a func value: the variable name is the best label
	default:
		return "", -1, 0
	}
	sig, ok := obj.Type().Underlying().(*types.Signature)
	if !ok {
		return "", -1, 0
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return name, i, res.Len()
		}
	}
	return "", -1, 0
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}

func inSimPackage(path string) bool {
	for _, s := range analysis.SimPackages {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
