// Package chargecheck enforces the simulator's core accounting invariant:
// every modeled I/O — a flash read or write, a device batch emission, a
// host-side fetch of a device batch — must charge virtual time to a
// vclock.Timeline. The cost model's split decisions (paper §4) are computed
// from timeline accounts, so an I/O path that moves modeled bytes without a
// Charge silently biases every offload decision built on top of it.
//
// The check is fact-based and whole-program: a function that charges a
// timeline — directly via Timeline.Charge / Timeline.WaitUntil, or by
// calling a callee already known to charge — exports a "charges" object fact
// that importing packages see (flash.ReadAt charges internally, so an lsm
// read through it is covered without lsm charging again). A modeled-I/O call
// site is then flagged when neither holds: the callee carries no charges
// fact AND the enclosing top-level function never charges anything.
//
// Modeled-I/O call sites are:
//
//   - methods ReadAt / ReadAtSeq / ReadFile / WriteFile on a type from a
//     package whose path ends in "flash" (the flash channel),
//   - dynamic calls of a func(device.Batch) error value (the device → host
//     batch emission surface: Device.Run / RunShard emit callbacks),
//   - methods Run / RunShard / ScanLeafPartition on a type
//     named Device from a package whose path ends in "device".
//
// Like lockcheck, the analysis is deliberately approximate: "the enclosing
// function charges" is a containment check, not a dominator analysis, so a
// charge on one branch excuses an emission on another. The fact computation
// additionally records whether a function charges on *every* control-flow
// path (see pathcharge.go); the strong form is exported for downstream
// tooling but the site rule accepts the weak form, trading path precision
// for a near-zero false-positive rate on the buffering/merge patterns the
// executors legitimately use. What it reliably catches is the regression
// that motivates it: a new I/O surface wired up with no accounting at all.
package chargecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hybridndp/internal/analysis"
)

// SimPackages mirrors wallclock's list: the packages whose I/O must be
// accounted (duplicated here so the analyzer stays self-contained).
var SimPackages = []string{"vclock", "coop", "exec", "ftl", "lsm", "flash", "sched", "device", "hw", "obs", "fault", "fleet", "serve"}

// ChargesFact marks a function that charges a vclock.Timeline: on at least
// one path (weak form), or on every terminating path (Always).
type ChargesFact struct {
	Always bool
}

// AFact marks ChargesFact as an analysis fact.
func (*ChargesFact) AFact() {}

// Analyzer is the chargecheck check.
var Analyzer = &analysis.Analyzer{
	Name:      "chargecheck",
	Doc:       "modeled I/O (flash reads, batch emits) must charge a vclock.Timeline, directly or via a fact-carrying callee",
	Packages:  SimPackages,
	AllowIn:   []string{"internal/device", "internal/coop", "internal/fleet"},
	SkipTests: true,
	Run:       run,
}

// flashIOMethods are the flash-channel surfaces.
var flashIOMethods = map[string]bool{
	"ReadAt": true, "ReadAtSeq": true, "ReadFile": true, "WriteFile": true,
}

// deviceIOMethods are the device execution surfaces that stream batches.
var deviceIOMethods = map[string]bool{
	"Run": true, "RunShard": true, "ScanLeafPartition": true,
}

func run(pass *analysis.Pass) error {
	if isPkg(pass.Path, "vclock") {
		// The package defining Charge/WaitUntil is the mechanism, not a user.
		return nil
	}

	funcs := collectFuncs(pass)
	computeCharges(pass, funcs)

	// Report modeled-I/O sites that are covered by neither the callee's fact
	// nor a charge in the enclosing top-level function.
	for _, fn := range funcs {
		if fn.charges {
			continue
		}
		for _, site := range fn.ioSites {
			pass.Reportf(site.pos, "modeled I/O %s in %s, which never charges a vclock.Timeline on any path (charge directly or route through a charging helper)",
				site.desc, fn.name)
		}
	}
	return nil
}

// funcInfo is one top-level function's accounting summary. Nested function
// literals are folded into their enclosing declaration: a charge inside a
// closure counts for the whole function, and an I/O site inside a closure is
// attributed to it.
type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	name    string
	charges bool // charges a timeline somewhere (weak form)
	always  bool // charges on every terminating path (strong form)
	callees []*types.Func
	ioSites []ioSite
}

type ioSite struct {
	pos  token.Pos
	desc string
}

func collectFuncs(pass *analysis.Pass) []*funcInfo {
	var out []*funcInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &funcInfo{decl: fd, name: funcLabel(fd)}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				fn.obj = obj
			}
			scanBody(pass, fd.Body, fn)
			out = append(out, fn)
		}
	}
	return out
}

// funcLabel renders "Recv.Name" or "Name" for messages.
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// scanBody records direct charges, callees, and modeled-I/O sites of one
// function body (nested literals included).
func scanBody(pass *analysis.Pass, body *ast.BlockStmt, fn *funcInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isDirectCharge(pass, call) {
			fn.charges = true
			return true
		}
		if callee := calleeFunc(pass, call); callee != nil {
			fn.callees = append(fn.callees, callee)
			if m, kind := ioMethod(pass, call, callee); kind != "" {
				fn.ioSites = append(fn.ioSites, ioSite{pos: call.Pos(), desc: kind + " " + m})
			}
			return true
		}
		// Dynamic call: a func-typed variable, parameter or field. The batch
		// emission surface is the error-returning emit callback.
		if desc, ok := emitCall(pass, call); ok {
			fn.ioSites = append(fn.ioSites, ioSite{pos: call.Pos(), desc: desc})
		}
		return true
	})
	fn.always = chargesOnAllPaths(pass, body, nil)
}

// computeCharges runs the intra-package fixpoint over the callee graph and
// exports facts. Cross-package callees contribute through previously
// imported facts (the driver analyzes dependencies first).
func computeCharges(pass *analysis.Pass, funcs []*funcInfo) {
	calleeCharges := func(fn *funcInfo, local map[*types.Func]bool) bool {
		for _, c := range fn.callees {
			if local[c] {
				return true
			}
			if _, ok := pass.ImportObjectFact(c); ok {
				return true
			}
		}
		return false
	}
	local := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if fn.charges {
				if fn.obj != nil && !local[fn.obj] {
					local[fn.obj] = true
					changed = true
				}
				continue
			}
			if calleeCharges(fn, local) {
				fn.charges = true
				if fn.obj != nil && !local[fn.obj] {
					local[fn.obj] = true
					changed = true
				}
			}
		}
	}
	for _, fn := range funcs {
		if fn.charges && fn.obj != nil {
			// The strong form also needs every callee-based path to charge;
			// keep it honest by requiring the syntactic all-paths result to
			// have seen either a direct charge or a charging callee on every
			// path (chargesOnAllPaths already consults the same fact store).
			pass.ExportObjectFact(fn.obj, &ChargesFact{Always: fn.always})
		}
	}
	// Second pass over all-paths now that local facts exist: a function whose
	// every path calls a just-discovered charging sibling upgrades to Always.
	for _, fn := range funcs {
		if fn.charges && fn.obj != nil && !fn.always {
			if chargesOnAllPaths(pass, fn.decl.Body, local) {
				pass.ExportObjectFact(fn.obj, &ChargesFact{Always: true})
			}
		}
	}
}

// isDirectCharge reports whether call is Timeline.Charge or Timeline.WaitUntil
// on a vclock Timeline value.
func isDirectCharge(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Charge" && sel.Sel.Name != "WaitUntil" {
		return false
	}
	return isNamedType(pass.TypeOf(sel.X), "vclock", "Timeline")
}

// calleeFunc resolves the static callee of a call, or nil for dynamic calls,
// conversions and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if f, ok := pass.Info.Uses[id].(*types.Func); ok {
		return f
	}
	return nil
}

// ioMethod classifies a resolved method call as a modeled-I/O surface.
func ioMethod(pass *analysis.Pass, call *ast.CallExpr, callee *types.Func) (name, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	recv := pass.TypeOf(sel.X)
	if recv == nil {
		return "", ""
	}
	if flashIOMethods[callee.Name()] && isNamedTypeAny(recv, "flash") {
		return typeLabel(recv) + "." + callee.Name(), "flash access"
	}
	if deviceIOMethods[callee.Name()] && isNamedType(recv, "device", "Device") {
		return "Device." + callee.Name(), "device execution"
	}
	return "", ""
}

// emitCall reports whether call invokes a func(device.Batch) error value —
// the batch emission callback type.
func emitCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return "", false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return "", false
	}
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return "", false
	}
	if !isNamedType(sig.Params().At(0).Type(), "device", "Batch") {
		return "", false
	}
	if !isErrorType(sig.Results().At(0).Type()) {
		return "", false
	}
	return "batch emit " + exprLabel(call.Fun), true
}

// isNamedType reports whether t (possibly a pointer) is the named type
// pkgSuffix.name, matching the package by import-path suffix so fixture
// stubs stand in for the real packages.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return isPkg(obj.Pkg().Path(), pkgSuffix)
}

// isNamedTypeAny is isNamedType without pinning the type name.
func isNamedTypeAny(t types.Type, pkgSuffix string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && isPkg(obj.Pkg().Path(), pkgSuffix)
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

func isPkg(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// typeLabel renders the receiver type's bare name.
func typeLabel(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj() != nil {
		return named.Obj().Name()
	}
	return t.String()
}

// exprLabel renders a short label for the called expression.
func exprLabel(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprLabel(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprLabel(v.X)
	}
	return "callback"
}
