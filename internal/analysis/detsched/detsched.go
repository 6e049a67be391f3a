// Package detsched flags scheduler-order nondeterminism the runtime
// determinism tests can only sample. The simulator's contract is
// byte-identical fingerprints at any GOMAXPROCS, worker count, or fleet
// size; that holds only if no result ever depends on which goroutine the Go
// runtime happened to run first. Three constructions break it silently:
//
//   - a multi-case select: whichever channel is ready first wins, and with
//     more than one comm case "first" is a runtime race. Deterministic code
//     drains channels in a fixed order or uses a single-case select (a
//     default case makes the select a non-blocking poll and is exempt
//     because the poll outcome must then be handled explicitly);
//   - goroutine fan-in that collects results by append (or by writing a
//     shared map) from inside the goroutines: arrival order becomes slice
//     order. Deterministic fan-in pre-sizes the slice and writes
//     results[i] by the worker's own index, merging after Wait;
//   - iteration over an unordered container feeding a fingerprint:
//     sync.Map anywhere, or a map range whose body updates a hash or calls
//     a *Fingerprint* function — map iteration order is randomized by the
//     runtime, so the digest differs run to run.
//
// No package is allow-listed: an allow directive for this analyzer is itself
// a finding, wherever it appears. The one exception the tree used to carry —
// the goroutine scheduler's cancellable Ticket.Wait — went away with that
// scheduler.
package detsched

import (
	"go/ast"
	"go/types"
	"strings"

	"hybridndp/internal/analysis"
)

// SimPackages mirrors wallclock's list.
var SimPackages = []string{"vclock", "coop", "exec", "ftl", "lsm", "flash", "sched", "device", "hw", "obs", "fault", "fleet", "serve"}

// Analyzer is the detsched check.
var Analyzer = &analysis.Analyzer{
	Name:      "detsched",
	Doc:       "flags scheduler-order nondeterminism: multi-case selects, order-dependent goroutine fan-in, unordered iteration feeding fingerprints",
	Packages:  SimPackages,
	SkipTests: true,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.SelectStmt:
				checkSelect(pass, st)
			case *ast.SelectorExpr:
				checkSyncMap(pass, st)
			case *ast.ValueSpec:
				checkSyncMapType(pass, st.Type)
			case *ast.Field:
				checkSyncMapType(pass, st.Type)
			case *ast.GoStmt:
				checkFanIn(pass, st)
			case *ast.RangeStmt:
				checkMapFingerprint(pass, st)
			}
			return true
		})
	}
	return nil
}

// checkSelect reports selects with two or more comm clauses. A default
// clause is not a comm clause; a select containing one is a non-blocking
// poll whose outcome the code must branch on anyway.
func checkSelect(pass *analysis.Pass, st *ast.SelectStmt) {
	comms := 0
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		pass.Reportf(st.Pos(), "select with %d comm cases resolves in scheduler order: drain channels in a fixed order or document why the outcomes converge", comms)
	}
}

// checkSyncMap reports any mention of sync.Map: its iteration order and
// its Load/Store interleaving are both scheduler-dependent.
func checkSyncMap(pass *analysis.Pass, sel *ast.SelectorExpr) {
	if t := pass.TypeOf(sel.X); isSyncMap(t) {
		pass.Reportf(sel.Pos(), "sync.Map is scheduler-order-dependent: use a plain map under a mutex with sorted iteration")
	}
}

func checkSyncMapType(pass *analysis.Pass, texpr ast.Expr) {
	if texpr == nil {
		return
	}
	if t := pass.TypeOf(texpr); isSyncMap(t) {
		pass.Reportf(texpr.Pos(), "sync.Map is scheduler-order-dependent: use a plain map under a mutex with sorted iteration")
	}
}

func isSyncMap(t types.Type) bool {
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
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Map"
}

// checkFanIn reports goroutine bodies that merge results in arrival order:
// an append whose target is declared outside the goroutine, or an index
// write into an outer map. Writing results[i] for a captured per-worker
// index i into an outer pre-sized slice is the deterministic idiom and is
// not flagged.
func checkFanIn(pass *analysis.Pass, st *ast.GoStmt) {
	lit, ok := st.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	outer := outerObjects(pass, lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != lit {
			return true // nested literals inherit the same capture analysis
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			// x = append(x, ...) with x captured from outside the goroutine.
			if i < len(as.Rhs) {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isAppend(call) {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && outer[pass.Info.ObjectOf(id)] {
						pass.Reportf(as.Pos(), "append to %s inside a goroutine orders results by arrival: write results[i] by worker index and merge after Wait", id.Name)
						continue
					}
				}
			}
			// m[k] = v with m an outer map.
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if id, ok := ast.Unparen(ix.X).(*ast.Ident); ok && outer[pass.Info.ObjectOf(id)] {
					if _, isMap := pass.TypeOf(ix.X).Underlying().(*types.Map); isMap {
						pass.Reportf(as.Pos(), "write to shared map %s inside a goroutine interleaves in scheduler order: collect per-worker and merge deterministically after Wait", id.Name)
					}
				}
			}
		}
		return true
	})
}

// outerObjects collects the objects referenced in lit that are declared
// outside it (captured variables).
func outerObjects(pass *analysis.Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			out[obj] = true
		}
		return true
	})
	return out
}

func isAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

// checkMapFingerprint reports map ranges whose body feeds a digest: a call
// to a method on a hash.Hash-ish value (package path starting "hash" or
// "crypto"), a call to a function whose name contains "Fingerprint", or an
// fmt.Fprint* into such a value.
func checkMapFingerprint(pass *analysis.Pass, st *ast.RangeStmt) {
	t := pass.TypeOf(st.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	done := false
	ast.Inspect(st.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(pass, call); fn != nil && strings.Contains(fn.Name(), "Fingerprint") {
			pass.Reportf(st.Pos(), "map iteration order feeds %s: iterate sorted keys so the digest is deterministic", fn.Name())
			done = true
			return false
		}
		// A method invoked on a hash/crypto-typed value (h.Write, d.Sum):
		// the receiver's static type decides, because embedded interface
		// methods (hash.Hash's Write) resolve to io.Writer otherwise.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isHashValue(pass.TypeOf(sel.X)) {
			pass.Reportf(st.Pos(), "map iteration order feeds %s: iterate sorted keys so the digest is deterministic", sel.Sel.Name)
			done = true
			return false
		}
		return true
	})
}

func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.ObjectOf(id).(*types.Func)
	return fn
}

// isHashValue reports whether t is a named type from a hash or crypto
// package (hash.Hash, hash.Hash32, sha256 digests, ...).
func isHashValue(t types.Type) bool {
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
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "hash" || strings.HasPrefix(path, "hash/") || strings.HasPrefix(path, "crypto/")
}
