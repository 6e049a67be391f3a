// Package spanbalance enforces that every obs.Trace.Start is paired with
// Span.End on every control-flow path. An un-ended span is not cosmetic in
// this simulator: Trace keeps a per-timeline stack of open spans, so a span
// leaked on an error path leaves the stack pointing at a dead span and every
// later span on that timeline — including the spans of a fault-injection
// *retry* of the same query — nests under it, corrupting the trace tree the
// tracecheck CI gate validates.
//
// The analysis interprets each function body statement by statement,
// tracking every variable bound to a Start result:
//
//   - sp := tr.Start(...) opens the span (chained .Attr/.AttrInt are
//     transparent). A Start result that is neither captured nor immediately
//     .End()ed in the same chain is reported as dropped.
//   - sp.End() — directly or at the end of an attr chain — closes it;
//     defer sp.End() balances every subsequent exit.
//   - A return (or the implicit fall-off-the-end of a void function) while a
//     span is definitely open is reported at the return.
//   - Reassigning an open span variable to a fresh Start is reported: the
//     old span can no longer be ended through that name.
//   - Passing the span to a call, returning it, storing it in a field,
//     slice, map or other variable, or capturing it in a closure transfers
//     ownership: the variable is treated as balanced from then on.
//
// Branches merge pessimistically (open in either arm counts as open), loop
// bodies are interpreted once, and a span started inside a loop body must be
// closed by the end of that body. The obs package itself — where Start and
// End are defined — is exempt.
package spanbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hybridndp/internal/analysis"
)

// Analyzer is the spanbalance check.
var Analyzer = &analysis.Analyzer{
	Name:      "spanbalance",
	Doc:       "every obs.Trace.Start must be paired with Span.End on all control-flow paths",
	Packages:  analysis.SimPackages,
	AllowIn:   []string{"internal/coop", "internal/device"},
	SkipTests: true,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	if isPkg(pass.Path, "obs") {
		return nil // the defining package manages spans by hand
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// spanState is one tracked span variable's abstract state.
type spanState int

const (
	stateOpen spanState = iota
	stateClosed
	stateEscaped // ownership transferred or defer-ended: balanced by fiat
)

// span is one tracked Start result.
type span struct {
	obj   types.Object
	name  string // span label for messages (the Start name argument if literal)
	start token.Pos
}

// env maps tracked spans to their state along one path.
type env map[*span]spanState

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// merge folds a branch's exit state into e: open in either is open.
func (e env) merge(o env) {
	for k, v := range o {
		cur, ok := e[k]
		if !ok {
			e[k] = v
			continue
		}
		if v == stateOpen || cur == stateOpen {
			e[k] = stateOpen
		} else if v == stateEscaped || cur == stateEscaped {
			e[k] = stateEscaped
		}
	}
}

// checker interprets one function body. Nested function literals are
// separate functions (checked on their own); a reference to an outer span
// inside one is an escape.
type checker struct {
	pass *analysis.Pass
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass}
	e := env{}
	terminated := c.stmts(body.List, e)
	if !terminated {
		c.reportOpen(e, body.End(), "at the end of the function")
	}
}

// stmts interprets a list; returns true when every path terminates.
func (c *checker) stmts(list []ast.Stmt, e env) bool {
	for _, s := range list {
		if c.stmt(s, e) {
			return true
		}
	}
	return false
}

// stmt interprets one statement into e; returns true if the path terminates.
func (c *checker) stmt(s ast.Stmt, e env) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		c.assign(st, e)
		return false
	case *ast.ExprStmt:
		if isPanic(st.X) {
			return true
		}
		c.expr(st.X, e, true)
		return false
	case *ast.DeferStmt:
		// defer sp.End() (possibly through an attr chain or a closure that
		// ends it) balances every subsequent exit.
		if sp := c.endTarget(st.Call, e); sp != nil {
			e[sp] = stateEscaped
			return false
		}
		c.expr(st.Call, e, false)
		return false
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			c.expr(r, e, false)
		}
		c.reportOpen(e, st.Pos(), "at this return")
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return c.stmts(st.List, e)
	case *ast.LabeledStmt:
		return c.stmt(st.Stmt, e)
	case *ast.IfStmt:
		if st.Init != nil {
			c.stmt(st.Init, e)
		}
		c.expr(st.Cond, e, false)
		thenEnv := e.clone()
		thenTerm := c.stmts(st.Body.List, thenEnv)
		elseEnv := e.clone()
		elseTerm := false
		if st.Else != nil {
			elseTerm = c.stmt(st.Else, elseEnv)
		}
		for k := range e {
			delete(e, k)
		}
		switch {
		case thenTerm && elseTerm:
			e.merge(thenEnv) // arbitrary: both terminated, state unused
			return true
		case thenTerm:
			e.merge(elseEnv)
		case elseTerm:
			e.merge(thenEnv)
		default:
			e.merge(thenEnv)
			e.merge(elseEnv)
		}
		return false
	case *ast.ForStmt:
		if st.Init != nil {
			c.stmt(st.Init, e)
		}
		c.loopBody(st.Body, e)
		return false
	case *ast.RangeStmt:
		c.expr(st.X, e, false)
		c.loopBody(st.Body, e)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		c.clauses(s, e)
		return false
	case *ast.GoStmt:
		c.expr(st.Call, e, false)
		return false
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, e, false)
					}
				}
			}
		}
		return false
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if ex, ok := n.(ast.Expr); ok {
				c.expr(ex, e, false)
				return false
			}
			return true
		})
		return false
	}
}

// loopBody interprets a loop body once. Spans opened inside the body must be
// closed by its end — each iteration would leak one otherwise.
func (c *checker) loopBody(body *ast.BlockStmt, e env) {
	inner := e.clone()
	c.stmts(body.List, inner)
	for sp, st := range inner {
		if _, existed := e[sp]; existed {
			e[sp] = st
			continue
		}
		if st == stateOpen {
			c.pass.Reportf(sp.start, "span %s started in a loop body is not ended before the iteration ends", sp.name)
		}
	}
}

// clauses interprets switch/type-switch/select clause bodies as branches.
func (c *checker) clauses(s ast.Stmt, e env) {
	var bodies [][]ast.Stmt
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.stmt(st.Init, e)
		}
		if st.Tag != nil {
			c.expr(st.Tag, e, false)
		}
		for _, cl := range st.Body.List {
			bodies = append(bodies, cl.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			bodies = append(bodies, cl.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			bodies = append(bodies, cl.(*ast.CommClause).Body)
		}
	}
	base := e.clone()
	merged := false
	for _, b := range bodies {
		be := base.clone()
		if !c.stmts(b, be) {
			if !merged {
				for k := range e {
					delete(e, k)
				}
				e.merge(be)
				merged = true
			} else {
				e.merge(be)
			}
		}
	}
}

// assign handles span births (sp := tr.Start(...)), reassignments, ends via
// chains on the RHS, and ownership transfers.
func (c *checker) assign(st *ast.AssignStmt, e env) {
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) {
			c.expr(rhs, e, false)
			continue
		}
		lhs := st.Lhs[i]
		if startCall, name := c.startChain(rhs); startCall != nil {
			id, blank := lhsIdent(lhs)
			if id == nil {
				if !blank {
					// Stored straight into a field/slice/map: escaped.
					c.expr(lhs, e, false)
					continue
				}
				// _ = tr.Start(...): explicitly discarded, never endable.
				c.pass.Reportf(startCall.Pos(), "span %s is started and discarded: the Start result must be ended", name)
				continue
			}
			obj := c.pass.Info.ObjectOf(id)
			if prev := findSpan(e, obj); prev != nil {
				if e[prev] == stateOpen {
					c.pass.Reportf(startCall.Pos(), "span variable %s is reassigned while span %s is still open", id.Name, prev.name)
				}
				// The name now denotes the new span; stop tracking the old
				// binding (its leak, if any, was just reported).
				delete(e, prev)
			}
			sp := &span{obj: obj, name: name, start: startCall.Pos()}
			e[sp] = stateOpen
			continue
		}
		// Non-Start RHS: any tracked span mentioned escapes (stored away).
		c.expr(rhs, e, false)
		if id, _ := lhsIdent(lhs); id == nil {
			c.expr(lhs, e, false)
		}
	}
}

// expr scans an expression for span events. When stmtLevel is true the
// expression is a standalone statement, so a bare Start chain without End is
// a drop and an End chain is a close; otherwise any mention of a tracked
// span that is not an End/attr chain is an escape.
func (c *checker) expr(x ast.Expr, e env, stmtLevel bool) {
	if x == nil {
		return
	}
	// End through a chain rooted at a tracked variable?
	if call, ok := x.(*ast.CallExpr); ok {
		if sp := c.endTarget(call, e); sp != nil {
			if e[sp] != stateEscaped {
				e[sp] = stateClosed
			}
			// Arguments of the attr chain may still mention other spans.
			for _, a := range call.Args {
				c.expr(a, e, false)
			}
			return
		}
		if startCall, name := c.startChain(x); startCall != nil && stmtLevel {
			c.pass.Reportf(startCall.Pos(), "span %s is started and dropped: end it, defer its End, or assign it", name)
			return
		}
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// Capture by a closure: every tracked span mentioned escapes.
			c.escapeMentions(v.Body, e)
			return false
		case *ast.CallExpr:
			if sp := c.endTarget(v, e); sp != nil {
				if e[sp] != stateEscaped {
					e[sp] = stateClosed
				}
				return false
			}
			// A span passed as an argument escapes; attr chains on the span
			// keep it open but are not escapes.
			if root, isChain := c.attrChainRoot(v); isChain {
				_ = root
				for _, a := range v.Args {
					c.expr(a, e, false)
				}
				return false
			}
			return true
		case *ast.Ident:
			if sp := findSpan(e, c.pass.Info.ObjectOf(v)); sp != nil && e[sp] == stateOpen {
				e[sp] = stateEscaped
			}
		}
		return true
	})
}

// escapeMentions marks every tracked span referenced under n as escaped.
func (c *checker) escapeMentions(n ast.Node, e env) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if sp := findSpan(e, c.pass.Info.ObjectOf(id)); sp != nil {
				e[sp] = stateEscaped
			}
		}
		return true
	})
}

// startChain unwraps a (possibly attr-chained) Trace.Start call: returns the
// Start call and the span's display name, or nil.
func (c *checker) startChain(x ast.Expr) (*ast.CallExpr, string) {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Start":
		if !isNamedType(c.pass.TypeOf(sel.X), "obs", "Trace") {
			return nil, ""
		}
		name := "(dynamic)"
		if len(call.Args) >= 2 {
			name = render(call.Args[1])
		}
		return call, name
	case "Attr", "AttrInt":
		if !isNamedType(c.pass.TypeOf(sel.X), "obs", "Span") {
			return nil, ""
		}
		return c.startChain(sel.X)
	}
	return nil, ""
}

// endTarget resolves calls of the form sp.End(), sp.Attr(...).End(), ... to
// the tracked span variable sp, or nil.
func (c *checker) endTarget(call *ast.CallExpr, e env) *span {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	root := chainRoot(sel.X)
	if root == nil {
		return nil
	}
	return findSpan(e, c.pass.Info.ObjectOf(root))
}

// attrChainRoot reports whether call is an Attr/AttrInt chain on a tracked
// span (kept open, not an escape) and returns its root identifier.
func (c *checker) attrChainRoot(call *ast.CallExpr) (*ast.Ident, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if sel.Sel.Name != "Attr" && sel.Sel.Name != "AttrInt" {
		return nil, false
	}
	if !isNamedType(c.pass.TypeOf(sel.X), "obs", "Span") {
		return nil, false
	}
	root := chainRoot(sel.X)
	return root, root != nil
}

// chainRoot walks sp.Attr(...).AttrInt(...) ... back to the base identifier.
func chainRoot(x ast.Expr) *ast.Ident {
	for {
		switch v := x.(type) {
		case *ast.Ident:
			return v
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			x = sel.X
		case *ast.ParenExpr:
			x = v.X
		case *ast.SelectorExpr:
			x = v.X
		default:
			return nil
		}
	}
}

// findSpan looks a variable object up among the tracked spans.
func findSpan(e env, obj types.Object) *span {
	if obj == nil {
		return nil
	}
	for sp := range e {
		if sp.obj == obj {
			return sp
		}
	}
	return nil
}

// reportOpen reports every span definitely open in e.
func (c *checker) reportOpen(e env, pos token.Pos, where string) {
	// Deterministic order: by start position.
	var open []*span
	for sp, st := range e {
		if st == stateOpen {
			open = append(open, sp)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].start < open[j].start })
	for _, sp := range open {
		c.pass.Reportf(pos, "span %s (started at line %d) may still be open %s: End it on this path or defer its End",
			sp.name, c.pass.Fset.Position(sp.start).Line, where)
	}
}

// lhsIdent classifies an assignment target: a plain identifier (tracked), the
// blank identifier, or something else (field/index — an escape).
func lhsIdent(lhs ast.Expr) (*ast.Ident, bool) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil, false
	}
	if id.Name == "_" {
		return nil, true
	}
	return id, false
}

// isNamedType reports whether t (possibly a pointer) is pkgSuffix.name.
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

func isPkg(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isPanic reports whether e is a call to the builtin panic.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// render prints a short label for the span-name argument.
func render(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Value
	case *ast.Ident:
		return v.Name
	case *ast.BinaryExpr:
		return render(v.X) + "+…"
	}
	return "(expr)"
}
