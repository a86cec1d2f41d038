package analyzers

import (
	"go/ast"
	"go/types"
)

// SpanHygiene enforces the obs span and metric conventions the
// instrumentation of PRs 2-5 established by hand:
//
//   - every span a function starts (obs.StartSpan, Trace.Start,
//     Span.Start) is ended on every return path out of that function —
//     the checker walks the statement structure path-sensitively, so
//     the codebase's mid-function `sp.End()`-per-branch style passes
//     without rewriting it into defers;
//   - a span handle is not silently dropped (Start in expression
//     position with no End) or overwritten while still open;
//   - counters, gauges, and histograms are registered under constant
//     names, because the checktrace validator and the metrics table
//     key on stable metric names across runs.
//
// Handing a span to someone else — returning it, storing it in a
// struct or field, capturing it in a goroutine — transfers the End
// obligation out of the function, so such spans are not tracked
// further. Passing a span as a plain call argument does not, and that
// includes putting it on a context with obs.WithSpan to parent the
// layers' spans: the flow's convention is that the creator ends stage
// spans it passes down (flow.go ends psp after runPlacement returns).
var SpanHygiene = &Analyzer{
	Name: "spanhygiene",
	Doc: "flag obs spans not ended on every return path and metrics " +
		"registered under non-constant names",
	Run: runSpanHygiene,
}

const obsPkg = "primopt/internal/obs"

func runSpanHygiene(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeSpanBody(p, fd.Body)
		}
		// Every function literal is its own scope with its own End
		// obligations (worker goroutines start replica spans).
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				analyzeSpanBody(p, fl.Body)
			}
			return true
		})
		checkMetricNames(p, f)
	}
}

// spanCreating reports whether call starts a span: a call to Start or
// StartSpan whose static result type is *obs.Span.
func spanCreating(p *Pass, call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	if name != "Start" && name != "StartSpan" {
		return false
	}
	tv, ok := p.Info.Types[call]
	return ok && tv.Type != nil && typeIs(tv.Type, obsPkg, "Span")
}

// endCallObj returns the span variable whose End() the expression
// calls, if it is exactly that shape.
func endCallObj(p *Pass, e ast.Expr) types.Object {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.Info.Uses[id]
	if obj == nil || !typeIs(obj.Type(), obsPkg, "Span") {
		return nil
	}
	return obj
}

// spanFacts is the per-function prepass result.
type spanFacts struct {
	created  map[types.Object]bool // spans started in this body (outside nested literals)
	escaped  map[types.Object]bool // End obligation transferred elsewhere
	deferred map[types.Object]bool // ended by defer — covered on every path incl. panics
}

func collectSpanFacts(p *Pass, body *ast.BlockStmt) *spanFacts {
	fx := &spanFacts{
		created:  map[types.Object]bool{},
		escaped:  map[types.Object]bool{},
		deferred: map[types.Object]bool{},
	}
	// Creations and defers, excluding nested function literals (those
	// are analyzed as their own scopes).
	inspectSkippingFuncLits(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !spanCreating(p, call) || i >= len(x.Lhs) {
					continue
				}
				if obj := lhsObject(p, x.Lhs[i]); obj != nil {
					fx.created[obj] = true
				}
			}
		case *ast.DeferStmt:
			if obj := endCallObj(p, x.Call); obj != nil {
				fx.deferred[obj] = true
			}
		}
	})
	// Escapes: uses that transfer the End obligation.
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			for _, obj := range identUses(p, x.Body) {
				if fx.created[obj] {
					fx.escaped[obj] = true
				}
			}
			return false
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				for _, obj := range identUses(p, res) {
					if fx.created[obj] {
						fx.escaped[obj] = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				for _, obj := range identUses(p, elt) {
					if fx.created[obj] {
						fx.escaped[obj] = true
					}
				}
			}
		case *ast.SendStmt:
			for _, obj := range identUses(p, x.Value) {
				if fx.created[obj] {
					fx.escaped[obj] = true
				}
			}
		case *ast.AssignStmt:
			// A bare span identifier on the right of an assignment
			// aliases or stores the handle (x.span = sp, sp2 := sp).
			for _, rhs := range x.Rhs {
				if id, ok := rhs.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && fx.created[obj] {
						fx.escaped[obj] = true
					}
				}
			}
		}
		return true
	})
	return fx
}

func identUses(p *Pass, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

func inspectSkippingFuncLits(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// analyzeSpanBody walks one function body path-sensitively, tracking
// which started spans are still open, and reports spans that can
// reach a return (or the end of the function) without End.
func analyzeSpanBody(p *Pass, body *ast.BlockStmt) {
	fx := collectSpanFacts(p, body)
	tracked := func(obj types.Object) bool {
		return fx.created[obj] && !fx.escaped[obj] && !fx.deferred[obj]
	}
	st := map[types.Object]bool{}
	out, terminated := walkSpanStmts(p, body.List, st, fx, tracked)
	if !terminated {
		for obj := range out {
			p.Reportf(obj.Pos(),
				"span %s is not ended before the function returns", obj.Name())
		}
	}
}

func copyState(st map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// walkSpanStmts interprets a statement list over the open-span state.
// It returns the fall-through state and whether every path through
// the list terminates (return / panic / branch).
func walkSpanStmts(p *Pass, stmts []ast.Stmt, st map[types.Object]bool, fx *spanFacts, tracked func(types.Object) bool) (map[types.Object]bool, bool) {
	for _, s := range stmts {
		var term bool
		st, term = walkSpanStmt(p, s, st, fx, tracked)
		if term {
			return st, true
		}
	}
	return st, false
}

func walkSpanStmt(p *Pass, s ast.Stmt, st map[types.Object]bool, fx *spanFacts, tracked func(types.Object) bool) (map[types.Object]bool, bool) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for i, rhs := range x.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !spanCreating(p, call) || i >= len(x.Lhs) {
				continue
			}
			obj := lhsObject(p, x.Lhs[i])
			if obj == nil || !tracked(obj) {
				continue
			}
			if st[obj] {
				p.Reportf(x.Pos(),
					"span %s reassigned while still open: the previous span is never ended", obj.Name())
			}
			st[obj] = true
		}
	case *ast.ExprStmt:
		if obj := endCallObj(p, x.X); obj != nil {
			delete(st, obj)
			break
		}
		if call, ok := x.X.(*ast.CallExpr); ok {
			if spanCreating(p, call) {
				p.Reportf(x.Pos(),
					"span started and immediately discarded: keep the handle and End it")
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					return st, true
				}
			}
		}
	case *ast.ReturnStmt:
		for obj := range st {
			p.Reportf(x.Pos(),
				"span %s is not ended on this return path", obj.Name())
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.BlockStmt:
		return walkSpanStmts(p, x.List, st, fx, tracked)
	case *ast.LabeledStmt:
		return walkSpanStmt(p, x.Stmt, st, fx, tracked)
	case *ast.IfStmt:
		if x.Init != nil {
			st, _ = walkSpanStmt(p, x.Init, st, fx, tracked)
		}
		thenSt, thenTerm := walkSpanStmts(p, x.Body.List, copyState(st), fx, tracked)
		elseSt, elseTerm := copyState(st), false
		if x.Else != nil {
			elseSt, elseTerm = walkSpanStmt(p, x.Else, elseSt, fx, tracked)
		}
		return mergeStates(thenSt, thenTerm, elseSt, elseTerm)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return walkCaseBodies(p, s, st, fx, tracked)
	case *ast.SelectStmt:
		return walkSelect(p, x, st, fx, tracked)
	case *ast.ForStmt:
		if x.Init != nil {
			st, _ = walkSpanStmt(p, x.Init, st, fx, tracked)
		}
		walkLoopBody(p, x.Body, st, fx, tracked)
		return st, false
	case *ast.RangeStmt:
		walkLoopBody(p, x.Body, st, fx, tracked)
		return st, false
	}
	return st, false
}

// walkLoopBody checks a loop body with the loop-entry state and
// reports spans started inside the body that are still open when the
// body falls through to the next iteration — each iteration would
// leak one. The after-loop state is the entry state: the loop may run
// zero times, so spans open before it stay the caller's problem.
func walkLoopBody(p *Pass, body *ast.BlockStmt, entry map[types.Object]bool, fx *spanFacts, tracked func(types.Object) bool) {
	bodyOut, term := walkSpanStmts(p, body.List, copyState(entry), fx, tracked)
	if term {
		return
	}
	for obj := range bodyOut {
		if !entry[obj] {
			p.Reportf(obj.Pos(),
				"span %s started inside a loop is not ended before the next iteration", obj.Name())
		}
	}
}

func mergeStates(aSt map[types.Object]bool, aTerm bool, bSt map[types.Object]bool, bTerm bool) (map[types.Object]bool, bool) {
	switch {
	case aTerm && bTerm:
		return map[types.Object]bool{}, true
	case aTerm:
		return bSt, false
	case bTerm:
		return aSt, false
	}
	for obj := range bSt {
		aSt[obj] = true
	}
	return aSt, false
}

// walkCaseBodies handles switch and type-switch: each case body runs
// with a copy of the entry state; without a default, fallthrough of
// the entry state itself is a possible path.
func walkCaseBodies(p *Pass, s ast.Stmt, st map[types.Object]bool, fx *spanFacts, tracked func(types.Object) bool) (map[types.Object]bool, bool) {
	var body *ast.BlockStmt
	var initStmt ast.Stmt
	switch x := s.(type) {
	case *ast.SwitchStmt:
		body, initStmt = x.Body, x.Init
	case *ast.TypeSwitchStmt:
		body, initStmt = x.Body, x.Init
	default:
		return st, false
	}
	if initStmt != nil {
		st, _ = walkSpanStmt(p, initStmt, st, fx, tracked)
	}
	merged, term := map[types.Object]bool{}, true
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cSt, cTerm := walkSpanStmts(p, cc.Body, copyState(st), fx, tracked)
		merged, term = mergeStates(merged, term, cSt, cTerm)
	}
	if !hasDefault {
		merged, term = mergeStates(merged, term, st, false)
	}
	return merged, term
}

func walkSelect(p *Pass, x *ast.SelectStmt, st map[types.Object]bool, fx *spanFacts, tracked func(types.Object) bool) (map[types.Object]bool, bool) {
	merged, term := map[types.Object]bool{}, true
	any := false
	for _, c := range x.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		cSt, cTerm := walkSpanStmts(p, cc.Body, copyState(st), fx, tracked)
		merged, term = mergeStates(merged, term, cSt, cTerm)
	}
	if !any {
		return st, false
	}
	return merged, term
}

// checkMetricNames flags Counter/Gauge/Histogram registrations whose
// name argument is not a compile-time constant.
func checkMetricNames(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Counter", "Gauge", "Histogram":
		default:
			return true
		}
		recv, ok := p.Info.Types[sel.X]
		if !ok || recv.Type == nil || !typeIs(recv.Type, obsPkg, "Trace") {
			return true
		}
		if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value == nil {
			p.Reportf(call.Args[0].Pos(),
				"metric registered with a non-constant name: checktrace and the metrics table key on stable names; "+
					"use a literal, or //lint:allow spanhygiene if the dynamic name set is finite and stable")
		}
		return true
	})
}
