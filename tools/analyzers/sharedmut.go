package analyzers

import (
	"go/ast"
	"go/types"
)

// SharedMut flags mutation, inside a `go func(){...}()` goroutine, of
// pdk.Tech, circuit.Netlist, or circuit.Device values captured from
// the enclosing scope. These types are shared read-mostly across the
// flow's concurrent primitive optimization; a captured pointer
// mutated inside a goroutine is a data race the type system cannot
// see. Mutations of goroutine-local values (declared inside the
// function literal) are fine.
var SharedMut = &Analyzer{
	Name: "sharedmut",
	Doc: "flag mutation of captured pdk.Tech / circuit.Netlist / " +
		"circuit.Device values inside goroutine literals",
	Run: runSharedMut,
}

// sharedTypes are the guarded types, by package path and type name.
var sharedTypes = []struct{ pkg, name string }{
	{"primopt/internal/pdk", "Tech"},
	{"primopt/internal/circuit", "Netlist"},
	{"primopt/internal/circuit", "Device"},
}

// netlistMutators are circuit.Netlist / circuit.Device methods that
// mutate their receiver.
var netlistMutators = map[string]bool{
	"Add": true, "MustAdd": true, "Remove": true, "Annotate": true,
	"RenameNet": true, "Merge": true,
}

func runSharedMut(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fl, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoroutineBody(p, fl)
			return true
		})
	}
}

func checkGoroutineBody(p *Pass, fl *ast.FuncLit) {
	captured := func(e ast.Expr) (*ast.Ident, bool) {
		id := rootIdent(e)
		if id == nil {
			return nil, false
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return nil, false
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return nil, false
		}
		// Captured = declared outside the literal (including its
		// parameter list, which spans from Type.Pos to Body.End).
		if v.Pos() >= fl.Pos() && v.Pos() < fl.End() {
			return nil, false
		}
		if !isSharedType(v.Type()) {
			return nil, false
		}
		return id, true
	}

	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				// Writing through a captured pointer: the LHS must be a
				// selector or index chain, not the bare identifier (a
				// plain rebind of the local copy is harmless).
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					continue
				}
				if id, ok := captured(lhs); ok {
					p.Reportf(x.Pos(),
						"captured %s mutated inside goroutine", typeLabel(p, id))
				}
			}
		case *ast.IncDecStmt:
			if _, isIdent := x.X.(*ast.Ident); !isIdent {
				if id, ok := captured(x.X); ok {
					p.Reportf(x.Pos(),
						"captured %s mutated inside goroutine", typeLabel(p, id))
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !netlistMutators[sel.Sel.Name] {
				return true
			}
			if id, ok := captured(sel.X); ok {
				p.Reportf(x.Pos(),
					"captured %s mutated inside goroutine via %s()", typeLabel(p, id), sel.Sel.Name)
			}
		}
		return true
	})
}

// rootIdent unwraps selector, index, star, and paren chains to the
// base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isSharedType(t types.Type) bool {
	for _, st := range sharedTypes {
		if typeIs(t, st.pkg, st.name) {
			return true
		}
	}
	return false
}

func typeLabel(p *Pass, id *ast.Ident) string {
	if obj := p.Info.Uses[id]; obj != nil {
		if n := namedType(obj.Type()); n != nil {
			return "*" + n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
	}
	return id.Name
}
