package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerRoutefreeze (cdnlint/routefreeze) enforces the immutability
// invariant on bgp.Route (see the Route doc comment): a Route is frozen
// the moment it is published — stored into an adj-RIB slot, handed to
// send, or passed to a callback — because the zero-copy kernel shares
// route pointers across adj-RIBs, feeds, FIBs, and copy-on-write
// snapshots. The analyzer flags every write to a Route field, every
// element write into a Route slice field (Path, Communities share backing
// arrays even across value copies), and copy/append targeting those
// fields, unless the enclosing function is annotated with a
// //cdnlint:mutates-route doc comment marking it as a construction site
// that only touches unpublished routes.
var AnalyzerRoutefreeze = &Analyzer{
	Name: "routefreeze",
	Doc: "flag writes to bgp.Route fields or its slice elements outside functions annotated " +
		"//cdnlint:mutates-route; published routes are shared and must be replaced, never mutated",
	Run: runRoutefreeze,
}

// isRouteType reports whether t (possibly behind pointers) is the Route
// type of a bgp package.
func isRouteType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Route" && obj.Pkg() != nil && pkgPathHasSuffix(obj.Pkg().Path(), "bgp")
}

func runRoutefreeze(pass *Pass) {
	for _, fd := range funcDecls(pass.Files) {
		if fd.Body == nil || funcHasMarker(fd.Doc, "mutates-route") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					pass.checkRouteWriteTarget(lhs)
				}
			case *ast.IncDecStmt:
				pass.checkRouteWriteTarget(st.X)
			case *ast.CallExpr:
				pass.checkRouteBuiltinMutation(st)
			}
			return true
		})
	}
}

// checkRouteWriteTarget flags lhs when it writes a Route field or an
// element of a Route slice field.
func (p *Pass) checkRouteWriteTarget(lhs ast.Expr) {
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		// r.Field = ... where r is a Route (or *Route, possibly nested).
		if tv, ok := p.Info.Types[e.X]; ok && isRouteType(tv.Type) {
			p.Reportf(e.Sel.Pos(), "write to field %s of bgp.Route outside a //cdnlint:mutates-route function; "+
				"published routes are immutable — build a new Route and swap the pointer", e.Sel.Name)
		}
	case *ast.IndexExpr:
		// r.Path[i] = ... writes the shared backing array, even via a
		// value copy of the Route.
		if sel, ok := e.X.(*ast.SelectorExpr); ok {
			if tv, ok := p.Info.Types[sel.X]; ok && isRouteType(tv.Type) {
				p.Reportf(e.Pos(), "element write into bgp.Route.%s mutates the shared backing array outside a "+
					"//cdnlint:mutates-route function", sel.Sel.Name)
			}
		}
	case *ast.StarExpr:
		// (*r).Field handled via SelectorExpr above; *r = Route{...}
		// replaces the whole published struct through the pointer.
		if tv, ok := p.Info.Types[e.X]; ok && isRouteType(tv.Type) {
			if _, isPtr := tv.Type.(*types.Pointer); isPtr {
				p.Reportf(e.Pos(), "write through *bgp.Route outside a //cdnlint:mutates-route function; "+
					"published routes are immutable — build a new Route and swap the pointer")
			}
		}
	}
}

// checkRouteBuiltinMutation flags copy(r.Path, ...) and append(r.Path,
// ...): both can write into the shared backing array of a published
// route's slice field.
func (p *Pass) checkRouteBuiltinMutation(call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if id.Name != "copy" && id.Name != "append" {
		return
	}
	sel, ok := call.Args[0].(*ast.SelectorExpr)
	if !ok {
		return
	}
	if tv, ok := p.Info.Types[sel.X]; ok && isRouteType(tv.Type) {
		p.Reportf(call.Pos(), "%s on bgp.Route.%s may write the shared backing array outside a "+
			"//cdnlint:mutates-route function; clone the slice instead", id.Name, sel.Sel.Name)
	}
}
