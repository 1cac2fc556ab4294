package analysis

import (
	"go/ast"
	"go/types"
)

// Package-local call graph behind shardsafe's interprocedural ownership
// propagation. It is deliberately simple: nodes are the package's own
// FuncDecls, edges are direct calls resolved through go/types. Calls
// through function values, interfaces, or other packages have no edge —
// shardsafe is written to stay sound (or at worst quiet) under that
// approximation.

// funcInfo is one package function (or method) in the call graph.
type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func

	// callees/callers are deduplicated direct in-package call edges, in
	// source order (the order edges were discovered walking the files).
	callees []*funcInfo
	callers []*funcInfo
}

// callGraph holds every FuncDecl of one package with its call edges.
type callGraph struct {
	funcs []*funcInfo // declaration order across the package's files
	byObj map[*types.Func]*funcInfo
}

// buildCallGraph constructs the package-local call graph for the pass's
// package.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{byObj: map[*types.Func]*funcInfo{}}
	for _, fd := range funcDecls(pass.Files) {
		obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		fi := &funcInfo{decl: fd, obj: obj}
		g.funcs = append(g.funcs, fi)
		g.byObj[obj] = fi
	}
	for _, fi := range g.funcs {
		if fi.decl.Body == nil {
			continue
		}
		seen := map[*funcInfo]bool{}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			callee, ok := g.byObj[fn]
			if !ok || seen[callee] {
				return true
			}
			seen[callee] = true
			fi.callees = append(fi.callees, callee)
			callee.callers = append(callee.callers, fi)
			return true
		})
	}
	return g
}

// funcFor resolves an object (typically from Info.Uses on an ident passed
// as a callback) to its call-graph node, or nil.
func (g *callGraph) funcFor(obj types.Object) *funcInfo {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return g.byObj[fn]
}
