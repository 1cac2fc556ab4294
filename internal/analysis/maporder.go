package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerMaporder (cdnlint/maporder) flags `for ... range m` over a map
// inside the deterministic packages when the loop body feeds the
// iteration order into ordered state. Go randomizes map iteration per
// run, so any such flow breaks the bit-identical-runs invariant. Three
// flows are recognized:
//
//   - appending to a slice that outlives the loop — a variable declared
//     outside it, or a field reached from one (s.sorted) — with no later
//     sort of that slice in the same function (collect-then-sort is the
//     sanctioned pattern and is not flagged);
//   - calling an order-sensitive sink: a netsim scheduling method
//     (At/AtCall/After/AfterTimer — events tie-break by sequence number,
//     so insertion order is observable) or a pointer-receiver mutator
//     whose name starts with Add or contains Digest (builders,
//     accumulators, hashes), excluding the obs package whose counters
//     are commutative;
//   - threading a loop-carried scalar: an outer variable both written
//     and read in the body (the `idx++` pattern), which gives each
//     element a value dependent on its position in the random order.
//
// The fix is always the same: pull the keys into a slice, sort, and
// range over the slice.
var AnalyzerMaporder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration feeding appends (without a later sort), order-sensitive sinks, or " +
		"loop-carried accumulators in deterministic packages; sort keys first",
	Run: runMaporder,
}

func runMaporder(pass *Pass) {
	if !isDeterministicPkg(pass.Pkg.Path()) && !pkgPathHasSuffix(pass.Pkg.Path(), "internal/experiment") {
		return
	}
	for _, fd := range funcDecls(pass.Files) {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if tv, ok := pass.Info.Types[rs.X]; !ok || tv.Type == nil {
				return true
			} else if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.checkMapRange(fd, rs)
			return true
		})
	}
}

func (p *Pass) checkMapRange(fd *ast.FuncDecl, rs *ast.RangeStmt) {
	type span struct{ lo, hi token.Pos }
	writes := map[*types.Var][]token.Pos{} // outer scalars written in the body
	selfOK := map[*types.Var][]span{}      // RHS spans where self-reads are commutative
	reads := map[*types.Var]bool{}         // outer scalars read outside their own update

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if st.Tok == token.ASSIGN && len(st.Lhs) == len(st.Rhs) && p.outerTarget(lhs, rs) {
					if call, ok := st.Rhs[i].(*ast.CallExpr); ok && p.isAppendTo(call, lhs) {
						if !p.sortedLater(fd, rs, lhs) {
							p.Reportf(st.Pos(), "append to %s inside map iteration with no later sort; "+
								"map order is randomized per run — sort the keys (or the result) first",
								types.ExprString(lhs))
						}
						continue // self-append is not a loop-carried scalar
					}
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v := p.outerVar(id, rs)
				if v == nil {
					continue
				}
				if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
					// Compound update (x += y, x |= y, ...): commutative for
					// integers and booleans, order-dependent for floats
					// (rounding) and strings (concatenation).
					if !commutativeAccum(v.Type()) {
						p.Reportf(st.Pos(), "compound accumulation into %s %s across map iterations is "+
							"order-dependent; map order is randomized per run — iterate sorted keys instead",
							v.Type().String(), v.Name())
					} else {
						writes[v] = append(writes[v], id.Pos())
					}
					continue
				}
				// x = x + y with integer x is the spelled-out compound
				// form; reads of x inside this RHS stay commutative.
				if len(st.Lhs) == len(st.Rhs) && commutativeAccum(v.Type()) {
					selfOK[v] = append(selfOK[v], span{st.Rhs[i].Pos(), st.Rhs[i].End()})
				}
				writes[v] = append(writes[v], id.Pos())
			}
		case *ast.IncDecStmt:
			if id, ok := st.X.(*ast.Ident); ok {
				if v := p.outerVar(id, rs); v != nil {
					writes[v] = append(writes[v], id.Pos())
				}
			}
		case *ast.CallExpr:
			p.checkMapRangeSink(st)
		}
		return true
	})

	// Second pass: reads of the written outer scalars, excluding the ident
	// occurrences that are themselves the write target (x++ alone is a
	// commutative counter; x++ plus use(x) threads the iteration order).
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || writes[v] == nil {
			return true
		}
		for _, wp := range writes[v] {
			if id.Pos() == wp {
				return true
			}
		}
		for _, sp := range selfOK[v] {
			if id.Pos() >= sp.lo && id.Pos() < sp.hi {
				return true
			}
		}
		reads[v] = true
		return true
	})
	// Report deterministically: writes in source order.
	var flagged []*types.Var
	for v := range writes {
		if reads[v] {
			flagged = append(flagged, v)
		}
	}
	for i := 0; i < len(flagged); i++ {
		for j := i + 1; j < len(flagged); j++ {
			if writes[flagged[j]][0] < writes[flagged[i]][0] {
				flagged[i], flagged[j] = flagged[j], flagged[i]
			}
		}
	}
	for _, v := range flagged {
		p.Reportf(writes[v][0], "loop-carried variable %s is written and read across map iterations; "+
			"its per-element value depends on randomized map order — iterate sorted keys instead", v.Name())
	}
}

// commutativeAccum reports whether repeated compound accumulation into a
// value of type t is order-independent: integer arithmetic and boolean
// or/and are; float addition (rounding) and string concatenation are not.
func commutativeAccum(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// outerVar resolves id to a variable declared outside the range statement,
// or nil. Variables born inside the loop can't leak iteration order out.
func (p *Pass) outerVar(id *ast.Ident, rs *ast.RangeStmt) *types.Var {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pos() == token.NoPos {
		return nil
	}
	if v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
		return nil
	}
	return v
}

// outerTarget reports whether e is an append target that outlives the
// loop: an identifier, or a field selection (s.sorted, w.out.rows), rooted
// at a variable declared outside the range statement.
func (p *Pass) outerTarget(e ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			return p.outerVar(x, rs) != nil
		default:
			return false
		}
	}
}

// sameTarget reports whether a and b name the same variable or the same
// field chain off the same variable.
func (p *Pass) sameTarget(a, b ast.Expr) bool {
	switch x := ast.Unparen(a).(type) {
	case *ast.Ident:
		y, ok := ast.Unparen(b).(*ast.Ident)
		return ok && p.Info.ObjectOf(x) != nil && p.Info.ObjectOf(x) == p.Info.ObjectOf(y)
	case *ast.SelectorExpr:
		y, ok := ast.Unparen(b).(*ast.SelectorExpr)
		return ok && p.Info.ObjectOf(x.Sel) == p.Info.ObjectOf(y.Sel) && p.sameTarget(x.X, y.X)
	}
	return false
}

// isAppendTo reports whether call is append(target, ...).
func (p *Pass) isAppendTo(call *ast.CallExpr, target ast.Expr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return p.sameTarget(call.Args[0], target)
}

// sortedLater reports whether, after the range statement, the enclosing
// function sorts the append target: a call into package sort, or a
// slices.Sort* call, taking it as an argument.
func (p *Pass) sortedLater(fd *ast.FuncDecl, rs *ast.RangeStmt, target ast.Expr) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return !found
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		sorts := fn.Pkg().Path() == "sort" ||
			(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
		if !sorts {
			return true
		}
		for _, a := range call.Args {
			if p.sameTarget(a, target) {
				found = true
			}
		}
		return !found
	})
	return found
}

// netsimScheduling lists the Sim methods that insert into the event
// queue; insertion order decides tie-breaks between same-time events.
var netsimScheduling = map[string]bool{
	"At": true, "AtCall": true, "After": true, "AfterTimer": true,
}

// checkMapRangeSink flags calls that consume values in iteration order:
// netsim event scheduling and pointer-receiver accumulator methods.
func (p *Pass) checkMapRangeSink(call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	_, isPtr := recv.(*types.Pointer)
	if pkgPathHasSuffix(fn.Pkg().Path(), "netsim") && netsimScheduling[fn.Name()] {
		if named, ok := derefNamed(recv); ok && named.Obj().Name() == "Sim" {
			p.Reportf(call.Pos(), "%s schedules an event inside map iteration; same-time events tie-break "+
				"by insertion order, which map order randomizes — iterate sorted keys instead", fn.Name())
		}
		return
	}
	if pkgPathHasSuffix(fn.Pkg().Path(), "obs") {
		return // obs counters are commutative by contract
	}
	if !isPtr {
		return // value receivers can't accumulate; t.Add(d) style is pure
	}
	if strings.HasPrefix(fn.Name(), "Add") || strings.Contains(fn.Name(), "Digest") {
		p.Reportf(call.Pos(), "%s called inside map iteration feeds an order-sensitive accumulator; "+
			"map order is randomized per run — iterate sorted keys instead", fn.Name())
	}
}

// derefNamed unwraps one pointer level and returns the named type, if any.
func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}
