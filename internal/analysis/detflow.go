package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// AnalyzerDetflow (cdnlint/detflow) is the flow-sensitive upgrade of
// detrand: instead of flagging nondeterminism sources at the call site, it
// tracks their values through a package-local taint analysis and reports
// only the flows that reach a determinism-critical sink. detrand keeps the
// simulation packages clean wholesale; detflow covers everything else —
// control plane, experiment runner, wire encoding — where wall-clock reads
// are legitimate for logging but must never leak into artifacts that two
// bit-identical worlds are compared by.
//
// Sources: wall-clock time (any call returning time.Time, which catches
// clock reads hiding behind func-typed fields; time.Since/Until), the
// global math/rand generators, crypto/rand, environment reads (os.Getenv
// and friends), and pointer formatting ("%p").
//
// Propagation: through assignments, composite literals, arithmetic,
// method calls on tainted receivers, and — package-locally — through
// calls: a function whose return is tainted taints its callers, and a
// function that forwards a parameter into a sink turns its call sites into
// sinks (the "deterministic until three stack frames deep" class).
//
// Sinks: digest computations (callees with digest/fingerprint in the
// name, anything in crypto/* or hash, fmt.Fprint* into a hash), snapshot
// entry points, JSON wire encoding, and writes into pkg/bestofboth/api
// wire structs.
//
// Map iteration order is a source too, but only direct uses of the range
// variables in a sink inside the loop are flagged; the sanctioned
// collect-sort-iterate pattern launders the order legitimately (and
// maporder covers the append-without-sort class in simulation packages).
var AnalyzerDetflow = &Analyzer{
	Name: "detflow",
	Doc: "taint-track nondeterminism sources (wall clock, global rand, env, map order, %p) through " +
		"package-local flows and flag any value reaching a digest, snapshot, or wire-encoding sink",
	Run: runDetflow,
}

func runDetflow(pass *Pass) {
	if pkgPathHasSuffix(pass.Pkg.Path(), "internal/obs") {
		return // instrumentation is wall-clock by design (volatile metrics)
	}
	cg := buildCallGraph(pass)
	fa := &flowAnalysis{
		pass:      pass,
		cg:        cg,
		summaries: map[*funcInfo]*flowSummary{},
		reported:  map[string]bool{},
	}
	for _, fi := range cg.funcs {
		fa.summaries[fi] = &flowSummary{}
	}
	// Interprocedural fixpoint: function summaries grow monotonically until
	// stable, then one reporting pass collects diagnostics.
	for changed := true; changed; {
		changed = false
		for _, fi := range cg.funcs {
			if fi.decl.Body == nil {
				continue
			}
			if fa.analyzeFunc(fi, false) {
				changed = true
			}
		}
	}
	for _, fi := range cg.funcs {
		if fi.decl.Body == nil {
			continue
		}
		fa.analyzeFunc(fi, true)
	}
}

// tagSet is a set of taint tags: human-readable source descriptions, plus
// internal parameter markers ("«param:N»", receiver = -1) used to build
// function summaries.
type tagSet map[string]bool

func paramTag(i int) string { return "«param:" + strconv.Itoa(i) + "»" }

func isParamTag(tag string) bool { return strings.HasPrefix(tag, "«param:") }

func (t tagSet) add(tags tagSet) bool {
	changed := false
	for tag := range tags {
		if !t[tag] {
			t[tag] = true
			changed = true
		}
	}
	return changed
}

func union(a, b tagSet) tagSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := tagSet{}
	out.add(a)
	out.add(b)
	return out
}

// flowSummary is the interprocedural abstract of one function.
type flowSummary struct {
	// retTags are source tags (never param markers) reaching a return.
	retTags tagSet
	// retParams are parameter indices whose value reaches a return.
	retParams map[int]bool
	// sinkParams maps parameter indices forwarded into a sink to the sink's
	// description.
	sinkParams map[int]string
}

type flowAnalysis struct {
	pass      *Pass
	cg        *callGraph
	summaries map[*funcInfo]*flowSummary
	reported  map[string]bool
}

// analyzeFunc runs the intra-function taint fixpoint for fi, updating its
// summary; it returns whether the summary grew. When report is set it also
// records diagnostics for source tags reaching sinks.
func (fa *flowAnalysis) analyzeFunc(fi *funcInfo, report bool) bool {
	env := &flowEnv{
		fa:     fa,
		fi:     fi,
		taint:  map[*types.Var]tagSet{},
		params: map[*types.Var]int{},
		report: report,
	}
	// Seed parameters (and the receiver, index -1) with their markers so
	// flows from them show up in the summary.
	if fi.decl.Recv != nil && len(fi.decl.Recv.List) == 1 && len(fi.decl.Recv.List[0].Names) == 1 {
		if v, ok := fa.pass.Info.Defs[fi.decl.Recv.List[0].Names[0]].(*types.Var); ok {
			env.params[v] = -1
			env.taint[v] = tagSet{paramTag(-1): true}
		}
	}
	i := 0
	for _, field := range fi.decl.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if v, ok := fa.pass.Info.Defs[name].(*types.Var); ok {
				env.params[v] = i
				env.taint[v] = tagSet{paramTag(i): true}
			}
			i++
		}
	}
	// Intra-function fixpoint over assignments; the taint lattice is
	// finite, but cap defensively.
	for round := 0; round < 32; round++ {
		if !env.propagate(fi.decl.Body) {
			break
		}
	}
	env.checking = true
	env.propagate(fi.decl.Body) // final walk: sinks, returns, summaries
	return env.grew
}

// flowEnv is the per-function taint state.
type flowEnv struct {
	fa           *flowAnalysis
	fi           *funcInfo
	taint        map[*types.Var]tagSet
	params       map[*types.Var]int
	checking     bool // final walk: evaluate sinks/returns
	report       bool // record diagnostics (last interprocedural round only)
	grew         bool // summary grew this run
	cachedRanges *[]mapRange
}

// propagate walks the body once, merging taint through assignments. It
// returns whether any variable's tag set grew.
func (e *flowEnv) propagate(body *ast.BlockStmt) bool {
	changed := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			tupleTags := tagSet{}
			if len(st.Lhs) != len(st.Rhs) && len(st.Rhs) == 1 {
				tupleTags = e.exprTags(st.Rhs[0]) // v, ok := f() — taint both
			}
			for i, lhs := range st.Lhs {
				var tags tagSet
				var rhs ast.Expr
				if len(st.Lhs) == len(st.Rhs) {
					rhs = st.Rhs[i]
					tags = e.exprTags(rhs)
				} else {
					if len(st.Rhs) == 1 {
						rhs = st.Rhs[0]
					}
					tags = tupleTags
				}
				if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
					// x += y: old taint persists, new taint merges.
					tags = union(tags, e.exprTags(lhs))
				}
				if e.assignTo(lhs, tags) {
					changed = true
				}
				if e.checking {
					e.checkWireWrite(lhs, rhs, tags)
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) {
					if e.assignTo(name, e.exprTags(st.Values[i])) {
						changed = true
					}
				}
			}
		case *ast.RangeStmt:
			tags := e.exprTags(st.X)
			for _, kv := range []ast.Expr{st.Key, st.Value} {
				if kv != nil {
					if e.assignTo(kv, tags) {
						changed = true
					}
				}
			}
		case *ast.CallExpr:
			if e.checking {
				e.checkSinkCall(st)
			}
		case *ast.CompositeLit:
			if e.checking {
				e.checkWireComposite(st)
			}
		case *ast.ReturnStmt:
			if e.checking {
				for _, r := range st.Results {
					e.recordReturn(e.exprTags(r))
				}
			}
		}
		return true
	})
	return changed
}

// assignTo merges tags into the variable behind lhs: a plain ident, or the
// root of an index/deref expression (a container accumulating tainted
// elements). Field writes don't taint the whole struct — the wire-write
// sink check handles the case that matters.
func (e *flowEnv) assignTo(lhs ast.Expr, tags tagSet) bool {
	if len(tags) == 0 {
		return false
	}
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := e.fa.pass.Info.Defs[x]
		if obj == nil {
			obj = e.fa.pass.Info.Uses[x]
		}
		if v, ok := obj.(*types.Var); ok {
			if e.taint[v] == nil {
				e.taint[v] = tagSet{}
			}
			return e.taint[v].add(tags)
		}
	case *ast.IndexExpr:
		return e.assignTo(x.X, tags)
	case *ast.StarExpr:
		return e.assignTo(x.X, tags)
	}
	return false
}

// exprTags computes the taint tags of an expression.
func (e *flowEnv) exprTags(x ast.Expr) tagSet {
	switch v := x.(type) {
	case *ast.Ident:
		obj := e.fa.pass.Info.Uses[v]
		if obj == nil {
			obj = e.fa.pass.Info.Defs[v]
		}
		if vr, ok := obj.(*types.Var); ok {
			return e.taint[vr]
		}
	case *ast.SelectorExpr:
		// Fields/methods of a tainted value are tainted. Package-qualified
		// selectors have no tainted base.
		if sel := e.fa.pass.Info.Selections[v]; sel != nil {
			return e.exprTags(v.X)
		}
	case *ast.CallExpr:
		return e.callTags(v)
	case *ast.ParenExpr:
		return e.exprTags(v.X)
	case *ast.StarExpr:
		return e.exprTags(v.X)
	case *ast.UnaryExpr:
		return e.exprTags(v.X)
	case *ast.BinaryExpr:
		return union(e.exprTags(v.X), e.exprTags(v.Y))
	case *ast.IndexExpr:
		return e.exprTags(v.X)
	case *ast.SliceExpr:
		return e.exprTags(v.X)
	case *ast.TypeAssertExpr:
		return e.exprTags(v.X)
	case *ast.CompositeLit:
		// Struct literals stay consistent with field-insensitive
		// assignment: a tainted field doesn't taint the whole value (the
		// wire-composite check still inspects the elements). Container
		// literals (slices, arrays, maps) do absorb their elements.
		if t := typeOf(e.fa.pass.Info, v); t != nil {
			if _, isStruct := t.Underlying().(*types.Struct); isStruct {
				return nil
			}
			if p, ok := t.Underlying().(*types.Pointer); ok {
				if _, isStruct := p.Elem().Underlying().(*types.Struct); isStruct {
					return nil
				}
			}
		}
		tags := tagSet{}
		for _, elt := range v.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				tags.add(e.exprTags(kv.Value))
			} else {
				tags.add(e.exprTags(elt))
			}
		}
		return tags
	}
	return nil
}

// callTags computes the taint of a call's result: source rules, summary
// rules for in-package callees, and conservative arg/receiver propagation
// for everything else.
func (e *flowEnv) callTags(call *ast.CallExpr) tagSet {
	info := e.fa.pass.Info
	// Conversions propagate their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return e.exprTags(call.Args[0])
	}
	argTags := func() tagSet {
		tags := tagSet{}
		for _, a := range call.Args {
			tags.add(e.exprTags(a))
		}
		return tags
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		// Builtins and calls through function values: propagate args; a
		// func-typed field returning time.Time is caught by the result-type
		// rule.
		tags := tagSet{}
		tags.add(argTags())
		tags.add(e.resultTimeTags(call))
		return tags
	}
	if fn.Pkg() != nil && fn.Pkg() != e.fa.pass.Pkg {
		tags := tagSet{}
		if src := sourceCallTag(e.fa.pass, fn, call); src != "" {
			tags[src] = true
		}
		// External call: conservatively propagate args and receiver.
		tags.add(argTags())
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
			tags.add(e.exprTags(sel.X))
		}
		tags.add(e.resultTimeTags(call))
		return tags
	}
	// In-package call: apply the callee's summary.
	tags := tagSet{}
	if fi := e.fa.cg.byObj[fn]; fi != nil {
		sum := e.fa.summaries[fi]
		tags.add(sum.retTags)
		for i := range sum.retParams {
			tags.add(e.argumentTags(call, i))
		}
	} else {
		tags.add(argTags())
	}
	tags.add(e.resultTimeTags(call))
	return tags
}

// argumentTags returns the tags of call's i'th parameter value (receiver =
// -1), accounting for method calls.
func (e *flowEnv) argumentTags(call *ast.CallExpr, i int) tagSet {
	if i == -1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && e.fa.pass.Info.Selections[sel] != nil {
			return e.exprTags(sel.X)
		}
		return nil
	}
	if i < len(call.Args) {
		return e.exprTags(call.Args[i])
	}
	return nil
}

// resultTimeTags tags any call whose result includes a time.Time: the
// clock read may hide behind a func-typed field or an interface, where
// name-based source rules can't see it.
func (e *flowEnv) resultTimeTags(call *ast.CallExpr) tagSet {
	tv, ok := e.fa.pass.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	isTime := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "Time" && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "time"
	}
	hit := false
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isTime(tup.At(i).Type()) {
				hit = true
			}
		}
	} else if isTime(tv.Type) {
		hit = true
	}
	if hit {
		return tagSet{"wall-clock time (a time.Time-returning call)": true}
	}
	return nil
}

// sourceCallTag recognizes out-of-package nondeterminism sources and
// returns the tag describing them, or "".
func sourceCallTag(pass *Pass, fn *types.Func, call *ast.CallExpr) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "" // methods: a seeded *rand.Rand draw is deterministic
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch nondetSource(path, name) {
	case nondetWallClock:
		// Only the calls that yield a clock-derived value; Sleep and the
		// timers return nothing a sink could receive.
		switch name {
		case "Now":
			return "wall-clock time (time.Now)"
		case "Since", "Until":
			return "wall-clock duration (time." + name + ")"
		}
	case nondetGlobalRand:
		return "global " + path + " draw (" + name + ")"
	case nondetCryptoRand:
		return "crypto/rand randomness"
	}
	switch path {
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ", "Hostname", "Getpid", "Getppid", "Getwd", "TempDir":
			return "environment read (os." + name + ")"
		}
	case "fmt":
		if strings.HasPrefix(name, "Sprint") || strings.HasPrefix(name, "Append") {
			for _, a := range call.Args {
				if tv, ok := pass.Info.Types[a]; ok && tv.Value != nil &&
					strings.Contains(tv.Value.String(), "%p") {
					return "pointer formatting (%p)"
				}
			}
		}
	}
	return ""
}

// recordReturn folds return-expression tags into the function summary.
func (e *flowEnv) recordReturn(tags tagSet) {
	sum := e.fa.summaries[e.fi]
	for tag := range tags {
		if isParamTag(tag) {
			for _, i := range e.params {
				if tag == paramTag(i) {
					if sum.retParams == nil {
						sum.retParams = map[int]bool{}
					}
					if !sum.retParams[i] {
						sum.retParams[i] = true
						e.grew = true
					}
				}
			}
			continue
		}
		if sum.retTags == nil {
			sum.retTags = tagSet{}
		}
		if !sum.retTags[tag] {
			sum.retTags[tag] = true
			e.grew = true
		}
	}
}

// checkSinkCall evaluates one call as a potential sink: the external sink
// classes, plus in-package callees whose summary forwards a parameter into
// a sink.
func (e *flowEnv) checkSinkCall(call *ast.CallExpr) {
	info := e.fa.pass.Info
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if desc, args := sinkCallDesc(e.fa.pass, fn, call); desc != "" {
		for _, a := range args {
			e.consumeSink(a.Pos(), desc, e.exprTags(a))
			e.checkMapOrderUse(a, desc)
		}
		return
	}
	if fn.Pkg() != e.fa.pass.Pkg {
		return
	}
	fi := e.fa.cg.byObj[fn]
	if fi == nil {
		return
	}
	sum := e.fa.summaries[fi]
	// Deterministic order over the small param index space.
	for i := -1; i < len(call.Args); i++ {
		desc, ok := sum.sinkParams[i]
		if !ok {
			continue
		}
		arg := call.Fun
		if i >= 0 {
			arg = call.Args[i]
		}
		tags := e.argumentTags(call, i)
		e.consumeSink(arg.Pos(), desc+" (via "+fn.Name()+")", tags)
		if i >= 0 {
			e.checkMapOrderUse(call.Args[i], desc+" (via "+fn.Name()+")")
		}
	}
}

// sinkCallDesc classifies a call as a direct determinism-critical sink,
// returning a description and the arguments whose taint matters.
func sinkCallDesc(pass *Pass, fn *types.Func, call *ast.CallExpr) (string, []ast.Expr) {
	info := pass.Info
	name := fn.Name()
	lower := strings.ToLower(name)
	// fmt.Fprintf(h, ...) where h is a hash: writing into a digest.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
		if t := typeOf(info, call.Args[0]); t != nil {
			if named, ok := derefNamed(t); ok && named.Obj().Pkg() != nil {
				p := named.Obj().Pkg().Path()
				if p == "hash" || strings.HasPrefix(p, "crypto/") || strings.HasPrefix(p, "hash/") {
					return "a hash being written (" + named.Obj().Name() + ")", call.Args[1:]
				}
			}
		}
		return "", nil
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		p := fn.Pkg().Path()
		if p == "hash" || strings.HasPrefix(p, "crypto/") || strings.HasPrefix(p, "hash/") {
			return "the " + p + "." + name + " hash", call.Args
		}
		if pkgPathHasSuffix(p, "encoding/json") && (name == "Marshal" || name == "MarshalIndent" || name == "Encode") {
			return "JSON wire encoding (json." + name + ")", call.Args
		}
	}
	if strings.Contains(lower, "digest") || strings.Contains(lower, "fingerprint") {
		return "digest computation (" + name + ")", call.Args
	}
	if strings.HasPrefix(lower, "snapshot") && len(call.Args) > 0 {
		return "snapshot state (" + name + ")", call.Args
	}
	return "", nil
}

// checkWireWrite flags assignments into pkg/bestofboth/api struct fields.
func (e *flowEnv) checkWireWrite(lhs, rhs ast.Expr, tags tagSet) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := e.fa.pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	named, ok := derefNamed(s.Recv())
	if !ok || named.Obj().Pkg() == nil || !pkgPathHasSuffix(named.Obj().Pkg().Path(), "bestofboth/api") {
		return
	}
	desc := "wire field api." + named.Obj().Name() + "." + sel.Sel.Name
	e.consumeSink(sel.Sel.Pos(), desc, tags)
	if rhs != nil {
		e.checkMapOrderUse(rhs, desc)
	}
}

// checkWireComposite flags tainted elements in pkg/bestofboth/api struct
// literals.
func (e *flowEnv) checkWireComposite(lit *ast.CompositeLit) {
	t := typeOf(e.fa.pass.Info, lit)
	if t == nil {
		return
	}
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil || !pkgPathHasSuffix(named.Obj().Pkg().Path(), "bestofboth/api") {
		return
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return
	}
	for _, elt := range lit.Elts {
		value := elt
		field := ""
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = "." + id.Name
			}
		}
		desc := "wire literal api." + named.Obj().Name() + field
		e.consumeSink(value.Pos(), desc, e.exprTags(value))
		e.checkMapOrderUse(value, desc)
	}
}

// consumeSink reports source tags reaching a sink and folds param markers
// into the function's sink summary.
func (e *flowEnv) consumeSink(pos token.Pos, desc string, tags tagSet) {
	sum := e.fa.summaries[e.fi]
	var srcs []string
	for tag := range tags {
		if isParamTag(tag) {
			for _, i := range e.params {
				if tag == paramTag(i) {
					if sum.sinkParams == nil {
						sum.sinkParams = map[int]string{}
					}
					if _, ok := sum.sinkParams[i]; !ok {
						sum.sinkParams[i] = desc
						e.grew = true
					}
				}
			}
			continue
		}
		srcs = append(srcs, tag)
	}
	if !e.report || len(srcs) == 0 {
		return
	}
	sort.Strings(srcs)
	e.reportFlow(pos, srcs[0], desc)
}

// checkMapOrderUse flags direct uses of a map-range variable in a sink
// argument inside its own loop body.
func (e *flowEnv) checkMapOrderUse(arg ast.Expr, desc string) {
	if !e.report {
		return
	}
	info := e.fa.pass.Info
	ast.Inspect(arg, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		for _, mr := range e.mapRanges() {
			if mr.vars[v] && id.Pos() >= mr.body.Pos() && id.Pos() < mr.body.End() {
				e.reportFlow(id.Pos(), "map iteration order (range variable "+v.Name()+")", desc)
			}
		}
		return true
	})
}

type mapRange struct {
	body *ast.BlockStmt
	vars map[*types.Var]bool
}

// mapRanges lazily collects the function's map-range statements and their
// key/value variables.
func (e *flowEnv) mapRanges() []mapRange {
	if e.cachedRanges != nil {
		return *e.cachedRanges
	}
	out := []mapRange{}
	info := e.fa.pass.Info
	ast.Inspect(e.fi.decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := typeOf(info, rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		vars := map[*types.Var]bool{}
		for _, kv := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := kv.(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					vars[v] = true
				}
			}
		}
		if len(vars) > 0 {
			out = append(out, mapRange{body: rs.Body, vars: vars})
		}
		return true
	})
	e.cachedRanges = &out
	return out
}

// reportFlow records one deduplicated diagnostic.
func (e *flowEnv) reportFlow(pos token.Pos, src, sink string) {
	fa := e.fa
	msg := "nondeterministic " + src + " flows into " + sink +
		"; deterministic artifacts must derive only from seeded/virtual state"
	key := fa.pass.Fset.Position(pos).String() + "|" + msg
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	fa.pass.Reportf(pos, "%s", msg)
}
