package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// AnalyzerWirestable (cdnlint/wirestable) guards the pkg/bestofboth/api
// wire schema's stability contract:
//
//   - every exported field of every wire struct carries an explicit json
//     tag, so a rename can never silently change the wire format;
//   - no map-typed field is marshaled raw: Go writes map keys in hash
//     order under json.Marshal only because encoding/json sorts them —
//     but any hand-rolled encoder, digest, or diff over the struct won't;
//     map fields must use a named type with a sorted MarshalJSON wrapper;
//   - every top-level wire type (a struct no other wire struct embeds as
//     a field) declares an apiVersion field, so every artifact that hits
//     disk or HTTP is versioned.
var AnalyzerWirestable = &Analyzer{
	Name: "wirestable",
	Doc: "require explicit json tags, sorted-marshal wrappers on map fields, and apiVersion on " +
		"top-level wire types in pkg/bestofboth/api",
	Run: runWirestable,
}

// wireStruct is one top-level struct type declaration of the api package.
type wireStruct struct {
	name *ast.Ident
	st   *ast.StructType
	obj  *types.TypeName
}

func wireStructs(pass *Pass) []wireStruct {
	var out []wireStruct
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				out = append(out, wireStruct{name: ts.Name, st: st, obj: tn})
			}
		}
	}
	return out
}

// jsonTagName extracts the json key from a field's tag literal, reporting
// whether a json tag exists at all.
func jsonTagName(tag *ast.BasicLit) (string, bool) {
	if tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(tag.Value)
	if err != nil {
		return "", false
	}
	val, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(val, ",")
	return name, true
}

func runWirestable(pass *Pass) {
	if !pkgPathHasSuffix(pass.Pkg.Path(), "bestofboth/api") {
		return
	}
	structs := wireStructs(pass)

	// Field-level rules: explicit json tags, sorted-marshal map wrappers.
	for _, ws := range structs {
		for _, field := range ws.st.Fields.List {
			names := field.Names
			if len(names) == 0 { // embedded field: its type name is the field name
				if id := embeddedFieldIdent(field.Type); id != nil {
					names = []*ast.Ident{id}
				}
			}
			for _, name := range names {
				if !name.IsExported() {
					continue
				}
				if _, ok := jsonTagName(field.Tag); !ok {
					pass.Reportf(name.Pos(), "exported wire field %s.%s has no explicit json tag; "+
						"the wire format must never depend on Go identifier spelling", ws.name.Name, name.Name)
				}
				ft := typeOf(pass.Info, field.Type)
				if ft == nil {
					continue
				}
				if p, ok := ft.(*types.Pointer); ok {
					ft = p.Elem()
				}
				if _, isMap := ft.Underlying().(*types.Map); isMap && !hasSortedMarshal(ft) {
					pass.Reportf(name.Pos(), "map-typed wire field %s.%s marshals in unspecified order for "+
						"non-encoding/json consumers (digests, diffs); use a named map type with a sorted "+
						"MarshalJSON wrapper (api.SortedMap)", ws.name.Name, name.Name)
				}
			}
		}
	}

	// apiVersion coverage: structs no other struct references are the
	// top-level artifacts and must carry the schema version.
	referenced := map[*types.TypeName]bool{}
	for _, ws := range structs {
		st, ok := ws.obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			for _, tn := range namedStructRefs(st.Field(i).Type(), pass.Pkg) {
				if tn != ws.obj {
					referenced[tn] = true
				}
			}
		}
	}
	for _, ws := range structs {
		if !ws.name.IsExported() || referenced[ws.obj] {
			continue
		}
		hasVersion := false
		for _, field := range ws.st.Fields.List {
			if name, ok := jsonTagName(field.Tag); ok && name == "apiVersion" {
				hasVersion = true
			}
		}
		if !hasVersion {
			pass.Reportf(ws.name.Pos(), "top-level wire type %s has no apiVersion field; every artifact "+
				"that reaches disk or HTTP must carry the schema version", ws.name.Name)
		}
	}
}

// embeddedFieldIdent digs the name identifier out of an embedded field's
// type expression.
func embeddedFieldIdent(t ast.Expr) *ast.Ident {
	switch x := t.(type) {
	case *ast.Ident:
		return x
	case *ast.StarExpr:
		return embeddedFieldIdent(x.X)
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// hasSortedMarshal reports whether t's method set includes MarshalJSON.
func hasSortedMarshal(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "MarshalJSON")
	_, ok := obj.(*types.Func)
	return ok
}

// namedStructRefs collects the named struct types of pkg reachable from t
// through pointers, slices, arrays, map keys/values, and the underlying
// types of named non-structs (a SortedMap[Reduction] field references
// Reduction).
func namedStructRefs(t types.Type, pkg *types.Package) []*types.TypeName {
	return namedStructRefsRec(t, pkg, map[types.Type]bool{})
}

func namedStructRefsRec(t types.Type, pkg *types.Package, seen map[types.Type]bool) []*types.TypeName {
	if seen[t] {
		return nil
	}
	seen[t] = true
	switch x := t.(type) {
	case *types.Named:
		if _, ok := x.Underlying().(*types.Struct); ok {
			if x.Obj().Pkg() == pkg {
				return []*types.TypeName{x.Obj()}
			}
			return nil
		}
		return namedStructRefsRec(x.Underlying(), pkg, seen)
	case *types.Pointer:
		return namedStructRefsRec(x.Elem(), pkg, seen)
	case *types.Slice:
		return namedStructRefsRec(x.Elem(), pkg, seen)
	case *types.Array:
		return namedStructRefsRec(x.Elem(), pkg, seen)
	case *types.Map:
		return append(namedStructRefsRec(x.Key(), pkg, seen), namedStructRefsRec(x.Elem(), pkg, seen)...)
	}
	return nil
}
