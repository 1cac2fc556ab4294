// Package analysis implements cdnlint: a suite of static analyzers that
// enforce the simulator's cross-cutting invariants at compile time —
// determinism (no global randomness or wall clock in simulation packages,
// no unordered map iteration feeding ordered state), immutability
// (bgp.Route frozen after publish), allocation discipline (annotated hot
// paths stay free of closures, formatting, boxing, and map/slice
// literals), and snapshot completeness (every field of a snapshotted
// struct handled by both Snapshot and Restore).
//
// The analyzers are built on the stdlib go/ast + go/types only (no
// golang.org/x/tools dependency) and run over fully type-checked
// packages. cmd/cdnlint is the driver: it loads packages via
// `go list -export`.
//
// Diagnostics can be suppressed with a staticcheck-style comment on the
// offending line or the line directly above it:
//
//	//lint:ignore cdnlint/<check> <reason>
//
// A missing reason is itself a diagnostic, and an ignore that no longer
// matches any finding is reported as stale (see ignore.go). Analyzers also
// honor purpose-built marker comments (//cdnlint:allocfree,
// //cdnlint:nosnapshot, //cdnlint:shardowned, //cdnlint:barrieronly)
// described in their docs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named, individually toggleable check.
type Analyzer struct {
	// Name is the short check name; diagnostics are reported as
	// "cdnlint/<name>".
	Name string
	// Doc is a one-paragraph description of the invariant the check
	// guards.
	Doc string
	// Run inspects one type-checked package and reports findings through
	// the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its position fully resolved.
type Diagnostic struct {
	// Check is the analyzer name ("detrand", ...) or "ignore" for
	// diagnostics produced by the suppression machinery itself.
	Check   string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [cdnlint/%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Package bundles everything an analyzer needs about one loaded package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Options controls a Run invocation.
type Options struct {
	// StaleCheck enables reporting of //lint:ignore comments that matched
	// no diagnostic. Drivers disable it when running a subset of checks,
	// where an ignore for a disabled check would be reported stale
	// spuriously.
	StaleCheck bool
}

// Run executes the analyzers over pkg, applies //lint:ignore suppression,
// and returns the surviving diagnostics (including the suppression
// machinery's own findings) sorted by position.
func Run(pkg *Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}

	igns, ignDiags := collectIgnores(pkg.Fset, pkg.Files)
	diags = applyIgnores(diags, igns)
	diags = append(diags, ignDiags...)
	if opts.StaleCheck {
		diags = append(diags, staleIgnores(igns)...)
	}

	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
	return diags
}

func diagLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Check != b.Check {
		return a.Check < b.Check
	}
	return a.Message < b.Message
}

// pkgPathHasSuffix reports whether path equals suffix or ends with
// "/"+suffix, i.e. suffix matches on package-path segment boundaries. It
// is how analyzers recognize repo packages both under their full module
// path and under the fixture loader's short paths.
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// funcHasMarker reports whether the function's doc comment contains the
// given //cdnlint:<marker> annotation.
func funcHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if _, ok := markerText(c.Text, marker); ok {
			return true
		}
	}
	return false
}

// markerText matches a "//cdnlint:<marker>" comment and returns the text
// following the marker (trimmed), which annotations may use as a reason.
func markerText(comment, marker string) (string, bool) {
	const prefix = "//cdnlint:"
	if !strings.HasPrefix(comment, prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(comment, prefix)
	if rest == marker {
		return "", true
	}
	if strings.HasPrefix(rest, marker+" ") {
		return strings.TrimSpace(strings.TrimPrefix(rest, marker)), true
	}
	return "", false
}

// enclosingFuncs builds a map from every FuncDecl in the files to its
// body range, used by analyzers that scope rules to annotated functions.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}
