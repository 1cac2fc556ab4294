package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseIgnores parses src as a single file named f.go and runs
// collectIgnores over it.
func parseIgnores(t *testing.T, src string) ([]*ignoreDirective, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return collectIgnores(fset, []*ast.File{f})
}

// diag fabricates a finding at f.go:line for suppression-matching tests.
func diag(check string, line int) Diagnostic {
	return Diagnostic{Check: check, Pos: token.Position{Filename: "f.go", Line: line, Column: 1}, Message: "m"}
}

func TestIgnoreMissingReason(t *testing.T) {
	igns, diags := parseIgnores(t, `package p

//lint:ignore cdnlint/detrand
var x = 1
`)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "missing a reason") {
		t.Fatalf("want one missing-reason diagnostic, got %v", diags)
	}
	// The reason-less directive still suppresses, so the missing-reason
	// finding is the only new noise on the line.
	if len(igns) != 1 {
		t.Fatalf("want the directive honored despite the missing reason, got %d directives", len(igns))
	}
	if kept := applyIgnores([]Diagnostic{diag("detrand", 4)}, igns); len(kept) != 0 {
		t.Fatalf("want the finding suppressed, kept=%v", kept)
	}
}

func TestIgnoreUnknownCheck(t *testing.T) {
	igns, diags := parseIgnores(t, `package p

//lint:ignore cdnlint/nosuchcheck fat-fingered the name
var x = 1
`)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown check cdnlint/nosuchcheck") {
		t.Fatalf("want one unknown-check diagnostic, got %v", diags)
	}
	// An unknown-check directive necessarily matches nothing, but piling a
	// stale report on top of the unknown-check one would be double noise.
	if stale := staleIgnores(igns); len(stale) != 0 {
		t.Fatalf("unknown-check directive must not also be reported stale, got %v", stale)
	}
}

func TestIgnoreStale(t *testing.T) {
	igns, diags := parseIgnores(t, `package p

//lint:ignore cdnlint/detrand the finding this guarded is long gone
var x = 1
`)
	if len(diags) != 0 {
		t.Fatalf("well-formed directive should parse clean, got %v", diags)
	}
	if kept := applyIgnores([]Diagnostic{diag("maporder", 4)}, igns); len(kept) != 1 {
		t.Fatalf("directive for another check must not suppress, kept=%v", kept)
	}
	stale := staleIgnores(igns)
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "stale //lint:ignore cdnlint/detrand") {
		t.Fatalf("want one stale diagnostic, got %v", stale)
	}
	if stale[0].Pos.Line != 3 {
		t.Fatalf("stale diagnostic should point at the directive (line 3), got line %d", stale[0].Pos.Line)
	}
}

func TestIgnoreMatchWindow(t *testing.T) {
	// A directive matches its own line (trailing comment) and the line
	// directly below (comment above the code) — nothing further away.
	igns, _ := parseIgnores(t, `package p

//lint:ignore cdnlint/detrand guards lines 3 and 4 only
var x = 1
var y = 2
`)
	kept := applyIgnores([]Diagnostic{diag("detrand", 3), diag("detrand", 4), diag("detrand", 5)}, igns)
	if len(kept) != 1 || kept[0].Pos.Line != 5 {
		t.Fatalf("want lines 3 and 4 suppressed and line 5 kept, kept=%v", kept)
	}
}

func TestIgnoreMultiCheckDirective(t *testing.T) {
	igns, diags := parseIgnores(t, `package p

//lint:ignore cdnlint/detrand,cdnlint/maporder one line trips both checks
var x = 1
`)
	if len(diags) != 0 {
		t.Fatalf("comma-list directive should parse clean, got %v", diags)
	}
	kept := applyIgnores([]Diagnostic{diag("detrand", 4), diag("maporder", 4), diag("allocfree", 4)}, igns)
	if len(kept) != 1 || kept[0].Check != "allocfree" {
		t.Fatalf("want detrand+maporder suppressed and allocfree kept, kept=%v", kept)
	}
	if stale := staleIgnores(igns); len(stale) != 0 {
		t.Fatalf("a directive that suppressed anything is not stale, got %v", stale)
	}
}

func TestIgnoreOtherToolsLeftAlone(t *testing.T) {
	// Directives naming only other tools' checks (staticcheck etc.) are
	// none of cdnlint's business: no directive, no diagnostics, no stale
	// report.
	igns, diags := parseIgnores(t, `package p

//lint:ignore ST1000 staticcheck's package-comment check
var x = 1

//lint:ignore
var y = 2
`)
	if len(igns) != 0 || len(diags) != 0 {
		t.Fatalf("foreign and bare directives must be skipped, igns=%v diags=%v", igns, diags)
	}
}
