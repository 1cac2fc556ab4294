package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment naming at least one
// cdnlint check.
type ignoreDirective struct {
	pos    token.Position // position of the comment
	checks []string       // check names without the cdnlint/ prefix
	used   bool           // set when the directive suppressed at least one finding
}

// collectIgnores parses every //lint:ignore comment that targets cdnlint
// checks. Malformed directives (missing reason, unknown check name) are
// returned as diagnostics immediately; well-formed ones are returned for
// suppression matching. Directives that only name other tools' checks
// (e.g. staticcheck's) are left entirely alone.
func collectIgnores(fset *token.FileSet, files []*ast.File) ([]*ignoreDirective, []Diagnostic) {
	var igns []*ignoreDirective
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					continue // bare //lint:ignore with no checks; not ours to judge
				}
				var checks []string
				ours := false
				for _, name := range strings.Split(fields[0], ",") {
					if short, ok := strings.CutPrefix(name, "cdnlint/"); ok {
						ours = true
						checks = append(checks, short)
					}
				}
				if !ours {
					continue
				}
				ign := &ignoreDirective{pos: pos, checks: checks}
				for _, short := range checks {
					if !knownCheck(short) {
						diags = append(diags, Diagnostic{
							Check: "ignore", Pos: pos,
							Message: "//lint:ignore names unknown check cdnlint/" + short,
						})
					}
				}
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Check: "ignore", Pos: pos,
						Message: "//lint:ignore " + fields[0] + " is missing a reason: every suppression must justify itself",
					})
					// Still honor the suppression so the missing-reason
					// finding is the only new noise on the line.
				}
				igns = append(igns, ign)
			}
		}
	}
	return igns, diags
}

// knownCheck reports whether short names a registered analyzer.
func knownCheck(short string) bool {
	for _, a := range All() {
		if a.Name == short {
			return true
		}
	}
	return false
}

// applyIgnores returns the diagnostics no directive suppresses. A
// directive matches findings of its named checks located in the same file
// on the directive's own line (trailing comment) or the line directly
// below it (comment on its own line above the offending code).
func applyIgnores(diags []Diagnostic, igns []*ignoreDirective) []Diagnostic {
	if len(igns) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, ign := range igns {
			if ign.pos.Filename != d.Pos.Filename {
				continue
			}
			if d.Pos.Line != ign.pos.Line && d.Pos.Line != ign.pos.Line+1 {
				continue
			}
			for _, c := range ign.checks {
				if c == d.Check {
					ign.used = true
					suppressed = true
					break
				}
			}
			if suppressed {
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// staleIgnores reports directives that suppressed nothing: the finding
// they were written for is gone and the comment should be removed.
func staleIgnores(igns []*ignoreDirective) []Diagnostic {
	var out []Diagnostic
	for _, ign := range igns {
		if ign.used {
			continue
		}
		// Unknown-check directives are already reported; a stale report on
		// top would be double noise for one mistake.
		allKnown := true
		for _, c := range ign.checks {
			if !knownCheck(c) {
				allKnown = false
				break
			}
		}
		if !allKnown {
			continue
		}
		out = append(out, Diagnostic{
			Check: "ignore", Pos: ign.pos,
			Message: "stale //lint:ignore cdnlint/" + strings.Join(ign.checks, ",cdnlint/") +
				": no matching finding on this or the next line; remove the suppression",
		})
	}
	return out
}
