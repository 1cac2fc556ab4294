package analysis

import (
	"fmt"
	"strings"
)

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerDetrand,
		AnalyzerMaporder,
		AnalyzerRoutefreeze,
		AnalyzerAllocfree,
		AnalyzerSnapshotfields,
		AnalyzerShardsafe,
	}
}

// Select resolves a comma-separated list of check names (with or without
// the cdnlint/ prefix) to analyzers. The empty string selects all.
func Select(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimPrefix(strings.TrimSpace(name), "cdnlint/")
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, checkNames())
		}
	}
	if len(out) == 0 {
		return All(), nil
	}
	return out, nil
}

func checkNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
