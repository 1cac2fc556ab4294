package analysis

import (
	"strings"
	"testing"
)

func TestDetrand(t *testing.T) {
	runFixture(t, "detrand/internal/bgp", []*Analyzer{AnalyzerDetrand}, Options{StaleCheck: true})
}

func TestDetrandOutsideDeterministicPackages(t *testing.T) {
	diags := runFixture(t, "detrand/plain", []*Analyzer{AnalyzerDetrand}, Options{StaleCheck: true})
	if len(diags) != 0 {
		t.Errorf("non-deterministic package should be exempt, got %v", diags)
	}
}

func TestMaporder(t *testing.T) {
	runFixture(t, "maporder/internal/topology", []*Analyzer{AnalyzerMaporder}, Options{StaleCheck: true})
}

func TestRoutefreeze(t *testing.T) {
	runFixture(t, "routefreeze/internal/bgp", []*Analyzer{AnalyzerRoutefreeze}, Options{StaleCheck: true})
}

func TestRoutefreezeCrossPackage(t *testing.T) {
	runFixture(t, "routefreeze/consumer", []*Analyzer{AnalyzerRoutefreeze}, Options{StaleCheck: true})
}

func TestAllocfree(t *testing.T) {
	runFixture(t, "allocfree/hot", []*Analyzer{AnalyzerAllocfree}, Options{StaleCheck: true})
}

func TestSnapshotfields(t *testing.T) {
	runFixture(t, "snapshotfields/snap", []*Analyzer{AnalyzerSnapshotfields}, Options{StaleCheck: true})
}

func TestShardsafe(t *testing.T) {
	runFixture(t, "shardsafe/internal/bgp", []*Analyzer{AnalyzerShardsafe}, Options{StaleCheck: true})
}

// TestSuppression covers the full //lint:ignore lifecycle: own-line and
// trailing suppression, mandatory reasons, unknown check names, stale
// directives, other tools' directives, and multi-check directives.
func TestSuppression(t *testing.T) {
	runFixture(t, "suppress/internal/core", All(), Options{StaleCheck: true})
}

// TestSuppressionSubsetRunSkipsStale checks the subset-run mode: with
// stale checking off, an unused directive for a check that is not being
// run must stay silent.
func TestSuppressionSubsetRunSkipsStale(t *testing.T) {
	analyzers, err := Select("detrand")
	if err != nil {
		t.Fatal(err)
	}
	diags := runFixture(t, "suppress/nostale", analyzers, Options{StaleCheck: false})
	if len(diags) != 0 {
		t.Errorf("subset run must not report stale ignores, got %v", diags)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %v, %v; want all analyzers", all, err)
	}
	sub, err := Select("detrand, cdnlint/maporder")
	if err != nil || len(sub) != 2 || sub[0].Name != "detrand" || sub[1].Name != "maporder" {
		t.Fatalf("Select subset = %v, %v", sub, err)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("Select(nope) err = %v; want unknown check", err)
	}
}

func TestMarkerText(t *testing.T) {
	if text, ok := markerText("//cdnlint:nosnapshot rebuilt on wiring", "nosnapshot"); !ok || text != "rebuilt on wiring" {
		t.Errorf("markerText reason = %q, %v", text, ok)
	}
	if _, ok := markerText("//cdnlint:nosnapshotx", "nosnapshot"); ok {
		t.Error("markerText must not match prefix-extended markers")
	}
	if text, ok := markerText("//cdnlint:allocfree", "allocfree"); !ok || text != "" {
		t.Errorf("bare marker = %q, %v", text, ok)
	}
}
