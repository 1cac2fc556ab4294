package bestofboth_test

// End-to-end integration tests: the full pipeline from topology generation
// through BGP convergence, failure, probing, and metric computation. The
// paper's claims are asserted across module boundaries in claims_test.go;
// unit and property tests live next to each package.

import (
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
)

func integrationConfig(seed int64) experiment.WorldConfig {
	return experiment.WorldConfig{
		Seed: seed,
		Topology: topology.GenConfig{
			NumStub:       160,
			NumEyeball:    80,
			NumUniversity: 16,
			NumRegional:   24,
		},
		CollectorPeers: 30,
	}
}

// TestDeterministicEndToEnd verifies the whole pipeline is reproducible:
// two identically-seeded Figure 2 runs must agree exactly.
func TestDeterministicEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	run := func() []float64 {
		cfg := integrationConfig(7)
		sel, err := experiment.SelectTargets(cfg, 20)
		if err != nil {
			t.Fatal(err)
		}
		fc := experiment.FailoverConfig{ProbeDuration: 120, MaxTargets: 10}
		r, err := experiment.RunFailover(cfg, sel, core.ReactiveAnycast{}, "atl", fc)
		if err != nil {
			t.Fatal(err)
		}
		return r.FailoverSamples(120)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
