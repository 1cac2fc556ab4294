package dataplane_test

import (
	"fmt"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// TestWriteFIBMatchesReference holds the streaming FIB encoder to the
// reference renderer on real forwarding state: the seven techniques, a
// load-shift over a different base and scoped prepending, at one and two
// shards, converged, with a site crashed (FIB entries deleted) and
// recovered again.
func TestWriteFIBMatchesReference(t *testing.T) {
	techs := append(core.SevenTechniques(),
		core.LoadShift{Base: core.ProactiveSuperprefix{}},
		core.ProactivePrepending{Prepends: 3, Scoped: true})
	for _, tech := range techs {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tech.Name(), shards), func(t *testing.T) {
				cfg := experiment.WorldConfig{
					Seed:           31,
					Topology:       topology.GenConfig{NumStub: 120, NumEyeball: 60, NumUniversity: 16, NumRegional: 24},
					CollectorPeers: 25,
					Shards:         shards,
					Demand:         traffic.Config{Enabled: true},
				}
				w, err := experiment.NewConvergedWorld(cfg, tech, 3600)
				if err != nil {
					t.Fatal(err)
				}
				check := func(stage string) {
					t.Helper()
					want := dataplane.RefFIBDigest(w.Plane)
					if want == "" {
						t.Fatalf("%s: reference digest is empty", stage)
					}
					if got := w.Plane.FIBDigest(); got != want {
						t.Fatalf("%s: FIBDigest differs from the reference renderer (%d vs %d bytes)", stage, len(got), len(want))
					}
				}
				check("converged")
				site := w.CDN.Sites()[2].Code
				if _, err := w.CDN.CrashSite(site); err != nil {
					t.Fatal(err)
				}
				if err := w.Settle(3600); err != nil {
					t.Fatal(err)
				}
				check("crashed")
				if _, err := w.CDN.RecoverSite(site); err != nil {
					t.Fatal(err)
				}
				if err := w.Settle(3600); err != nil {
					t.Fatal(err)
				}
				check("recovered")
			})
		}
	}
}
