package bgp_test

import (
	"fmt"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// TestWriteRouteStateMatchesReference holds the streaming encoder to the
// reference renderer on real converged state: the seven techniques, a
// load-shift over a different base and the scoped prepending policy (whose
// originations carry PerNeighbor entries), at one and two shards, converged,
// with a site crashed (its prefixes withdrawn everywhere, leaving empty
// husks) and recovered again.
func TestWriteRouteStateMatchesReference(t *testing.T) {
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
					want := bgp.RefRouteStateDigest(w.Net)
					if want == "" {
						t.Fatalf("%s: reference digest is empty", stage)
					}
					if got := w.Net.RouteStateDigest(); got != want {
						t.Fatalf("%s: RouteStateDigest differs from the reference renderer (%d vs %d bytes)", stage, len(got), len(want))
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

// TestWriteRouteStateMatchesReferenceRestored holds the encoder to the
// reference renderer on restored worlds, whose speakers read the snapshot's
// frozen per-prefix states until they write one: restored, where every
// state is frozen, and then with a site drained, where the states the drain
// wrote are the world's own and the rest are still the snapshot's.
func TestWriteRouteStateMatchesReferenceRestored(t *testing.T) {
	for _, tech := range core.SevenTechniques() {
		t.Run(tech.Name(), func(t *testing.T) {
			cfg := experiment.WorldConfig{
				Seed:           31,
				Topology:       topology.GenConfig{NumStub: 120, NumEyeball: 60, NumUniversity: 16, NumRegional: 24},
				CollectorPeers: 25,
				Demand:         traffic.Config{Enabled: true},
			}
			src, err := experiment.NewConvergedWorld(cfg, tech, 3600)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			w, err := experiment.RestoreWorld(snap)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				want := bgp.RefRouteStateDigest(w.Net)
				if got := w.Net.RouteStateDigest(); got != want {
					t.Fatalf("%s: RouteStateDigest differs from the reference renderer (%d vs %d bytes)", stage, len(got), len(want))
				}
			}
			check("restored")
			if _, err := w.CDN.DrainSite(w.CDN.Sites()[2].Code); err != nil {
				t.Fatal(err)
			}
			if err := w.Settle(3600); err != nil {
				t.Fatal(err)
			}
			check("drained")
		})
	}
}
