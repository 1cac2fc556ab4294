package dataplane_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// TestWriteFIBMatchesReference holds the plane's FIB rows to the reference
// tries, fed by their own best-route subscription, on real forwarding state:
// the seven techniques, a load-shift over a different base and scoped
// prepending, at one and two shards, converged, with a site crashed (FIB
// entries deleted) and recovered again. At each stage the FIB text must
// match the reference renderer byte for byte, and every node's walk to every
// CDN address must match the reference walk hop for hop.
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
				// The event path, so the reference sees every change the
				// plane does (a solved world installs its FIBs directly;
				// TestSolvedWorldMatchesConverged holds it to this one).
				w, err := experiment.NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := dataplane.NewRefFIB(w.Plane)
				if err := w.CDN.Deploy(tech); err != nil {
					t.Fatal(err)
				}
				if err := w.Settle(3600); err != nil {
					t.Fatal(err)
				}
				var addrs []netip.Addr
				for _, s := range w.CDN.Sites() {
					addrs = append(addrs, s.Addr)
				}
				addrs = append(addrs, core.AnycastServiceAddr, core.LoadBucketAddr(3),
					netip.MustParseAddr("192.0.2.1")) // under no prefix
				check := func(stage string) {
					t.Helper()
					want := ref.Digest()
					if want == "" {
						t.Fatalf("%s: reference digest is empty", stage)
					}
					if got := w.Plane.FIBDigest(); got != want {
						t.Fatalf("%s: FIBDigest differs from the reference renderer (%d vs %d bytes)", stage, len(got), len(want))
					}
					delivered := 0
					for _, addr := range addrs {
						for id := range w.Topo.Len() {
							src := topology.NodeID(id)
							got, want := w.Plane.ForwardTrace(src, addr), ref.Forward(src, addr)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: walk %d → %s = %+v, reference %+v", stage, src, addr, got, want)
							}
							if got.Delivered {
								delivered++
							}
						}
					}
					if delivered == 0 {
						t.Fatalf("%s: no walk delivered", stage)
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
