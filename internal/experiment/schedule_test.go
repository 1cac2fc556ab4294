package experiment

import (
	"fmt"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// convergeDigests converges tech on the topology gen describes, with the
// kernel and BGP seeded kseed and the given MRAI, and returns the route and
// FIB digests. The world is wired by hand because NewWorld ties the
// topology seed to the kernel seed.
func convergeDigests(t *testing.T, gen topology.GenConfig, tech core.Technique, kseed int64, mrai netsim.Seconds) (routes, fib string) {
	t.Helper()
	topo, err := topology.Cached(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.DefaultConfig()
	cfg.MRAI = mrai
	sim := netsim.New(kseed)
	net, err := bgp.NewSharded(sim, topo, cfg, 1, kseed)
	if err != nil {
		t.Fatal(err)
	}
	plane := dataplane.New(net)
	cdn, err := core.New(net, plane)
	if err != nil {
		t.Fatal(err)
	}
	if err := cdn.Deploy(tech); err != nil {
		t.Fatal(err)
	}
	net.ConvergeSynchronously(ConvergeTime)
	if n := sim.Pending(); n != 0 {
		t.Fatalf("%s seed %d MRAI %v: %d events pending after %d s", tech.Name(), kseed, mrai, n, ConvergeTime)
	}
	return net.RouteStateDigest(), plane.FIBDigest()
}

// TestConvergedStateScheduleFree pins that event timing decides when a
// world converges, never where: under Gao-Rexford preferences and a strict
// total order in the decision process each prefix has one stable routing,
// so kernel seeds (jitter, processing delays) and MRAI must leave the route
// and FIB digests unchanged. The topology is fixed at seed 7, with and
// without shared providers, whose sessions to several sites of one AS are
// where ties reach the session tie-break.
func TestConvergedStateScheduleFree(t *testing.T) {
	techs := append(core.AllTechniques(), core.ExtensionTechniques()...)
	for _, shared := range []int{0, 2} {
		gen := topology.GenConfig{Seed: 7, CDNSharedProviders: shared}
		for _, tech := range techs {
			t.Run(fmt.Sprintf("shared=%d/%s", shared, tech.Name()), func(t *testing.T) {
				t.Parallel()
				var wantRoutes, wantFIB string
				for _, kseed := range []int64{7, 101, 202} {
					for _, mrai := range []netsim.Seconds{45, 0} {
						routes, fib := convergeDigests(t, gen, tech, kseed, mrai)
						if wantRoutes == "" {
							wantRoutes, wantFIB = routes, fib
							continue
						}
						if routes != wantRoutes {
							t.Errorf("seed %d MRAI %v: route digest differs from seed 7 MRAI 45", kseed, mrai)
						}
						if fib != wantFIB {
							t.Errorf("seed %d MRAI %v: FIB digest differs from seed 7 MRAI 45", kseed, mrai)
						}
					}
				}
			})
		}
	}
	t.Run("paper-scale", func(t *testing.T) {
		if testing.Short() {
			t.Skip("paper-scale converges skipped in -short mode")
		}
		gen := DefaultWorldConfig(WithPaperScale()).Topology
		gen.Seed = 5001
		routes45, fib45 := convergeDigests(t, gen, core.ReactiveAnycast{}, 5001, 45)
		routes0, fib0 := convergeDigests(t, gen, core.ReactiveAnycast{}, 5001, 0)
		if routes45 != routes0 || fib45 != fib0 {
			t.Error("reactive-anycast at paper scale: MRAI 45 s and 0 s converge to different state")
		}
	})
}
