package bestofboth_test

// End-to-end integration tests: the full pipeline from topology generation
// through BGP convergence, failure, probing, and metric computation, with
// the paper's headline claims asserted across module boundaries. These are
// the "does the whole system tell the paper's story" checks; unit and
// property tests live next to each package.

import (
	"testing"

	"bestofboth/internal/bgp"
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

// TestPaperHeadlineClaims runs a reduced version of the paper's full
// evaluation and asserts its central comparisons.
func TestPaperHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := integrationConfig(42)
	sel, err := experiment.SelectTargets(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	fc := experiment.FailoverConfig{ProbeDuration: 300, MaxTargets: 15}
	sites := []string{"atl", "msn", "slc"}

	pairs, err := (&experiment.Runner{}).Figure2(cfg, sel, []core.Technique{
		core.ProactiveSuperprefix{},
		core.ReactiveAnycast{},
		core.ProactivePrepending{Prepends: 3},
		core.Anycast{},
	}, sites, fc)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]experiment.CDFPair{}
	for _, p := range pairs {
		byName[p.Technique] = p
	}
	anycast := byName["anycast"].Failover.Median()
	reactive := byName["reactive-anycast"].Failover.Median()
	prepend := byName["proactive-prepending"].Failover.Median()
	super := byName["proactive-superprefix"].Failover.Median()

	// §1: reactive-anycast ≈ anycast (paper: ~2 s apart).
	if d := reactive - anycast; d < -5 || d > 10 {
		t.Errorf("reactive (%.1fs) not within a few seconds of anycast (%.1fs)", reactive, anycast)
	}
	// §4/§5: prepending between anycast and superprefix.
	if prepend < anycast-3 || prepend > super {
		t.Errorf("prepending (%.1fs) not between anycast (%.1fs) and superprefix (%.1fs)",
			prepend, anycast, super)
	}
	// §3: superprefix much slower than anycast.
	if super < 4*anycast {
		t.Errorf("superprefix (%.1fs) not ≫ anycast (%.1fs)", super, anycast)
	}
	// §5.4.1: the fast techniques reconnect in seconds, not minutes.
	for _, name := range []string{"anycast", "reactive-anycast", "proactive-prepending"} {
		if m := byName[name].Reconnection.Median(); m > 30 {
			t.Errorf("%s reconnection median %.1fs too slow", name, m)
		}
	}

	// §5.4.2: prepending steers a meaningful share of the anycast-misrouted
	// targets, with exactly the pathological-site structure of Table 1.
	rows, err := experiment.Table1(cfg, sel)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	worst := 1.0
	for _, r := range rows {
		mean += r.Prepend3
		if r.Prepend3 < worst {
			worst = r.Prepend3
		}
	}
	mean /= float64(len(rows))
	if mean < 0.4 {
		t.Errorf("mean prepend-3 control %.0f%% below the paper's ~60%% regime", mean*100)
	}
	if worst > 0.5 {
		t.Errorf("no pathological site: worst control %.0f%%", worst*100)
	}

	// Appendices A/B: withdrawal convergence ≫ announcement propagation.
	f3, err := experiment.Figure3(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := experiment.Figure4(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Testbed.Median() < 3*f4.Testbed.Median() {
		t.Errorf("withdrawal convergence (%.1fs) not ≫ propagation (%.1fs)",
			f3.Testbed.Median(), f4.Testbed.Median())
	}

	// §2 motivation: DNS-gated unicast failover is far slower than any
	// BGP-based technique.
	ucfg := experiment.DefaultUnicastDNSConfig()
	ucfg.Clients = 400
	dnsCDF, err := experiment.UnicastDNSFailover(cfg, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	if dnsCDF.Median() < 10*reactive {
		t.Errorf("unicast DNS failover (%.0fs) not ≫ reactive-anycast (%.1fs)",
			dnsCDF.Median(), reactive)
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

// TestSharedProviderDeploymentEndToEnd asserts the §4 deployment argument:
// with common providers across sites, the scoped variants achieve full
// control AND fast failover simultaneously — the "best of both worlds" the
// title promises, without even the prepending control loss.
func TestSharedProviderDeploymentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := integrationConfig(13)
	cfg.Topology.CDNSharedProviders = 2
	sel, err := experiment.SelectTargets(cfg, 25)
	if err != nil {
		t.Fatal(err)
	}
	fc := experiment.FailoverConfig{ProbeDuration: 300, MaxTargets: 10}

	for _, tech := range []core.Technique{
		core.ProactivePrepending{Prepends: 3, Scoped: true},
		core.ProactiveMED{},
	} {
		// Control: full.
		w, err := experiment.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CDN.Deploy(tech); err != nil {
			t.Fatal(err)
		}
		w.Converge(3600)
		for _, st := range sel.Sites {
			s := w.CDN.Site(st.Code)
			for _, id := range st.NotAnycast[:min(5, len(st.NotAnycast))] {
				if !w.CDN.CanSteer(id, s) {
					t.Errorf("%s: cannot steer client %d to %s under shared providers",
						tech.Name(), id, st.Code)
				}
			}
		}
		// Availability: failover within the anycast regime.
		r, err := experiment.RunFailover(cfg, sel, tech, "msn", fc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Controllable == 0 {
			t.Fatalf("%s: no controllable targets", tech.Name())
		}
		cdf := experiment.Figure2Single(r, fc)
		if m := cdf.Failover.Median(); m > 60 {
			t.Errorf("%s: failover median %.1fs not in the fast regime", tech.Name(), m)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestDampingWorsensReactiveTail is the ablation claim pinned as a test:
// route-flap damping penalizes reactive announcements arriving amid
// withdrawal churn, lengthening the tail.
func TestDampingWorsensReactiveTail(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	run := func(damp bool) float64 {
		cfg := integrationConfig(21)
		cfg.BGP = bgp.DefaultConfig()
		cfg.BGP.Damping = damp
		sel, err := experiment.SelectTargets(cfg, 25)
		if err != nil {
			t.Fatal(err)
		}
		fc := experiment.FailoverConfig{ProbeDuration: 300, MaxTargets: 12}
		pairs, err := (&experiment.Runner{}).Figure2(cfg, sel,
			[]core.Technique{core.ReactiveAnycast{}}, []string{"atl", "msn"}, fc)
		if err != nil {
			t.Fatal(err)
		}
		return pairs[0].Failover.Percentile(95)
	}
	off, on := run(false), run(true)
	if on < off {
		t.Errorf("damping improved the reactive tail (%.1fs -> %.1fs); expected penalty", off, on)
	}
}
