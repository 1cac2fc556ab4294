package experiment

import (
	"reflect"
	"slices"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
)

// quickScenario shortens the pre-scenario convergence wait for tests.
func quickScenario() ScenarioConfig {
	return ScenarioConfig{MaxTargetsPerSite: 6}
}

// shortScenarios returns fast library-flavored scenarios for matrix tests:
// a short flap (with and without damping) and a brief regional outage.
func shortScenarios() []*scenario.Scenario {
	return []*scenario.Scenario{
		{
			Name:   "quick-flap",
			Events: []scenario.Event{{At: 10, Kind: scenario.KindFlap, Site: "sea1", Period: 60, Count: 2}},
		},
		{
			Name:    "quick-flap-damped",
			Damping: true,
			Events:  []scenario.Event{{At: 10, Kind: scenario.KindFlap, Site: "sea1", Period: 60, Count: 2}},
		},
		{
			Name:    "quick-regional",
			Horizon: 160,
			Events: []scenario.Event{
				{At: 10, Kind: scenario.KindRegionalFail, Site: "slc", Radius: 12},
				{At: 90, Kind: scenario.KindRegionalRecover, Site: "slc", Radius: 12},
			},
		},
	}
}

// TestScenarioDeterminismAcrossWorkers extends the PR-1 determinism gate to
// scenario runs: the full ⟨technique, scenario⟩ matrix — including the
// damping-enabled flap, which builds a different world — must be deeply
// equal between a strictly sequential runner without snapshot reuse and an
// 8-worker runner with reuse.
func TestScenarioDeterminismAcrossWorkers(t *testing.T) {
	cfg := tinyConfig(31)
	sel := mustSelect(t, cfg, 20)
	sco := quickScenario()
	techs := []core.Technique{core.ReactiveAnycast{}, core.Anycast{}}
	scs := shortScenarios()

	seq := &Runner{Workers: 1, DisableReuse: true}
	par := &Runner{Workers: 8}

	seqM, err := seq.RunScenarioMatrix(cfg, sel, techs, scs, sco)
	if err != nil {
		t.Fatal(err)
	}
	parM, err := par.RunScenarioMatrix(cfg, sel, techs, scs, sco)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range techs {
		for si := range scs {
			a, b := seqM[ti][si], parM[ti][si]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("scenario run [%s][%s] differs between workers=1 and workers=8:\n%+v\nvs\n%+v",
					techs[ti].Name(), scs[si].Name, a, b)
			}
		}
	}
}

// TestRunScenarioShapes sanity-checks one scenario run end to end through
// the runner: groups cover multiple sites, probing happened, and the
// damping request actually reaches the world config.
func TestRunScenarioShapes(t *testing.T) {
	cfg := tinyConfig(32)
	sel := mustSelect(t, cfg, 20)
	r := &Runner{Workers: 2}
	sc := shortScenarios()[2] // quick-regional
	res, err := r.RunScenario(cfg, sel, core.ReactiveAnycast{}, sc, quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "quick-regional" || res.Technique != (core.ReactiveAnycast{}).Name() {
		t.Errorf("result identity %q/%q", res.Scenario, res.Technique)
	}
	if res.Groups < 2 || res.Targets == 0 {
		t.Errorf("groups=%d targets=%d, want a multi-site population", res.Groups, res.Targets)
	}
	if res.Sent == 0 || res.Answered == 0 {
		t.Errorf("no probing: sent=%d answered=%d", res.Sent, res.Answered)
	}
	if len(res.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(res.Events))
	}
	// The regional failure takes out three sites at once.
	if res.Events[0].SitesDown != 3 {
		t.Errorf("regional failure left %d sites down, want 3", res.Events[0].SitesDown)
	}
	if res.Events[1].SitesDown != 0 {
		t.Errorf("regional recovery left %d sites down, want 0", res.Events[1].SitesDown)
	}
	if res.Events[0].AffectedTargets == 0 {
		t.Error("regional failure affected no targets")
	}
}

func TestScenarioWorldConfigDamping(t *testing.T) {
	base := tinyConfig(33)
	plain := ScenarioWorldConfig(base, &scenario.Scenario{Name: "x"})
	if plain.BGP.Damping != nil {
		t.Error("non-damping scenario enabled damping")
	}
	damped := ScenarioWorldConfig(base, &scenario.Scenario{Name: "x", Damping: true})
	if damped.BGP.Damping == nil {
		t.Error("damping scenario did not enable damping")
	}
	if base.BGP.Damping != nil {
		t.Error("ScenarioWorldConfig mutated its input")
	}
}

// TestScenarioPopulationMatchesFailover pins the scenario engine to Figure
// 2's probe population: under every technique (load-shift also with the
// demand model that moves it onto per-bucket addresses) a scenario run
// probes somebody, and per site the union of its groups' targets is exactly
// the controllable set failoverOn probes under the same cap.
func TestScenarioPopulationMatchesFailover(t *testing.T) {
	base := tinyConfig(34)
	sel := mustSelect(t, base, 20)
	demand := base
	WithDefaultDemand()(&demand)
	type world struct {
		name string
		cfg  WorldConfig
		tech core.Technique
	}
	worlds := []world{{"load-shift+demand", demand, core.LoadShift{}}}
	for _, tech := range core.SevenTechniques() {
		worlds = append(worlds, world{tech.Name(), base, tech})
	}

	sco := quickScenario()
	fc := FailoverConfig{ProbeDuration: 3, MaxTargets: sco.MaxTargetsPerSite}
	sc := &scenario.Scenario{Name: "one-fail", Horizon: 30, Events: []scenario.Event{{At: 5, Kind: scenario.KindFail, Site: "sea1"}}}
	r := &Runner{Workers: 1}
	for _, tc := range worlds {
		t.Run(tc.name, func(t *testing.T) {
			res, err := r.RunScenario(tc.cfg, sel, tc.tech, sc, sco)
			if err != nil {
				t.Fatal(err)
			}
			if res.Groups == 0 || res.Targets == 0 || res.Sent == 0 {
				t.Fatalf("scenario probed nobody: %d groups, %d targets, %d probes", res.Groups, res.Targets, res.Sent)
			}

			snap, err := r.convergedSnapshot(tc.cfg, tc.tech)
			if err != nil {
				t.Fatal(err)
			}
			w, err := r.materialize(tc.cfg, tc.tech, snap)
			if err != nil {
				t.Fatal(err)
			}
			bySite := map[string][]topology.NodeID{}
			for _, g := range scenarioGroups(w, sel, sco.MaxTargetsPerSite) {
				bySite[g.Site] = append(bySite[g.Site], g.Targets...)
			}
			for _, s := range w.CDN.Sites() {
				fw, err := r.materialize(tc.cfg, tc.tech, snap)
				if err != nil {
					t.Fatal(err)
				}
				run, err := failoverOn(fw, sel, tc.tech, s.Code, fc)
				if err != nil {
					t.Fatal(err)
				}
				var want []topology.NodeID
				for _, o := range run.Outcomes {
					want = append(want, o.Target)
				}
				got := bySite[s.Code]
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("site %s: scenario groups probe %v, failoverOn's controllable set is %v", s.Code, got, want)
				}
			}
		})
	}
}
