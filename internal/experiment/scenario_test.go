package experiment

import (
	"fmt"
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

// TestFlashCrowdEndKeepsOverlappingChanges pins what a flash crowd's end
// puts back. A lone crowd restores every rate bit-exactly. A crowd whose
// targets' demand changed meanwhile (a second crowd, a demand-scale) only
// takes back its own multiplier, so total demand ends at the product of the
// changes still in force.
func TestFlashCrowdEndKeepsOverlappingChanges(t *testing.T) {
	crowd := func(at, mult float64) scenario.Event {
		return scenario.Event{At: at, Kind: scenario.KindFlashCrowd, Site: "ams", Fraction: mult, Period: 60}
	}
	for _, tc := range []struct {
		name   string
		events []scenario.Event
		want   string // total demand after the run over total before, to 4 digits
	}{
		{"lone crowd", []scenario.Event{crowd(0, 1.5)}, "1.0000"}, // x1.5 truncates: dividing it out is lossy
		{"overlapping crowds", []scenario.Event{crowd(0, 2), crowd(10, 3)}, "1.0000"},
		{"demand-scale inside a crowd", []scenario.Event{crowd(0, 2), {At: 10, Kind: scenario.KindDemandScale, Fraction: 0.5}}, "0.5000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewConvergedWorld(demandConfig(7), core.LoadShed{}, ConvergeTime)
			if err != nil {
				t.Fatal(err)
			}
			m := w.CDN.Demand()
			rates0, total0 := m.Rates(), m.TotalRate()
			sc := &scenario.Scenario{Name: tc.name, Horizon: 80, Events: tc.events}
			if _, err := scenario.Run(w.Env(), sc, nil, scenario.Options{}); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.4f", float64(m.TotalRate())/float64(total0)); got != tc.want {
				t.Errorf("total demand after the run = %s x its value before, want %s", got, tc.want)
			}
			if len(tc.events) == 1 && !slices.Equal(m.Rates(), rates0) {
				t.Error("a lone crowd did not restore every rate exactly")
			}
		})
	}
}
