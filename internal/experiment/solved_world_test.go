package experiment_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/ctlplane"
	"bestofboth/internal/experiment"
	"bestofboth/internal/scenario"
)

// worldOracleTechniques is every technique core.TechniqueByName resolves:
// the seven, the classic six, the extensions and one load-shift+ base.
func worldOracleTechniques(t testing.TB) []core.Technique {
	var techs []core.Technique
	for _, tech := range slices.Concat(core.SevenTechniques(), core.AllTechniques(), core.ExtensionTechniques(),
		[]core.Technique{core.LoadShift{Base: core.ProactivePrepending{Prepends: 3}}}) {
		if slices.ContainsFunc(techs, func(o core.Technique) bool { return o.Name() == tech.Name() }) {
			continue
		}
		if _, err := core.TechniqueByName(tech.Name()); err != nil {
			t.Fatal(err)
		}
		techs = append(techs, tech)
	}
	return techs
}

// noExportPrepending is proactive prepending whose backup announcements
// carry NO_EXPORT, so each backup reaches only the announcing site's
// neighbors. No technique in core announces a community; this one puts
// RFC 1997's export rules, the solver's and the converge's, in the world
// oracle.
type noExportPrepending struct{ core.ProactivePrepending }

func (noExportPrepending) Name() string { return "proactive-prepending-no-export" }

func (t noExportPrepending) Plan(c *core.CDN) []core.Announcement {
	plan := t.ProactivePrepending.Plan(c)
	for i, a := range plan {
		if a.Policy != nil {
			pol := *a.Policy
			pol.Communities = []uint32{bgp.CommunityNoExport}
			plan[i].Policy = &pol
		}
	}
	return plan
}

// worldOracleConfig is a reduced world with the demand model on, at the
// given shard count and shared providers. A Rebalancer under demand is not
// solvable, so the load-shift techniques get the same world without demand.
func worldOracleConfig(t testing.TB, scale float64, shards, shared int, tech core.Technique) experiment.WorldConfig {
	cfg := experiment.DefaultWorldConfig(experiment.WithSeed(5), experiment.WithScale(scale), experiment.WithShards(shards))
	cfg.Topology.CDNSharedProviders = shared
	with := cfg
	experiment.WithDefaultDemand()(&with)
	if _, ok := tech.(core.Rebalancer); !ok {
		cfg = with
	}
	if shards == 1 && !experiment.Solvable(cfg, tech) {
		t.Fatalf("%s: the oracle's world is not solvable", tech.Name())
	}
	return cfg
}

// convergedPair builds cfg's world under tech both ways: the event-driven
// reference (deploy, settle, handoff) and the solved world.
func convergedPair(t testing.TB, cfg experiment.WorldConfig, tech core.Technique) (ref, sol *experiment.World) {
	t.Helper()
	ref, err := experiment.ConvergedWorld(cfg, tech, experiment.ConvergeTime, false)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Sim.Pending() != 0 {
		t.Fatalf("%s: the reference did not converge within %d s", tech.Name(), experiment.ConvergeTime)
	}
	sol, err = experiment.ConvergedWorld(cfg, tech, experiment.ConvergeTime, true)
	if err != nil {
		t.Fatal(err)
	}
	return ref, sol
}

// matrixRuns is one technique's row of the Figure 2 matrix on a converged
// world: per selected site, a world restored from w's snapshot fails it
// and is probed, as Runner.RunMatrix does.
func matrixRuns(t testing.TB, w *experiment.World, sel *experiment.Selection, fc experiment.FailoverConfig) []*experiment.RunResult {
	t.Helper()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var runs []*experiment.RunResult
	for _, st := range sel.Sites {
		rw, err := experiment.RestoreWorld(snap)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiment.FailoverOn(rw, sel, w.CDN.Technique(), st.Code, fc)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	return runs
}

// TestSolvedWorldMatchesConverged is the world oracle: for every technique
// TechniqueByName resolves, and for noExportPrepending, at shards 1 and 2
// and shared providers 0 and 2, the solved world must hand its first fault
// the state the event-driven reference does. Route, FIB and the control plane's StateOf (virtual time,
// site and load rows, availability, route/FIB/DNS digests) must be equal,
// and so must every ⟨technique, site⟩ RunResult of the Figure 2 matrix
// under KindFail and under the health monitor's KindCrash. One bundled
// scenario matrix run by the Runner, whose worlds NewConvergedWorld solves,
// must equal the same scenarios on the references. Paper scale, Figure 2's
// four techniques at one kernel, runs outside -short.
func TestSolvedWorldMatchesConverged(t *testing.T) {
	techs := worldOracleTechniques(t)
	// Paper scale checks Figure 2's four techniques (the first four of
	// SevenTechniques) at one kernel.
	scales := []struct {
		name   string
		scale  float64
		probe  int
		techs  []core.Technique
		shards []int
	}{
		{"default", 0.35, 8, append(slices.Clip(techs), noExportPrepending{core.ProactivePrepending{Prepends: 3}}), []int{1, 2}},
		{"paper", experiment.PaperScale, 4, techs[:4], []int{1}},
	}
	for _, sc := range scales {
		for _, shards := range sc.shards {
			for _, shared := range []int{0, 2} {
				for _, tech := range sc.techs {
					t.Run(fmt.Sprintf("%s/shards=%d/shared=%d/%s", sc.name, shards, shared, tech.Name()), func(t *testing.T) {
						if sc.name == "paper" && testing.Short() {
							t.Skip("paper scale skipped in -short mode")
						}
						t.Parallel()
						cfg := worldOracleConfig(t, sc.scale, shards, shared, tech)
						ref, sol := convergedPair(t, cfg, tech)
						if ref.Net.RouteStateDigest() != sol.Net.RouteStateDigest() {
							t.Fatal("route state digests differ")
						}
						if ref.Plane.FIBDigest() != sol.Plane.FIBDigest() {
							t.Fatal("FIB digests differ")
						}
						if a, b := ctlplane.StateOf(ref), ctlplane.StateOf(sol); !reflect.DeepEqual(a, b) {
							t.Fatalf("StateOf differs:\nreference %+v\nsolved    %+v", a, b)
						}
						sel, err := experiment.SelectTargets(cfg, 40)
						if err != nil {
							t.Fatal(err)
						}
						for _, monitor := range []bool{false, true} {
							fc := experiment.DefaultFailoverConfig()
							fc.MaxTargets, fc.UseMonitor = sc.probe, monitor
							want, got := matrixRuns(t, ref, sel, fc), matrixRuns(t, sol, sel, fc)
							for i := range want {
								if !reflect.DeepEqual(want[i], got[i]) {
									t.Fatalf("monitor=%v, %s failed: reference %+v\nsolved %+v", monitor, want[i].FailedSite, want[i], got[i])
								}
							}
						}
					})
				}
			}
		}
	}
	t.Run("default/scenario-matrix", func(t *testing.T) {
		t.Parallel()
		sc := scenario.ByName("regional-outage")
		sco := experiment.DefaultScenarioConfig()
		cfg := experiment.DefaultWorldConfig(experiment.WithSeed(5), experiment.WithScale(0.35))
		sel, err := experiment.SelectTargets(cfg, 40)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&experiment.Runner{Workers: 2}).RunScenarioMatrix(cfg, sel, techs, []*scenario.Scenario{sc}, sco)
		if err != nil {
			t.Fatal(err)
		}
		for i, tech := range techs {
			eff := experiment.ScenarioWorldConfig(cfg, sc)
			ref, err := experiment.ConvergedWorld(eff, tech, experiment.ConvergeTime, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scenario.Run(ref.Env(), sc, experiment.ScenarioGroups(ref, sel, sco.MaxTargetsPerSite), sco.Options)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got[i][0]) {
				t.Fatalf("%s: reference %+v\nrunner %+v", tech.Name(), want, got[i][0])
			}
		}
	})
}

// TestUnsolvableWorldsConverge pins the two worlds NewConvergedWorld must
// converge event by event, and hand to their first fault where the settle
// ends: under route-flap damping, forcing the solved path is refused by the
// solver, and for a Rebalancer under demand the solved world is its plan's,
// not the rebalanced one the reference settles on.
func TestUnsolvableWorldsConverge(t *testing.T) {
	damped := experiment.DefaultWorldConfig(experiment.WithSeed(5), experiment.WithScale(0.35), experiment.WithDamping())
	if experiment.Solvable(damped, core.Anycast{}) {
		t.Error("a damped world is solvable")
	}
	if _, err := experiment.ConvergedWorld(damped, core.Anycast{}, experiment.ConvergeTime, true); !errors.Is(err, bgp.ErrSolveDamping) {
		t.Errorf("solving a damped world: err = %v, want %v", err, bgp.ErrSolveDamping)
	}
	w, err := experiment.NewConvergedWorld(damped, core.Anycast{}, experiment.ConvergeTime)
	if err != nil {
		t.Fatal(err)
	}
	if now := w.Sim.Now(); now >= experiment.ConvergeTime {
		t.Errorf("the damped world waits to %v s; its fault must come where the converge ends", now)
	}

	demand := experiment.DefaultWorldConfig(experiment.WithSeed(5), experiment.WithScale(0.35), experiment.WithDefaultDemand())
	tech := core.LoadShift{}
	if experiment.Solvable(demand, tech) {
		t.Error("a Rebalancer under demand is solvable")
	}
	ref, sol := convergedPair(t, demand, tech)
	if ref.Net.RouteStateDigest() == sol.Net.RouteStateDigest() {
		t.Error("the rebalanced reference equals its solved plan: the seed rebalances nothing, so this pins nothing")
	}
}
