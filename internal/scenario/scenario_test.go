package scenario

import (
	"fmt"
	"net/netip"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// testEnv builds a small converged world with the given technique deployed.
func testEnv(t *testing.T, seed int64, tech core.Technique) *Env {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: seed, NumStub: 80, NumEyeball: 60, NumUniversity: 16})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(seed)
	net := bgp.New(sim, topo, bgp.Config{MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.02, ProcMax: 0.3})
	plane := dataplane.New(net)
	cdn, err := core.New(net, plane)
	if err != nil {
		t.Fatal(err)
	}
	if err := cdn.Deploy(tech); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return &Env{Sim: sim, Topo: topo, Net: net, Plane: plane, CDN: cdn}
}

func TestValidateRejectsMalformedScenarios(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"missing name", Scenario{Events: []Event{{Kind: KindFail, Site: "atl"}}}},
		{"no events", Scenario{Name: "x"}},
		{"negative horizon", Scenario{Name: "x", Horizon: -1, Events: []Event{{Kind: KindFail, Site: "atl"}}}},
		{"negative time", Scenario{Name: "x", Events: []Event{{At: -5, Kind: KindFail, Site: "atl"}}}},
		{"unknown kind", Scenario{Name: "x", Events: []Event{{Kind: "melt", Site: "atl"}}}},
		{"fail without site", Scenario{Name: "x", Events: []Event{{Kind: KindFail}}}},
		{"link without endpoints", Scenario{Name: "x", Events: []Event{{Kind: KindLinkDown, A: "atl"}}}},
		{"fraction zero", Scenario{Name: "x", Events: []Event{{Kind: KindPartialFail, Site: "sea1"}}}},
		{"fraction above one", Scenario{Name: "x", Events: []Event{{Kind: KindPartialFail, Site: "sea1", Fraction: 1.5}}}},
		{"regional without radius", Scenario{Name: "x", Events: []Event{{Kind: KindRegionalFail, Site: "slc"}}}},
		{"flap without period", Scenario{Name: "x", Events: []Event{{Kind: KindFlap, Site: "sea1", Count: 3}}}},
		{"flap without count", Scenario{Name: "x", Events: []Event{{Kind: KindFlap, Site: "sea1", Period: 60}}}},
		{"flap count that overflows 2*count", Scenario{Name: "x", Events: []Event{{Kind: KindFlap, Site: "sea1", Period: 1, Count: 1 << 62}}}},
		{"flap count past the bound", Scenario{Name: "x", Horizon: 60, Events: []Event{{Kind: KindFlap, Site: "sea1", Period: 0.01, Count: maxFlapCount + 1}}}},
		{"prepend count past a path segment", Scenario{Name: "x", Events: []Event{{Kind: KindAnnouncePolicy, Site: "atl", Count: maxPrepends + 1}}}},
		{"horizon past the bound", Scenario{Name: "x", Horizon: 1e300, Events: []Event{{Kind: KindFail, Site: "atl"}}}},
		{"event past the bound", Scenario{Name: "x", Events: []Event{{At: maxEndTime - 100, Kind: KindFail, Site: "atl"}}}},
		{"flap running past the bound", Scenario{Name: "x", Events: []Event{{Kind: KindFlap, Site: "sea1", Period: 100, Count: maxFlapCount}}}},
		{"flash crowd lasting past the bound", Scenario{Name: "x", Events: []Event{{Kind: KindFlashCrowd, Site: "ams", Fraction: 2, Period: 1e9}}}},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", tc.name)
		}
	}
	ok := Scenario{Name: "ok", Events: []Event{
		{At: 10, Kind: KindFail, Site: "atl"},
		{At: 20, Kind: KindLinkDown, A: "a", B: "b"},
		{At: 30, Kind: KindFlap, Site: "sea1", Period: 60, Count: 2},
		{At: 40, Kind: KindFlap, Site: "bos", Period: 1, Count: maxFlapCount},
		{At: 50, Kind: KindAnnouncePolicy, Site: "atl", Count: maxPrepends},
		{At: maxEndTime - 120, Kind: KindRecover, Site: "atl"},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestEndTime(t *testing.T) {
	withHorizon := Scenario{Name: "x", Horizon: 400, Events: []Event{{At: 10, Kind: KindFail, Site: "atl"}}}
	if got := withHorizon.EndTime(); got != 400 {
		t.Errorf("explicit horizon: got %g, want 400", got)
	}
	plain := Scenario{Name: "x", Events: []Event{
		{At: 10, Kind: KindFail, Site: "atl"},
		{At: 90, Kind: KindRecover, Site: "atl"},
	}}
	if got := plain.EndTime(); got != 210 {
		t.Errorf("last event + tail: got %g, want 210", got)
	}
	// A flap's last action is its final recover: 10 + 3*120 + 60 = 430.
	flap := Scenario{Name: "x", Events: []Event{{At: 10, Kind: KindFlap, Site: "sea1", Period: 120, Count: 4}}}
	if got := flap.EndTime(); got != 550 {
		t.Errorf("flap horizon: got %g, want 550", got)
	}
}

func TestBindExpandsFlapSorted(t *testing.T) {
	env := testEnv(t, 3, core.Unicast{})
	sc := &Scenario{Name: "x", Events: []Event{
		{At: 200, Kind: KindFail, Site: "atl"},
		{At: 10, Kind: KindFlap, Site: "sea1", Period: 100, Count: 3},
	}}
	acts, err := sc.bind(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 7 {
		t.Fatalf("got %d actions, want 7 (3 flap cycles + 1 fail)", len(acts))
	}
	wantAt := []float64{10, 60, 110, 160, 200, 210, 260}
	for i, a := range acts {
		if a.at != wantAt[i] {
			t.Errorf("action %d at %g, want %g (%s)", i, a.at, wantAt[i], a.label)
		}
	}
	if acts[4].kind != KindFail || acts[4].label != "fail atl" {
		t.Errorf("action 4 = %s %q, want the interleaved fail", acts[4].kind, acts[4].label)
	}
}

func TestBindRejectsUnknownNames(t *testing.T) {
	env := testEnv(t, 3, core.Unicast{})
	cases := []Scenario{
		{Name: "x", Events: []Event{{Kind: KindFail, Site: "nowhere"}}},
		{Name: "x", Events: []Event{{Kind: KindLinkDown, A: "atl", B: "no-such-node"}}},
		// Both endpoints exist but are not adjacent.
		{Name: "x", Events: []Event{{Kind: KindLinkDown, A: "atl", B: "bos"}}},
		{Name: "x", Events: []Event{{Kind: KindRegionalFail, Site: "nowhere", Radius: 5}}},
	}
	for i := range cases {
		if _, err := cases[i].bind(env); err == nil {
			t.Errorf("case %d: bind accepted unknown names", i)
		}
	}
}

func TestRegionalSitesSnapToMetros(t *testing.T) {
	env := testEnv(t, 3, core.Unicast{})
	got, err := env.regionalSites("slc", 12)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"slc": true, "sea1": true, "sea2": true}
	if len(got) != len(want) {
		t.Fatalf("regional sites = %v, want slc+sea1+sea2", got)
	}
	for _, code := range got {
		if !want[code] {
			t.Fatalf("regional sites = %v, want slc+sea1+sea2", got)
		}
	}
	// A tiny radius only covers the center's own metro.
	solo, err := env.regionalSites("atl", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 1 || solo[0] != "atl" {
		t.Fatalf("radius-1 regional sites = %v, want [atl]", solo)
	}
}

func TestProviderLinksSelection(t *testing.T) {
	env := testEnv(t, 3, core.Unicast{})
	// sea1 is the weakly connected site: exactly one transit provider.
	all, err := env.providerLinks("sea1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("sea1 provider links = %d, want 1", len(all))
	}
	if name := env.Topo.Node(all[0]).Name; name != "transit-sea-weak" {
		t.Errorf("sea1 provider = %q, want transit-sea-weak", name)
	}
	// A small fraction still selects at least one link, and a larger site
	// loses only part of its transit.
	some, err := env.providerLinks("slc", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	full, err := env.providerLinks("slc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 1 {
		t.Fatalf("fraction 0.01 selected %d links, want 1", len(some))
	}
	if len(full) < len(some) {
		t.Fatalf("fraction 1 selected %d links, fewer than fraction 0.01's %d", len(full), len(some))
	}
}

// buildGroup assembles the probed population for one site the way the
// experiment layer does: targets in the site's catchment via its steering
// address, probed from another site.
func buildGroup(t *testing.T, env *Env, code string, max int) Group {
	t.Helper()
	s := env.CDN.Site(code)
	steer := env.CDN.Technique().SteerAddr(env.CDN, s)
	g := Group{Site: code, ReplyTo: steer}
	for _, o := range env.CDN.Sites() {
		if o.Code != code {
			g.Prober = o.Node
			break
		}
	}
	for _, n := range env.Topo.Nodes {
		if !n.Prefix.IsValid() || (n.Class != topology.ClassStub && n.Class != topology.ClassEyeball) {
			continue
		}
		if got := env.CDN.CatchmentOf(n.ID, steer); got != nil && got.Node == s.Node {
			g.Targets = append(g.Targets, n.ID)
			if len(g.Targets) == max {
				break
			}
		}
	}
	if len(g.Targets) == 0 {
		t.Fatalf("no targets in %s's catchment", code)
	}
	return g
}

func TestRunFailRecoverEndToEnd(t *testing.T) {
	env := testEnv(t, 5, core.ReactiveAnycast{})
	g := buildGroup(t, env, "sea1", 8)
	sc := &Scenario{Name: "e2e", Horizon: 200, Events: []Event{
		{At: 20, Kind: KindFail, Site: "sea1"},
		{At: 120, Kind: KindRecover, Site: "sea1"},
	}}
	res, err := Run(env, sc, []Group{g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "e2e" || res.Technique != (core.ReactiveAnycast{}).Name() {
		t.Errorf("result identity = %q/%q", res.Scenario, res.Technique)
	}
	if res.Groups != 1 || res.Targets != len(g.Targets) {
		t.Errorf("groups/targets = %d/%d, want 1/%d", res.Groups, res.Targets, len(g.Targets))
	}
	if len(res.Events) != 2 {
		t.Fatalf("got %d event results, want 2", len(res.Events))
	}
	if res.Sent == 0 || res.Answered == 0 {
		t.Fatalf("no probing happened: sent=%d answered=%d", res.Sent, res.Answered)
	}
	if res.BGPUpdates == 0 {
		t.Error("fail+recover caused no BGP updates")
	}

	fail, rec := &res.Events[0], &res.Events[1]
	if fail.WindowEnd != 120 || rec.WindowEnd != 200 {
		t.Errorf("windows = [%g %g], want [120 200]", fail.WindowEnd, rec.WindowEnd)
	}
	if fail.SitesDown != 1 || rec.SitesDown != 0 {
		t.Errorf("sitesDown = [%d %d], want [1 0]", fail.SitesDown, rec.SitesDown)
	}
	// The failure must disrupt the targets and the technique must reconnect
	// them: some loss, everyone affected, nobody lost for good.
	if fail.AffectedTargets == 0 {
		t.Fatal("site failure affected no targets")
	}
	if fail.Availability >= 1 {
		t.Error("site failure lost no probes")
	}
	if fail.Lost != fail.AffectedTargets {
		// Reconnections happened; their delays must be recorded.
		if fail.Reconnection.N == 0 || fail.Reconnection.Max <= 0 {
			t.Errorf("reconnections missing: %+v", fail.Reconnection)
		}
	}
	// Failover attribution: affected targets' last reply of the window
	// landed somewhere, and not at the failed site.
	if len(fail.FailoverSites) == 0 {
		t.Error("no failover attribution recorded")
	}
	if n := fail.FailoverSites["sea1"]; n != 0 {
		t.Errorf("%d targets attributed to the failed site", n)
	}
	// After recovery everything is answered again near the tail.
	if rec.Availability == 0 {
		t.Error("no probes answered after recovery")
	}
}

func TestRunAbortsOnBadAction(t *testing.T) {
	env := testEnv(t, 5, core.Unicast{})
	// Recover of a never-failed site fails at apply time.
	sc := &Scenario{Name: "bad", Horizon: 60, Events: []Event{
		{At: 10, Kind: KindRecover, Site: "atl"},
	}}
	if _, err := Run(env, sc, nil, Options{}); err == nil {
		t.Fatal("Run accepted a recover of a healthy site")
	}
}

func TestRunCrashWithMonitor(t *testing.T) {
	env := testEnv(t, 5, core.ReactiveAnycast{})
	sc := &Scenario{Name: "crash", Horizon: 120, Events: []Event{
		{At: 20, Kind: KindCrash, Site: "sea1"},
	}}
	res, err := Run(env, sc, nil, Options{UseMonitor: true})
	if err != nil {
		t.Fatal(err)
	}
	var det *Detection
	for i := range res.Detections {
		if res.Detections[i].Site == "sea1" {
			det = &res.Detections[i]
		}
	}
	if det == nil {
		t.Fatalf("monitor never detected the crash: %+v", res.Detections)
	}
	if det.At <= 20 {
		t.Errorf("detection at %g, before the crash at 20", det.At)
	}
}

func TestLibraryScenariosBind(t *testing.T) {
	env := testEnv(t, 3, core.Unicast{})
	lib := Library()
	if len(lib) < 6 {
		t.Fatalf("library has %d scenarios, want at least 6", len(lib))
	}
	seen := map[string]bool{}
	for _, sc := range lib {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.Validate(); err != nil {
			t.Errorf("library scenario %s invalid: %v", sc.Name, err)
		}
		if _, err := sc.bind(env); err != nil {
			t.Errorf("library scenario %s does not bind: %v", sc.Name, err)
		}
	}
	for _, name := range []string{"flap", "flap-damped", "regional-outage", "provider-loss-sea1", "rolling-maintenance", "cascade"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("no-such-scenario") != nil {
		t.Error("ByName of unknown scenario returned non-nil")
	}
	if !ByName("flap-damped").Damping {
		t.Error("flap-damped does not request damping")
	}
}

// TestDrainGraceActsOnlyForItsDrain pins that a drain's grace timer, and a
// capacity-drain's poller, cut forwarding only for the drain that scheduled
// them. ams is drained at 0 with a 300 s grace and recovered at 50; the
// recovery retires the first drain's timer, so ams still forwards at 399 s.
// When ams is drained again at 100 with a 300 s grace, it stops forwarding
// at that drain's deadline of 400 s, not at the first one's of 300 s.
// capacity-drain takes its no-accountant path: the world has no demand
// model.
func TestDrainGraceActsOnlyForItsDrain(t *testing.T) {
	for _, kind := range []Kind{KindDrain, KindCapacityDrain} {
		for _, redrain := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/redrain=%t", kind, redrain), func(t *testing.T) {
				env := testEnv(t, 7, core.ReactiveAnycast{})
				sc := &Scenario{Name: "redrain", Horizon: 420, Events: []Event{
					{At: 0, Kind: kind, Site: "ams", DrainFor: 300},
					{At: 50, Kind: KindRecover, Site: "ams"},
				}}
				if redrain {
					sc.Events = append(sc.Events, Event{At: 100, Kind: kind, Site: "ams", DrainFor: 300})
				}
				c, err := Start(env, sc, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				node := env.CDN.Site("ams").Node
				// A walk from a failed node is dropped at its first hop.
				down := func() bool { return env.Plane.Forward(node, netip.Addr{}).Reason == dataplane.DropNodeDown }
				env.Sim.RunUntil(c.T0 + 399)
				if down() {
					t.Errorf("ams stopped forwarding before 399 s")
				}
				env.Sim.RunUntil(c.T0 + 401)
				if down() != redrain {
					t.Errorf("at 401 s ams down = %t, want %t", down(), redrain)
				}
				if err := c.Finish(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
