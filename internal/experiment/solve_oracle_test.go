package experiment

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// oracleTechniques is every technique core.TechniqueByName resolves: the
// seven, the classic six, the extensions, and one load-shift+ base.
func oracleTechniques(t testing.TB) []core.Technique {
	var names []string
	for _, tech := range slices.Concat(core.SevenTechniques(), core.AllTechniques(), core.ExtensionTechniques()) {
		if !slices.Contains(names, tech.Name()) {
			names = append(names, tech.Name())
		}
	}
	names = append(names, "load-shift+proactive-prepending")
	techs := make([]core.Technique, len(names))
	for i, name := range names {
		tech, err := core.TechniqueByName(name)
		if err != nil {
			t.Fatal(err)
		}
		techs[i] = tech
	}
	return techs
}

// solvedMismatch holds the settled world w to a solve of its live
// originations (bgp.Network.Originations): per ⟨node, prefix⟩ the best
// session, AS path, MED, communities and origin node; the FIB digest of the
// solved plane; and, with every failed site's plane flag set on the solved
// plane too, each target's forwarding walk toward each site's service
// address. It describes the first difference, or returns "".
func solvedMismatch(t testing.TB, w *World) string {
	t.Helper()
	if n := w.Sim.Pending(); n != 0 {
		t.Fatalf("%d events pending: the world has not settled", n)
	}
	sol, err := bgp.Solve(w.Topo, w.Cfg.BGP, w.Net.Originations())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := slices.Clone(sol.Prefixes())
	for _, n := range w.Topo.Nodes {
		for _, p := range w.Net.Speaker(n.ID).KnownPrefixes() {
			if !slices.Contains(prefixes, p) {
				prefixes = append(prefixes, p)
			}
		}
	}
	for _, n := range w.Topo.Nodes {
		sp := w.Net.Speaker(n.ID)
		for _, p := range prefixes {
			want, got := sp.Best(p), sol.Best(n.ID, p)
			if (want == nil) != (got == nil) {
				return fmt.Sprintf("%s %s: converged %v, solved %v", n.Name, p, want, got)
			}
			if want == nil {
				continue
			}
			wantSess, origin := sp.BestSession(p), chainOrigin(w.Net, n.ID, p)
			gotSess, _ := sol.BestSession(n.ID, p)
			if wantSess != gotSess || !slices.Equal(want.Path, got.Path) || origin != got.OriginNode ||
				want.MED != got.MED || !slices.Equal(want.Communities, got.Communities) {
				return fmt.Sprintf("%s %s: converged sess %d path %v origin %d, solved sess %d path %v origin %d",
					n.Name, p, wantSess, want.Path, origin, gotSess, got.Path, got.OriginNode)
			}
		}
	}
	plane := dataplane.New(bgp.New(netsim.New(0), w.Topo, w.Cfg.BGP))
	plane.InstallSolution(sol)
	if plane.FIBDigest() != w.Plane.FIBDigest() {
		return "FIB digests differ"
	}
	for _, s := range w.CDN.Sites() {
		if w.CDN.Failed(s.Code) {
			plane.SetDown(s.Node, true)
		}
	}
	for _, tgt := range w.Targets() {
		for _, s := range w.CDN.Sites() {
			for _, addr := range []netip.Addr{s.Addr, core.AnycastServiceAddr} {
				want, got := w.Plane.Forward(tgt.ID, addr), plane.Forward(tgt.ID, addr)
				if want.Delivered != got.Delivered || want.Reason != got.Reason || want.Dest != got.Dest || want.Delay != got.Delay {
					return fmt.Sprintf("%s toward %s: converged %+v, solved %+v", tgt.Name, addr, want, got)
				}
			}
		}
	}
	return ""
}

// chainOrigin is the node that originates node's best route for p: where
// the chain of best sessions ends. It is not the route's OriginNode, a
// breadcrumb that a transit speaker whose best moves between wire-identical
// routes of two sites of one AS does not re-export, so that downstream it
// names whichever site's route arrived first.
func chainOrigin(net *bgp.Network, node topology.NodeID, p netip.Prefix) topology.NodeID {
	for {
		sess := net.Speaker(node).BestSession(p)
		if sess < 0 {
			return node
		}
		node = net.Topology().Node(node).Adj[sess].To
	}
}

// oracleWorld deploys tech on a world built from cfg and settles it.
func oracleWorld(t testing.TB, cfg WorldConfig, tech core.Technique) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CDN.Deploy(tech); err != nil {
		t.Fatal(err)
	}
	if err := w.Settle(ConvergeTime); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSolverOracle is the solver's gate: for every technique
// TechniqueByName resolves, with shared providers 0 and 2, the solve of a
// settled world's live originations must equal the event-driven converge
// (solvedMismatch). Default scale covers references converged at shards 1
// and 2 and, at shards 1, the settled state after each single-site
// FailSite and after each RecoverSite; paper scale covers the deployed
// state outside -short, and so does one internet-scale case. Worlds carry the
// demand model, so the load-shift techniques' rebalanced states are solved
// too.
func TestSolverOracle(t *testing.T) {
	for _, tech := range oracleTechniques(t) {
		for _, shared := range []int{0, 2} {
			t.Run(fmt.Sprintf("default/shared=%d/%s", shared, tech.Name()), func(t *testing.T) {
				t.Parallel()
				for _, shards := range []int{1, 2} {
					cfg := DefaultWorldConfig(WithSeed(7), WithShards(shards), WithDefaultDemand())
					cfg.Topology.CDNSharedProviders = shared
					w := oracleWorld(t, cfg, tech)
					if d := solvedMismatch(t, w); d != "" {
						t.Fatalf("shards %d, deployed: %s", shards, d)
					}
					if shards > 1 {
						continue
					}
					for _, s := range w.CDN.Sites() {
						for _, step := range []struct {
							name string
							do   func(string) (core.SiteTransition, error)
						}{{"FailSite", w.CDN.FailSite}, {"RecoverSite", w.CDN.RecoverSite}} {
							if _, err := step.do(s.Code); err != nil {
								t.Fatal(err)
							}
							if err := w.Settle(ConvergeTime); err != nil {
								t.Fatal(err)
							}
							if d := solvedMismatch(t, w); d != "" {
								t.Fatalf("after %s(%s): %s", step.name, s.Code, d)
							}
						}
					}
				}
			})
			t.Run(fmt.Sprintf("paper/shared=%d/%s", shared, tech.Name()), func(t *testing.T) {
				if testing.Short() {
					t.Skip("paper-scale converges skipped in -short mode")
				}
				t.Parallel()
				cfg := DefaultWorldConfig(WithSeed(11), WithPaperScale(), WithDefaultDemand())
				cfg.Topology.CDNSharedProviders = shared
				if d := solvedMismatch(t, oracleWorld(t, cfg, tech)); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
	t.Run("internet/proactive-prepending", func(t *testing.T) {
		if testing.Short() {
			t.Skip("internet-scale converge skipped in -short mode")
		}
		cfg := DefaultWorldConfig(WithSeed(3), WithInternetScale())
		if d := solvedMismatch(t, oracleWorld(t, cfg, core.ProactivePrepending{Prepends: 3})); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzSolveMatchesConverge holds the solver to the event-driven converge on
// small worlds whose topology and kernel are seeded apart: a topology seed,
// a technique (an index into oracleTechniques), 0-2 shared providers and a
// kernel seed. The world is wired by hand because NewWorld ties the two
// seeds, and its topology is generated afresh so fuzzing does not fill
// topology.Cached.
func FuzzSolveMatchesConverge(f *testing.F) {
	techs := oracleTechniques(f)
	f.Fuzz(func(t *testing.T, topoSeed int64, techIdx, shared uint8, kseed int64) {
		cfg := tinyConfig(kseed)
		cfg.fillDefaults()
		cfg.Topology.Seed = topoSeed
		cfg.Topology.CDNSharedProviders = int(shared % 3)
		topo, err := topology.Generate(cfg.Topology)
		if err != nil {
			t.Skip(err)
		}
		sim := netsim.New(kseed)
		net := bgp.New(sim, topo, cfg.BGP)
		plane := dataplane.New(net)
		cdn, err := core.New(net, plane)
		if err != nil {
			t.Skip(err)
		}
		w := &World{Cfg: cfg, Sim: sim, Topo: topo, Net: net, Plane: plane, CDN: cdn}
		tech := techs[int(techIdx)%len(techs)]
		if err := cdn.Deploy(tech); err != nil {
			t.Fatal(err)
		}
		if err := w.Settle(ConvergeTime); err != nil {
			t.Fatal(err)
		}
		if d := solvedMismatch(t, w); d != "" {
			t.Fatalf("%s, topology seed %d, kernel seed %d, shared %d: %s", tech.Name(), topoSeed, kseed, shared%3, d)
		}
	})
}
