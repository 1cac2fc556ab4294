package bgp

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// solveMismatch compares net's converged loc-RIBs with sol at every ⟨node,
// prefix⟩ net knows or sol solved: the best session, the route on the wire
// (path, MED, communities) and the origin node, which for the converged
// route is where the chain of best sessions ends: its OriginNode breadcrumb
// can name another site of the origin's AS (see appendRoute).
// It describes the first difference, or returns "".
func solveMismatch(net *Network, sol *Solution) string {
	prefixes := slices.Clone(sol.Prefixes())
	for v := range net.speakers {
		sp := &net.speakers[v]
		for _, p := range sp.KnownPrefixes() {
			if i, ok := slices.BinarySearchFunc(prefixes, p, comparePrefix); !ok {
				prefixes = slices.Insert(prefixes, i, p)
			}
		}
	}
	for i := range net.speakers {
		sp := &net.speakers[i]
		node := sp.Node().ID
		for _, p := range prefixes {
			want, got := sp.Best(p), sol.Best(node, p)
			wantSess := sp.BestSession(p)
			gotSess, _ := sol.BestSession(node, p)
			switch {
			case (want == nil) != (got == nil):
				return fmt.Sprintf("%s %s: converged %v, solved %v", sp.Node().Name, p, want, got)
			case want == nil:
			case wantSess != gotSess || !sameWire(want, got) || chainOrigin(net, node, p) != got.OriginNode:
				return fmt.Sprintf("%s %s: converged sess %d path %v med %d origin %d, solved sess %d path %v med %d origin %d",
					sp.Node().Name, p, wantSess, want.Path, want.MED, chainOrigin(net, node, p), gotSess, got.Path, got.MED, got.OriginNode)
			}
		}
	}
	return ""
}

// chainOrigin is where the chain of best sessions from node for p ends.
func chainOrigin(net *Network, node topology.NodeID, p netip.Prefix) topology.NodeID {
	for {
		sess := net.Speaker(node).BestSession(p)
		if sess < 0 {
			return node
		}
		node = net.topo.Node(node).Adj[sess].To
	}
}

// TestSolveMatchesConvergeRandom holds Solve to the event-driven converge
// on random hierarchies: several prefixes, each originated by one to three
// nodes, some of them sharing an ASN as CDN sites do, with random prepends,
// MEDs, per-neighbor exports and NO_EXPORT.
func TestSolveMatchesConvergeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 40; trial++ {
		topo := randomHierarchy(t, r)
		sim := netsim.New(int64(trial))
		net := converged(t, sim, topo, quickCfg(), randomOriginations(r, topo))
		sol, err := Solve(topo, quickCfg(), net.Originations())
		if err != nil {
			t.Fatal(err)
		}
		if d := solveMismatch(net, sol); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// randomOriginations announces one to three prefixes, each from one to
// three random nodes, with random prepends, MEDs, per-neighbor exports and
// NO_EXPORT.
func randomOriginations(r *rand.Rand, topo *topology.Topology) []Origination {
	var origs []Origination
	for k := 0; k < 1+r.Intn(3); k++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(k), 0, 0}), 16)
		for j := 0; j < 1+r.Intn(3); j++ {
			node := topology.NodeID(r.Intn(topo.Len()))
			pol := &OriginPolicy{Prepend: r.Intn(3), MED: r.Intn(2) * 50}
			if r.Intn(6) == 0 {
				pol.Communities = []uint32{CommunityNoExport}
			}
			if r.Intn(3) == 0 {
				pol.PerNeighbor = map[topology.NodeID]NeighborPolicy{}
				for _, adj := range topo.Node(node).Adj {
					pol.PerNeighbor[adj.To] = NeighborPolicy{Export: r.Intn(3) > 0, Prepend: r.Intn(3)}
				}
			}
			origs = append(origs, Origination{Node: node, Prefix: p, Policy: pol})
		}
	}
	return origs
}

// converged originates origs on a network over sim and runs it to
// quiescence.
func converged(t *testing.T, sim *netsim.Sim, topo *topology.Topology, cfg Config, origs []Origination) *Network {
	t.Helper()
	net := New(sim, topo, cfg)
	for _, o := range origs {
		if err := net.Originate(o.Node, o.Prefix, o.Policy); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	return net
}

// TestSolveInstallMatchesConvergeRandom holds Install to the event-driven
// converge on randomOriginations over random hierarchies, with withdrawals
// unpaced and paced: after both networks are handed off at one hour
// (netsim.Sim.Handoff), their route state must be equal, and so must
// everything after one fault applied to both (an origination withdrawn, or
// a random link failed): route state, the UPDATEs it took and the clock.
// The solved side's adj-RIBs come from the converge's own export code, so a
// change to desiredExport that the solver does not share fails here.
func TestSolveInstallMatchesConvergeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	const trials = 40
	moved := 0
	for trial := 0; trial < trials; trial++ {
		topo := randomHierarchy(t, r)
		origs := randomOriginations(r, topo)
		cfg := quickCfg()
		cfg.PaceWithdrawals = trial%2 == 1
		seed := int64(trial)
		ref := converged(t, netsim.New(seed), topo, cfg, origs)
		sol, err := Solve(topo, cfg, origs)
		if err != nil {
			t.Fatal(err)
		}
		inst := New(netsim.New(seed), topo, cfg)
		if err := inst.Install(sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, n := range []*Network{ref, inst} {
			n.sim.Handoff(3600)
		}
		if a, b := ref.RouteStateDigest(), inst.RouteStateDigest(); a != b {
			t.Fatalf("trial %d: installed route state differs from the converged:\n%s\nvs\n%s", trial, b, a)
		}
		// The fault: withdraw an origination, or fail the link a random
		// speaker's best route for it arrives on.
		o := origs[r.Intn(len(origs))]
		var links [][2]topology.NodeID
		for i := range ref.speakers {
			sp := &ref.speakers[i]
			if sess := sp.BestSession(o.Prefix); sess >= 0 {
				links = append(links, [2]topology.NodeID{sp.node.ID, sp.node.Adj[sess].To})
			}
		}
		var link [2]topology.NodeID
		if len(links) > 0 {
			link = links[r.Intn(len(links))]
		}
		var updates [2]uint64
		for i, n := range []*Network{ref, inst} {
			before := n.MessageCount()
			if trial%4 < 2 || len(links) == 0 {
				n.Withdraw(o.Node, o.Prefix)
			} else if err := n.SetLinkDown(link[0], link[1]); err != nil {
				t.Fatal(err)
			}
			n.sim.Run()
			updates[i] = n.MessageCount() - before
		}
		if updates[0] > 0 {
			moved++
		}
		if a, b := ref.RouteStateDigest(), inst.RouteStateDigest(); a != b {
			t.Fatalf("trial %d: after the fault, route state differs", trial)
		}
		if updates[0] != updates[1] {
			t.Fatalf("trial %d: the fault took %d UPDATEs converged, %d installed", trial, updates[0], updates[1])
		}
		if ref.sim.Now() != inst.sim.Now() {
			t.Fatalf("trial %d: the fault settled at %v converged, %v installed", trial, ref.sim.Now(), inst.sim.Now())
		}
	}
	if moved < trials/2 {
		t.Fatalf("only %d of %d faults sent an UPDATE", moved, trials)
	}
}

// TestSolveSharedASNTieBreaks pins the ties that only sites of one AS
// reach: a provider hearing one prefix from two sessions to the same AS
// decides on MED, then on the lower session, and a site never takes a
// route through another site of its own AS.
func TestSolveSharedASNTieBreaks(t *testing.T) {
	b := topology.NewBuilder()
	s1 := b.AddNode(65000, "s1", topology.ClassCDN, topology.Point{})
	s2 := b.AddNode(65000, "s2", topology.ClassCDN, topology.Point{X: 1})
	p := b.AddNode(300, "p", topology.ClassTransit, topology.Point{X: 2})
	b.Link(p, s2, topology.RelCustomer, 0.001) // session 0 at p
	b.Link(p, s1, topology.RelCustomer, 0.001) // session 1 at p
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		med1, med2 int
		sess       int
		origin     topology.NodeID
	}{
		{0, 0, 0, s2},
		{0, 10, 1, s1},
		{10, 0, 0, s2},
	} {
		origs := []Origination{
			{Node: s1, Prefix: testPrefix, Policy: &OriginPolicy{MED: tc.med1}},
			{Node: s2, Prefix: testPrefix, Policy: &OriginPolicy{MED: tc.med2}},
		}
		sol, err := Solve(topo, quickCfg(), origs)
		if err != nil {
			t.Fatal(err)
		}
		r := sol.Best(p, testPrefix)
		if sess, _ := sol.BestSession(p, testPrefix); sess != tc.sess || r.OriginNode != tc.origin {
			t.Errorf("MED %d/%d: p chose session %d origin %d, want %d origin %d", tc.med1, tc.med2, sess, r.OriginNode, tc.sess, tc.origin)
		}
	}
	sol, err := Solve(topo, quickCfg(), []Origination{{Node: s1, Prefix: testPrefix}})
	if err != nil {
		t.Fatal(err)
	}
	if r := sol.Best(s2, testPrefix); r != nil {
		t.Errorf("s2 holds %v through p, a path carrying its own ASN", r.Path)
	}
}

func TestSolveRefusesDampingAndUnknownNodes(t *testing.T) {
	topo := lineTopo(t)
	cfg := quickCfg()
	cfg.Damping = true
	if _, err := Solve(topo, cfg, nil); !errors.Is(err, ErrSolveDamping) {
		t.Errorf("damping: got %v, want ErrSolveDamping", err)
	}
	if _, err := Solve(topo, quickCfg(), []Origination{{Node: 7, Prefix: testPrefix}}); err == nil {
		t.Error("origination at an unknown node solved")
	}
}
