package bgp

import (
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

var testPrefix = netip.MustParsePrefix("184.164.244.0/24")

// quickCfg keeps unit tests fast while preserving MRAI >> processing delay.
func quickCfg() Config {
	return Config{MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.01, ProcMax: 0.05}
}

// lineTopo builds O -- A -- B (O customer of A, A customer of B).
func lineTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	o := b.AddNode(100, "O", topology.ClassStub, topology.Point{})
	a := b.AddNode(200, "A", topology.ClassTransit, topology.Point{X: 1})
	bb := b.AddNode(300, "B", topology.ClassTier1, topology.Point{X: 2})
	b.Link(o, a, topology.RelProvider, 0.001)
	b.Link(a, bb, topology.RelProvider, 0.001)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestAnnouncePropagatesUpstream(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	if err := net.Originate(0, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	for id := topology.NodeID(0); id < 3; id++ {
		best := net.Speaker(id).Best(testPrefix)
		if best == nil {
			t.Fatalf("node %d has no route", id)
		}
	}
	// B's path should be A then O.
	bPath := net.Speaker(2).Best(testPrefix).Path
	want := []topology.ASN{200, 100}
	if len(bPath) != 2 || bPath[0] != want[0] || bPath[1] != want[1] {
		t.Fatalf("B path = %v, want %v", bPath, want)
	}
	if net.Speaker(2).Best(testPrefix).OriginNode != 0 {
		t.Fatal("origin node not carried")
	}
}

func TestWithdrawRemovesRoutes(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Originate(0, testPrefix, nil)
	sim.Run()
	net.Withdraw(0, testPrefix)
	sim.Run()
	for id := topology.NodeID(0); id < 3; id++ {
		if best := net.Speaker(id).Best(testPrefix); best != nil {
			t.Fatalf("node %d still has route %v after withdrawal", id, best.Path)
		}
	}
}

// diamond builds the relationship diamond used by preference tests:
//
//	  T (tier1)
//	 /  \   (C and D are customers of T)
//	C    D
//	 \  /   (O is customer of C and D)
//	  O
//
// plus a peer link C -- D.
func diamond(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	tt := b.AddNode(10, "T", topology.ClassTier1, topology.Point{})
	c := b.AddNode(20, "C", topology.ClassTransit, topology.Point{X: 1})
	d := b.AddNode(30, "D", topology.ClassTransit, topology.Point{X: 2})
	o := b.AddNode(40, "O", topology.ClassStub, topology.Point{X: 3})
	b.Link(c, tt, topology.RelProvider, 0.001)
	b.Link(d, tt, topology.RelProvider, 0.001)
	b.Link(c, d, topology.RelPeer, 0.001)
	b.Link(o, c, topology.RelProvider, 0.001)
	b.Link(o, d, topology.RelProvider, 0.001)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestCustomerRoutePreferredOverPeer(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Originate(3, testPrefix, nil) // O originates
	sim.Run()

	// C hears [O] from its customer O and [D O] from its peer D. It must
	// choose the customer route.
	best := net.Speaker(1).Best(testPrefix)
	if best == nil || len(best.Path) != 1 || best.Path[0] != 40 {
		t.Fatalf("C best = %+v, want direct customer path [40]", best)
	}
	sp := net.Speaker(1)
	sess := sp.BestSession(testPrefix)
	if sess < 0 || topo.Node(1).Adj[sess].Rel != topology.RelCustomer {
		t.Fatalf("C best learned on session %d, want the session to its customer O", sess)
	}
	if lp := sp.localPref(sess); lp != PrefCustomer {
		t.Fatalf("C localpref = %d, want %d", lp, PrefCustomer)
	}
}

func TestPeerRouteNotExportedToPeerOrProvider(t *testing.T) {
	// Valley-free: D's route via its peer C must not be exported to D's
	// provider T. We engineer this by having only C originate.
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Originate(1, testPrefix, nil) // C originates
	sim.Run()

	// D learns from peer C; T must have learned only from C (its customer),
	// never a path through D.
	tBest := net.Speaker(0).Best(testPrefix)
	if tBest == nil {
		t.Fatal("T has no route")
	}
	if len(tBest.Path) != 1 || tBest.Path[0] != 20 {
		t.Fatalf("T path = %v, want [20]", tBest.Path)
	}
	for _, r := range net.Speaker(0).AdjIn(testPrefix) {
		if r == nil {
			continue
		}
		if r.Path[0] == 30 {
			t.Fatalf("T received peer-learned route from D: %v (valley)", r.Path)
		}
	}
}

func TestPrependingMakesRouteLessPreferred(t *testing.T) {
	// O originates to C without prepending and to D with prepending 3.
	// T hears [C O] and [D O O O O] and must pick the C path.
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	pol := &OriginPolicy{PerNeighbor: map[topology.NodeID]NeighborPolicy{
		1: {Export: true, Prepend: 0},
		2: {Export: true, Prepend: 3},
	}}
	net.Originate(3, testPrefix, pol)
	sim.Run()

	tBest := net.Speaker(0).Best(testPrefix)
	if tBest == nil {
		t.Fatal("T has no route")
	}
	if tBest.Path[0] != 20 {
		t.Fatalf("T chose %v, want path via C (20)", tBest.Path)
	}
	// Verify the prepended path exists in T's adj-RIB-in via D.
	var viaD *Route
	for _, r := range net.Speaker(0).AdjIn(testPrefix) {
		if r != nil && r.Path[0] == 30 {
			viaD = r
		}
	}
	if viaD == nil {
		t.Fatal("T lacks the backup path via D")
	}
	if len(viaD.Path) != 5 { // D + O×4
		t.Fatalf("backup path = %v, want len 5", viaD.Path)
	}
}

func TestScopedExportExcludesNeighbor(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	pol := &OriginPolicy{PerNeighbor: map[topology.NodeID]NeighborPolicy{
		2: {Export: false},
	}}
	net.Originate(3, testPrefix, pol) // O announces to C only
	sim.Run()

	for _, r := range net.Speaker(2).AdjIn(testPrefix) {
		if r != nil && len(r.Path) == 1 {
			t.Fatalf("D received direct route %v despite Export=false", r.Path)
		}
	}
	// D should still reach the prefix via its peer C.
	if net.Speaker(2).Best(testPrefix) == nil {
		t.Fatal("D unreachable; expected route via peer C")
	}
}

func TestLoopPrevention(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Originate(3, testPrefix, nil)
	sim.Run()
	// No node's best path may contain a repeated ASN.
	for id := topology.NodeID(0); id < 4; id++ {
		best := net.Speaker(id).Best(testPrefix)
		if best == nil {
			continue
		}
		seen := map[topology.ASN]bool{}
		for _, asn := range best.Path {
			if asn != best.Path[0] && seen[asn] {
				t.Fatalf("node %d best path %v revisits %d", id, best.Path, asn)
			}
			seen[asn] = true
		}
		if best.ContainsASN(net.Speaker(id).Node().ASN) {
			t.Fatalf("node %d accepted a path with its own ASN: %v", id, best.Path)
		}
	}
}

func TestAnycastFailoverShiftsOrigin(t *testing.T) {
	// Two origins for the same prefix; withdrawing one must leave all
	// nodes routed to the other.
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Originate(3, testPrefix, nil) // O
	net.Originate(0, testPrefix, nil) // T also originates (anycast)
	sim.Run()

	cBest := net.Speaker(1).Best(testPrefix)
	if cBest == nil || cBest.OriginNode != 3 {
		t.Fatalf("C should prefer customer origin O, got %+v", cBest)
	}
	// Track when each node's best route settles on the surviving origin.
	settled := map[topology.NodeID]float64{}
	net.OnBestChange(func(node topology.NodeID, p netip.Prefix, r *Route, _ int, _ netsim.Seconds) {
		if r != nil && r.OriginNode == 0 {
			settled[node] = sim.Now()
		}
	})
	start := sim.Now()
	net.Withdraw(3, testPrefix)
	sim.Run()

	for id := topology.NodeID(1); id < 4; id++ {
		best := net.Speaker(id).Best(testPrefix)
		if best == nil {
			t.Fatalf("node %d unreachable after anycast failover", id)
		}
		if best.OriginNode != 0 {
			t.Fatalf("node %d routed to origin %d, want 0", id, best.OriginNode)
		}
	}
	// Transit nodes C and D must regain a valid route quickly: withdrawals
	// are unpaced and the alternative origin already exists in their RIBs.
	for _, id := range []topology.NodeID{1, 2} {
		at, ok := settled[id]
		if !ok {
			t.Fatalf("node %d never settled on surviving origin", id)
		}
		if at-start > 5 {
			t.Fatalf("node %d took %.1fs to reselect; anycast failover should be fast", id, at-start)
		}
	}
}

func TestWithdrawalConvergenceSlowerThanAnnouncement(t *testing.T) {
	// Multihomed redundancy creates stale alternatives, so full withdrawal
	// requires path exploration paced by MRAI.
	b := topology.NewBuilder()
	t1 := b.AddNode(10, "T1", topology.ClassTier1, topology.Point{})
	t2 := b.AddNode(11, "T2", topology.ClassTier1, topology.Point{X: 1})
	a := b.AddNode(20, "A", topology.ClassTransit, topology.Point{Y: 1})
	c := b.AddNode(21, "C", topology.ClassTransit, topology.Point{Y: 2})
	o := b.AddNode(30, "O", topology.ClassStub, topology.Point{Y: 3})
	b.Link(t1, t2, topology.RelPeer, 0.001)
	b.Link(a, t1, topology.RelProvider, 0.001)
	b.Link(a, t2, topology.RelProvider, 0.001)
	b.Link(c, t1, topology.RelProvider, 0.001)
	b.Link(c, t2, topology.RelProvider, 0.001)
	b.Link(o, a, topology.RelProvider, 0.001)
	b.Link(o, c, topology.RelProvider, 0.001)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sim := netsim.New(3)
	net := New(sim, topo, quickCfg())
	start := sim.Now()
	net.Originate(4, testPrefix, nil)
	sim.Run()
	announceTime := sim.Now() - start

	start = sim.Now()
	net.Withdraw(4, testPrefix)
	sim.Run()
	withdrawTime := sim.Now() - start

	for id := topology.NodeID(0); id < 5; id++ {
		if net.Speaker(id).Best(testPrefix) != nil {
			t.Fatalf("node %d retains route after full withdrawal", id)
		}
	}
	if withdrawTime < 3*announceTime {
		t.Fatalf("withdrawal convergence (%.2fs) not slower than announcement (%.2fs); path exploration missing",
			withdrawTime, announceTime)
	}
}

func TestFeedReceivesUpdates(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	var events []Update
	var times []float64
	if err := net.AttachFeed(2, func(now netsim.Seconds, peer topology.NodeID, u Update) {
		events = append(events, u)
		times = append(times, now)
	}); err != nil {
		t.Fatal(err)
	}
	net.Originate(0, testPrefix, nil)
	sim.Run()
	net.Withdraw(0, testPrefix)
	sim.Run()

	if len(events) != 2 {
		t.Fatalf("feed got %d events, want announce+withdraw", len(events))
	}
	if events[0].Type != Announce || events[1].Type != Withdraw {
		t.Fatalf("feed order wrong: %v %v", events[0].Type, events[1].Type)
	}
	if times[1] <= times[0] {
		t.Fatal("feed timestamps not increasing")
	}
}

func TestBestChangeCallback(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	changes := map[topology.NodeID]int{}
	net.OnBestChange(func(node topology.NodeID, p netip.Prefix, r *Route, _ int, _ netsim.Seconds) {
		changes[node]++
	})
	net.Originate(0, testPrefix, nil)
	sim.Run()
	if changes[0] == 0 || changes[1] == 0 || changes[2] == 0 {
		t.Fatalf("best-change callbacks missing: %v", changes)
	}
}

func TestMEDComparedSameNeighborAS(t *testing.T) {
	// O connects twice to provider A? Not supported (one session per pair),
	// so exercise MED via the decision function directly.
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	s := net.Speaker(0)
	a := &Route{Prefix: testPrefix, Path: []topology.ASN{20, 40}, MED: 10}
	b := &Route{Prefix: testPrefix, Path: []topology.ASN{20, 40}, MED: 5}
	if s.better(a, 0, b, 0) {
		t.Fatal("higher MED preferred")
	}
	if !s.better(b, 0, a, 0) {
		t.Fatal("lower MED not preferred")
	}
}

func TestDeterministicConvergence(t *testing.T) {
	run := func() (uint64, string) {
		topo, err := topology.Generate(topology.GenConfig{Seed: 5, NumStub: 60, NumEyeball: 40, NumUniversity: 8})
		if err != nil {
			t.Fatal(err)
		}
		sim := netsim.New(9)
		net := New(sim, topo, quickCfg())
		site := topo.NodeByName("cdn-ams")
		net.Originate(site.ID, testPrefix, nil)
		sim.Run()
		// Fingerprint: concatenate every node's best path.
		var fp string
		for _, n := range topo.Nodes {
			if best := net.Speaker(n.ID).Best(testPrefix); best != nil {
				for _, a := range best.Path {
					fp += string(rune(a % 1000))
				}
				fp += "|"
			} else {
				fp += "-|"
			}
		}
		return net.MessageCount(), fp
	}
	m1, f1 := run()
	m2, f2 := run()
	if m1 != m2 || f1 != f2 {
		t.Fatalf("non-deterministic convergence: msgs %d vs %d, fingerprints equal=%v", m1, m2, f1 == f2)
	}
}

// TestSteadyStateForwardingConsistency verifies that after convergence, for
// every node with a best route, following next-hops reaches the originator
// without loops — the property that makes catchment measurement meaningful.
func TestSteadyStateForwardingConsistency(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 11, NumStub: 100, NumEyeball: 60, NumUniversity: 12})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(2)
	net := New(sim, topo, quickCfg())
	site := topo.NodeByName("cdn-sea2")
	net.Originate(site.ID, testPrefix, nil)
	sim.Run()

	reached := 0
	for _, n := range topo.Nodes {
		cur := n.ID
		visited := map[topology.NodeID]bool{}
		for {
			if visited[cur] {
				t.Fatalf("forwarding loop starting at %s", n.Name)
			}
			visited[cur] = true
			sp := net.Speaker(cur)
			if sp.Best(testPrefix) == nil {
				break
			}
			sess := sp.BestSession(testPrefix)
			if sess == -1 {
				if cur != site.ID {
					t.Fatalf("unexpected originator %d", cur)
				}
				reached++
				break
			}
			cur = sp.Node().Adj[sess].To
		}
	}
	if reached < topo.Len()*9/10 {
		t.Fatalf("only %d/%d nodes reach the origin at steady state", reached, topo.Len())
	}
}

// TestNoStaleRoutesAfterFullWithdrawal is a regression test for a FIFO
// violation: without per-session in-order delivery, a withdrawal could
// overtake an in-flight announcement and strand stale routes forever.
func TestNoStaleRoutesAfterFullWithdrawal(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		topo, err := topology.Generate(topology.GenConfig{Seed: 3, NumStub: 60, NumEyeball: 40, NumUniversity: 8})
		if err != nil {
			t.Fatal(err)
		}
		sim := netsim.New(seed)
		// Wide processing jitter maximizes reordering opportunities.
		net := New(sim, topo, Config{MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.05, ProcMax: 0.5})
		site := topo.NodeByName("cdn-atl")
		net.Originate(site.ID, testPrefix, nil)
		sim.Run()
		net.Withdraw(site.ID, testPrefix)
		sim.Run()
		for _, n := range topo.Nodes {
			if best := net.Speaker(n.ID).Best(testPrefix); best != nil {
				t.Fatalf("seed %d: node %s retains stale route %v after full withdrawal",
					seed, n.Name, best.Path)
			}
		}
	}
}

func TestOriginateUnknownNode(t *testing.T) {
	topo := lineTopo(t)
	net := New(netsim.New(1), topo, quickCfg())
	if err := net.Originate(99, testPrefix, nil); err == nil {
		t.Fatal("originate on unknown node did not error")
	}
	if err := net.AttachFeed(99, nil); err == nil {
		t.Fatal("attach feed on unknown node did not error")
	}
}

// TestOriginateRefusesNegativePrepend holds Originate and Solve to the
// policy check: a negative prepend, at the top level or toward a neighbor,
// is refused with an error naming the node and, for a per-neighbor entry,
// the neighbor (the lowest of several), before the network hands out a
// prefix id or queues an update. Such a prepend once published an empty AS
// path at -1 and panicked inside the export at -2.
func TestOriginateRefusesNegativePrepend(t *testing.T) {
	topo := lineTopo(t) // O (0) -- A (1) -- B (2); A originates
	perNeighbor := func(m map[topology.NodeID]NeighborPolicy) *OriginPolicy { return &OriginPolicy{PerNeighbor: m} }
	for _, c := range []struct {
		name string
		pol  *OriginPolicy
		want string
	}{
		{"top-level -1", &OriginPolicy{Prepend: -1}, "node 1: negative prepend -1"},
		{"top-level -2", &OriginPolicy{Prepend: -2, PerNeighbor: map[topology.NodeID]NeighborPolicy{2: {Export: true}}}, "node 1: negative prepend -2"},
		{"per-neighbor -1", perNeighbor(map[topology.NodeID]NeighborPolicy{0: {Export: true, Prepend: 1}, 2: {Export: true, Prepend: -1}}),
			"node 1: negative prepend -1 toward neighbor 2"},
		{"per-neighbor -2", perNeighbor(map[topology.NodeID]NeighborPolicy{0: {Export: true, Prepend: -2}, 2: {Export: true, Prepend: -1}}),
			"node 1: negative prepend -2 toward neighbor 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := netsim.New(1)
			net := New(sim, topo, quickCfg())
			if err := net.Originate(1, testPrefix, c.pol); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Originate: got %v, want an error containing %q", err, c.want)
			}
			if _, ok := net.prefixID(testPrefix); ok || sim.Pending() != 0 {
				t.Fatal("a refused origination wrote state")
			}
			_, err := Solve(topo, quickCfg(), []Origination{{Node: 1, Prefix: testPrefix, Policy: c.pol}})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Solve: got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestWithdrawNonOriginatedIsNoop(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Withdraw(1, testPrefix) // never originated
	sim.Run()
	if net.MessageCount() != 0 {
		t.Fatalf("no-op withdraw generated %d messages", net.MessageCount())
	}
}

// TestKnownPrefixesSorted pins the rib's order — the digest order — under
// inserts that arrive out of order and mix families: IPv4 before IPv6, each
// ascending by (address, length), at the origin and at a speaker that only
// learns the prefixes.
func TestKnownPrefixesSorted(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	want := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.128.0.0/9"),
		testPrefix,
		netip.MustParsePrefix("::/0"),
		netip.MustParsePrefix("2804:269c:fe00::/40"),
		netip.MustParsePrefix("2804:269c:fe00::/48"),
	}
	for _, i := range []int{5, 3, 0, 6, 2, 4, 1} {
		net.Originate(0, want[i], nil)
	}
	sim.Run()
	for id := topology.NodeID(0); id < 3; id++ {
		sp := net.Speaker(id)
		if got := sp.KnownPrefixes(); !slices.Equal(got, want) {
			t.Fatalf("node %d KnownPrefixes = %v, want %v", id, got, want)
		}
		for _, p := range want {
			if sp.Best(p) == nil {
				t.Fatalf("node %d: lookup of %v failed in a sorted rib", id, p)
			}
		}
	}
	got := net.Speaker(0).KnownPrefixes()
	got[0] = testPrefix
	if net.Speaker(0).KnownPrefixes()[0] != want[0] {
		t.Fatal("KnownPrefixes handed out the rib's own storage")
	}
}

// TestWriteThroughUnownedStatePanics pins the guard behind restore by
// reference: recompute and export refuse a state the speaker does not own —
// a snapshot's frozen one, or another speaker's — instead of corrupting
// every world that shares it.
func TestWriteThroughUnownedStatePanics(t *testing.T) {
	_, net := convergeLine(t, 3, nil)
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(netsim.New(3), lineTopo(t), quickCfg())
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	sp := restored.Speaker(1)
	frozen := sp.lookup(testPrefix)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted a state the speaker does not own", name)
			}
		}()
		fn()
	}
	mustPanic("recompute(frozen)", func() { sp.recompute(frozen) })
	mustPanic("export(frozen)", func() { sp.export(frozen, 0) })
	other := restored.Speaker(2).state(frozen.id)
	mustPanic("export(another speaker's)", func() { sp.export(other, 0) })
	if sp.lookup(testPrefix) != frozen {
		t.Fatal("a refused write replaced the frozen state")
	}
	// The write accessor is the way in: it clones, and the snapshot's copy
	// keeps its contents.
	owned := sp.state(frozen.id)
	if owned == frozen || owned.owner != sp || frozen.owner != nil {
		t.Fatalf("state() returned %p (owner %p) for frozen %p", owned, owned.owner, frozen)
	}
	sp.recompute(owned)
}

func TestCommunitiesPropagateTransitively(t *testing.T) {
	topo := lineTopo(t) // O -- A -- B
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Originate(0, testPrefix, &OriginPolicy{Communities: []uint32{47065<<16 | 7}})
	sim.Run()
	best := net.Speaker(2).Best(testPrefix)
	if best == nil || !best.HasCommunity(47065<<16|7) {
		t.Fatalf("community lost in transit: %+v", best)
	}
}

func TestNoExportConfinesRoute(t *testing.T) {
	topo := lineTopo(t) // O -- A -- B
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	net.Originate(0, testPrefix, &OriginPolicy{Communities: []uint32{CommunityNoExport}})
	sim.Run()
	// A (O's provider) receives the route; B must never hear it.
	if net.Speaker(1).Best(testPrefix) == nil {
		t.Fatal("direct neighbor did not receive NO_EXPORT route")
	}
	if best := net.Speaker(2).Best(testPrefix); best != nil {
		t.Fatalf("NO_EXPORT route leaked to B: %v", best.Path)
	}
}

// fan builds S (ASN 1) with eight sessions whose neighbor ASes repeat and
// interleave in session order: providers P1, Q, P2 (ASNs 10, 20, 10), then
// customers and peers C1 (40), R1 (30), C3 (50), R2 (30), C2 (40). Two
// sessions to one AS differ only in MED and session index, and a session to
// another AS sits between them.
func fan(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	s := b.AddNode(1, "S", topology.ClassTransit, topology.Point{})
	for i, n := range []struct {
		asn  topology.ASN
		name string
		rel  topology.Rel // the neighbor's role toward S
	}{
		{10, "P1", topology.RelProvider}, {20, "Q", topology.RelProvider}, {10, "P2", topology.RelProvider},
		{40, "C1", topology.RelCustomer}, {30, "R1", topology.RelPeer}, {50, "C3", topology.RelCustomer},
		{30, "R2", topology.RelPeer}, {40, "C2", topology.RelCustomer},
	} {
		id := b.AddNode(n.asn, n.name, topology.ClassStub, topology.Point{X: float64(i + 1)})
		b.Link(s, id, n.rel, 0.001)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestDecisionProcessStrictOrder verifies that better() is a strict total
// order over candidates on distinct sessions: irreflexive, total (exactly
// one of any two distinct candidates wins) and transitive — what lets
// recompute's scan and reselect's single comparison pick the same route.
// S's sessions cover every LOCAL_PREF, plus the local origination (-1), and
// pairs of sessions to one neighbor AS with a session to another AS between
// them, where MED compares the pair and must not close a cycle.
func TestDecisionProcessStrictOrder(t *testing.T) {
	net := New(netsim.New(1), fan(t), quickCfg())
	s := net.Speaker(0)
	r := rand.New(rand.NewSource(55))

	type cand struct {
		r    *Route
		sess int
	}
	// Short paths and few MEDs, so ties reach every tie-break.
	randRoute := func(sess int) cand {
		path := make([]topology.ASN, 1+r.Intn(2))
		for i := range path {
			path[i] = topology.ASN(100 + r.Intn(3))
		}
		return cand{&Route{Prefix: testPrefix, Path: path, MED: r.Intn(3)}, sess}
	}
	better := func(a, b cand) bool { return s.better(a.r, a.sess, b.r, b.sess) }
	nSess := len(s.node.Adj)
	for trial := 0; trial < 20000; trial++ {
		// Three distinct sessions, -1 included.
		perm := r.Perm(nSess + 1)
		a, b, c := randRoute(perm[0]-1), randRoute(perm[1]-1), randRoute(perm[2]-1)
		if better(a, a) {
			t.Fatalf("better is not irreflexive: %+v", a)
		}
		if better(a, b) == better(b, a) {
			t.Fatalf("better is not total and asymmetric:\n a=%+v\n b=%+v", a, b)
		}
		if better(a, b) && better(b, c) && !better(a, c) {
			t.Fatalf("better is not transitive:\n a=%+v %v\n b=%+v %v\n c=%+v %v",
				a.sess, *a.r, b.sess, *b.r, c.sess, *c.r)
		}
	}
}

// TestReselectMatchesFullScan drives S with random UPDATEs — announcements,
// replacements, duplicates, looped paths and withdrawals on random
// sessions — and after each one requires the best route a full scan of the
// adj-RIB-in picks, and that a second export pass sends nothing: the two
// facts receive's shortcuts (reselect, and no export pass after an
// unchanged best) rest on. Virtual time advances now and then so MRAI
// timers fire in between.
func TestReselectMatchesFullScan(t *testing.T) {
	sim := netsim.New(3)
	net := New(sim, fan(t), quickCfg())
	s := net.Speaker(0)
	r := rand.New(rand.NewSource(77))
	nSess := len(s.node.Adj)
	fullScan := func(st *prefixState) (*Route, int) {
		best, bestSess := (*Route)(nil), -1
		for sess := range st.adj {
			if rt := s.in(st, sess); rt != nil && (best == nil || s.better(rt, sess, best, bestSess)) {
				best, bestSess = rt, sess
			}
		}
		return best, bestSess
	}
	id := net.prefixIDOrNew(testPrefix)
	for step := 0; step < 5000; step++ {
		sess := r.Intn(nSess)
		u := update{typ: Withdraw, id: id}
		if r.Intn(4) != 0 {
			path := make([]topology.ASN, 1+r.Intn(3))
			for i := range path {
				path[i] = topology.ASN(100 + r.Intn(3))
			}
			if r.Intn(10) == 0 {
				path[len(path)-1] = s.node.ASN // a loop: withdraws the session's route
			}
			u = update{typ: Announce, id: id, route: &Route{Prefix: testPrefix, Path: path, MED: r.Intn(3)}}
		}
		s.receive(sess, u)
		st := s.at(id)
		want, wantSess := fullScan(st)
		if !routesEquivalent(st.best, int(st.bestSess), want, wantSess) {
			t.Fatalf("step %d (%v on session %d): best is session %d %v, a full scan picks session %d %v",
				step, u.typ, sess, st.bestSess, st.best, wantSess, want)
		}
		pending := sim.Pending()
		s.exportAll(st)
		if sim.Pending() != pending {
			t.Fatalf("step %d: a second export pass scheduled %d events", step, sim.Pending()-pending)
		}
		if r.Intn(20) == 0 {
			sim.RunFor(r.Float64() * 60)
		}
	}
}
