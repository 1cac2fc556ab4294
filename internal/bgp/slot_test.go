package bgp

import (
	"fmt"
	"strings"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// peeredOrigins builds two peers, P1 (AS 10) and P2 (AS 20), each the
// provider of a stub that originates the same anycast prefix: C1 (AS 100)
// below P1 and C2 (AS 200) below P2. Each peer exports its customer route to
// the other, so the P1-P2 session carries the prefix both ways.
func peeredOrigins(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	p1 := b.AddNode(10, "P1", topology.ClassTransit, topology.Point{})
	p2 := b.AddNode(20, "P2", topology.ClassTransit, topology.Point{X: 1})
	c1 := b.AddNode(100, "C1", topology.ClassStub, topology.Point{Y: 1})
	c2 := b.AddNode(200, "C2", topology.ClassStub, topology.Point{X: 1, Y: 1})
	b.Link(p1, p2, topology.RelPeer, 0.001)
	b.Link(c1, p1, topology.RelProvider, 0.001)
	b.Link(c2, p2, topology.RelProvider, 0.001)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestSessionHoldsBothRoutes follows a session that carries its prefix both
// ways, the case whose adj-RIB-in route lives in the state's sidecar,
// through every reader and writer of the slot: AdjIn and the out accessor,
// the route digest, a session flush, Snapshot, a restore's first write
// (own), and a restore's first write to the sidecar own shares. A write in
// one world, live or restored, must leave the snapshot and every sibling
// restore reading the session as it was captured.
func TestSessionHoldsBothRoutes(t *testing.T) {
	const p1, p2, c1, c2 = 0, 1, 2, 3
	topo := peeredOrigins(t)
	sim := netsim.New(1)
	live := New(sim, topo, quickCfg())
	for _, c := range []topology.NodeID{c1, c2} {
		if err := live.Originate(c, testPrefix, nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	sess, err := live.sessionBetween(p1, p2)
	if err != nil {
		t.Fatal(err)
	}

	// carries checks that P1's session to P2 holds both routes, each the
	// pointer the other side holds in the mirrored direction, and that the
	// digest renders both.
	carries := func(net *Network, stage string) {
		t.Helper()
		a, b := net.Speaker(p1), net.Speaker(p2)
		rev := a.reverse(sess)
		sa, sb := a.lookup(testPrefix), b.lookup(testPrefix)
		in, out := a.AdjIn(testPrefix)[sess], a.out(sa, sess)
		if in == nil || out == nil {
			t.Fatalf("%s: P1's session to P2 holds in %v and out %v, want both", stage, in, out)
		}
		if fmt.Sprint(in.Path, out.Path) != "[20 200] [10 100]" {
			t.Fatalf("%s: P1 holds in %v and out %v, want [20 200] and [10 100]", stage, in.Path, out.Path)
		}
		if in != b.out(sb, rev) || out != b.AdjIn(testPrefix)[rev] {
			t.Fatalf("%s: P1 and P2 do not hold each other's routes", stage)
		}
		if sa.sideIn(sess) != in {
			t.Fatalf("%s: P1's in route is not in the sidecar", stage)
		}
		got := net.RouteStateDigest()
		if want := RefRouteStateDigest(net); got != want {
			t.Fatalf("%s: digest differs from the reference renderer:\n got %q\nwant %q", stage, got, want)
		}
		for _, line := range []string{
			fmt.Sprintf("  in[%d] lp=%d path=[20 200] med=0 comm=[]\n", sess, PrefPeer),
			fmt.Sprintf("  out[%d] path=[10 100] med=0 comm=[]\n", sess),
		} {
			if !strings.Contains(got, line) {
				t.Fatalf("%s: digest lacks %q:\n%s", stage, line, got)
			}
		}
	}
	// flushed checks that the session holds nothing at P1, in the slot or
	// in the sidecar.
	flushed := func(net *Network, stage string) {
		t.Helper()
		a := net.Speaker(p1)
		st := a.lookup(testPrefix)
		if st.adj[sess].route != nil || a.in(st, sess) != nil || st.sideIn(sess) != nil {
			t.Fatalf("%s: a flushed session still holds a route", stage)
		}
		if st.side != nil {
			t.Fatalf("%s: P1's sidecar outlived its last entry", stage)
		}
		if a.Best(testPrefix) == nil {
			t.Fatalf("%s: P1 lost its customer route with the peer session", stage)
		}
	}
	carries(live, "converged")
	want := live.RouteStateDigest()

	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func() (*netsim.Sim, *Network) {
		sim := netsim.New(1)
		net := New(sim, topo, quickCfg())
		if err := net.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return sim, net
	}
	// The live network flushes the session in place; the snapshot holds a
	// copy of its sidecar.
	if err := live.SetLinkDown(p1, p2); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	flushed(live, "live, link down")

	simB, b := restore()
	_, sibling := restore()
	carries(b, "restored")
	frozen := b.Speaker(p1).lookup(testPrefix)
	// The fault writes P1's state through own: the restore's first write.
	if err := b.SetLinkDown(p1, p2); err != nil {
		t.Fatal(err)
	}
	simB.Run()
	if b.Speaker(p1).lookup(testPrefix) == frozen {
		t.Fatal("the flush wrote the snapshot's frozen state")
	}
	flushed(b, "restored, link down")
	carries(sibling, "sibling after the flush")
	_, later := restore()
	carries(later, "restored after the flush")
	if sibling.RouteStateDigest() != want || later.RouteStateDigest() != want {
		t.Fatal("a restore does not read the state the snapshot captured")
	}

	// C2 prepends once in another restore, so P2 sends P1 a new route: the
	// write replaces the entry in the sidecar own shared with the snapshot,
	// which must clone it first.
	simC, c := restore()
	shared := c.Speaker(p1).lookup(testPrefix).side
	if err := c.Originate(c2, testPrefix, &OriginPolicy{Prepend: 1}); err != nil {
		t.Fatal(err)
	}
	simC.Run()
	st := c.Speaker(p1).lookup(testPrefix)
	if in := c.Speaker(p1).AdjIn(testPrefix)[sess]; in == nil || fmt.Sprint(in.Path) != "[20 200 200]" {
		t.Fatalf("re-originated: P1 holds in %v from P2, want [20 200 200]", in)
	}
	if st.side == shared || st.side.owner != c.Speaker(p1) {
		t.Fatal("re-originated: P1 wrote the snapshot's sidecar instead of a clone")
	}
	if got, want := c.RouteStateDigest(), RefRouteStateDigest(c); got != want {
		t.Fatalf("re-originated: digest differs from the reference renderer:\n got %q\nwant %q", got, want)
	}
	carries(sibling, "sibling after the re-origination")
	if sibling.RouteStateDigest() != want {
		t.Fatal("a write to a restored sidecar reached a sibling restore")
	}

	if err := b.SetLinkUp(p1, p2); err != nil {
		t.Fatal(err)
	}
	simB.Run()
	carries(b, "restored, link up")
	if b.RouteStateDigest() != want {
		t.Fatal("the session came back to another state")
	}
}
