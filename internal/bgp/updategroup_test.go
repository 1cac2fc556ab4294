package bgp

import (
	"fmt"
	"net/netip"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// groupTopo is a generated topology with two CDN prefixes converged on it:
// one plain anycast origination from two sites, and one whose first site
// prepends toward a single neighbor in the middle of its adjacency list.
func groupTopo(t *testing.T, shards int) (*Network, *Speaker, int) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 11, NumStub: 100, NumEyeball: 60, NumUniversity: 12})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(2)
	net, err := NewSharded(sim, topo, quickCfg(), shards, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sites []*topology.Node
	for _, n := range topo.Nodes {
		if n.Class == topology.ClassCDN && len(n.Adj) >= 3 {
			sites = append(sites, n)
		}
	}
	if len(sites) < 2 {
		t.Fatalf("only %d CDN sites with three or more neighbors", len(sites))
	}
	prepended := len(sites[0].Adj) / 2
	pol := &OriginPolicy{PerNeighbor: map[topology.NodeID]NeighborPolicy{
		sites[0].Adj[prepended].To: {Export: true, Prepend: 2},
	}}
	other := netip.MustParsePrefix("184.164.245.0/24")
	for _, err := range []error{
		net.Originate(sites[0].ID, testPrefix, pol),
		net.Originate(sites[0].ID, other, nil),
		net.Originate(sites[1].ID, other, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	net.ConvergeSynchronously(3600)
	if n := sim.Pending(); n != 0 {
		t.Fatalf("%d events pending after converge", n)
	}
	return net, net.Speaker(sites[0].ID), prepended
}

// TestExportSharesRouteAcrossSessions pins update groups: after a converge,
// the adj-RIB-out slots of one prefix state that carry the same wire
// attributes (and OriginNode) hold one Route pointer, not a copy per
// session; a per-neighbor prepend still gets its own Route.
func TestExportSharesRouteAcrossSessions(t *testing.T) {
	net, origin, prepended := groupTopo(t, 1)
	shared := 0
	for _, sp := range net.speakers {
		for _, st := range sp.rib {
			for i, sa := range st.adj {
				for _, sb := range st.adj[i+1:] {
					a, b := sa.out, sb.out
					if a == nil || b == nil || !sameWire(a, b) || a.OriginNode != b.OriginNode {
						continue
					}
					if a != b {
						t.Fatalf("%s %s: two Routes %p and %p carry path %v to different sessions", sp.node.Name, st.prefix, a, b, a.Path)
					}
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two sessions share an advertisement; the check proved nothing")
	}

	adj := origin.lookup(testPrefix).adj
	pre := adj[prepended].out
	if pre == nil || len(pre.Path) != 3 {
		t.Fatalf("prepended neighbor got %+v, want a three-ASN path", pre)
	}
	plain := 0
	for sess, a := range adj {
		r := a.out
		if sess == prepended || r == nil {
			continue
		}
		if r == pre || len(r.Path) != 1 {
			t.Fatalf("session %d shares the prepended Route or carries %v", sess, r.Path)
		}
		plain++
	}
	if plain < 2 {
		t.Fatalf("only %d unprepended sessions at the origin", plain)
	}
}

// TestSharedRouteKeepsOriginNode: the update-group cache matches OriginNode
// as well as the wire. Two anycast sites share an ASN, so their routes look
// identical on the wire; after the first site withdraws, a session reset
// re-advertises what the transit now holds, and that Route must name the
// surviving site, not the one the cache last built for.
func TestSharedRouteKeepsOriginNode(t *testing.T) {
	b := topology.NewBuilder()
	x := b.AddNode(10, "X", topology.ClassTier1, topology.Point{})
	a := b.AddNode(47065, "A", topology.ClassCDN, topology.Point{X: 1})
	bb := b.AddNode(47065, "B", topology.ClassCDN, topology.Point{X: 2})
	y := b.AddNode(30, "Y", topology.ClassStub, topology.Point{X: 3})
	b.Link(a, x, topology.RelProvider, 0.001)
	b.Link(bb, x, topology.RelProvider, 0.001)
	b.Link(y, x, topology.RelProvider, 0.001)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(4)
	net := New(sim, topo, quickCfg())
	net.Originate(a, testPrefix, nil)
	net.Originate(bb, testPrefix, nil)
	sim.Run()
	if got := net.Speaker(y).Best(testPrefix); got == nil || got.OriginNode != a {
		t.Fatalf("Y best %+v, want the route from A (lowest session at X)", got)
	}
	net.Withdraw(a, testPrefix)
	sim.Run()
	if err := net.ResetSession(x, y); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got := net.Speaker(y).Best(testPrefix); got == nil || got.OriginNode != bb {
		t.Fatalf("Y best after the reset %+v, want the route from B", got)
	}
}

// TestImportKeepsSenderRoute pins import by reference: every adj-RIB-in
// entry is the very Route the sender holds in its adj-RIB-out for the
// session, on one kernel and across shard kernels alike.
func TestImportKeepsSenderRoute(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net, _, _ := groupTopo(t, shards)
			held := 0
			for _, sp := range net.speakers {
				for _, st := range sp.rib {
					for sess, a := range st.adj {
						r := a.in
						if r == nil {
							continue
						}
						peer := net.speakers[sp.node.Adj[sess].To]
						if sent := peer.lookup(st.prefix).adj[sp.reverse[sess]].out; r != sent {
							t.Fatalf("%s in[%d] %s is %p, sender %s holds %p", sp.node.Name, sess, st.prefix, r, peer.node.Name, sent)
						}
						held++
					}
				}
			}
			if held == 0 {
				t.Fatal("no adj-RIB-in entries")
			}
		})
	}
}
