package collector

import (
	"net/netip"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

var prefix = netip.MustParsePrefix("184.164.244.0/24")

func testNet(t *testing.T) (*netsim.Sim, *bgp.Network, *topology.Topology) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 3, NumStub: 60, NumEyeball: 40, NumUniversity: 8})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(4)
	net := bgp.New(sim, topo, bgp.Config{MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.05, ProcMax: 0.5})
	return sim, net, topo
}

func TestAttachAndArchive(t *testing.T) {
	sim, net, topo := testNet(t)
	c := New("rrc00")
	peers := SelectPeers(topo, 10, 1)
	if len(peers) != 10 {
		t.Fatalf("selected %d peers", len(peers))
	}
	if err := c.Attach(net, peers...); err != nil {
		t.Fatal(err)
	}
	site := topo.NodeByName("cdn-ams")
	net.Originate(site.ID, prefix, nil)
	sim.Run()

	recs := c.RecordsFor(prefix)
	if len(recs) == 0 {
		t.Fatal("no records archived")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Fatal("archive not time ordered")
		}
	}
	seen := map[topology.NodeID]bool{}
	for _, r := range recs {
		if r.Type != bgp.Announce {
			t.Fatalf("unexpected %v before any withdrawal", r.Type)
		}
		if len(r.Path) == 0 {
			t.Fatal("announce without path")
		}
		seen[r.Peer] = true
	}
	if len(seen) < 8 {
		t.Fatalf("only %d/10 peers saw the announcement", len(seen))
	}
}

func TestSnapshotPathsSurviveWire(t *testing.T) {
	// A 4x origin prepend reaches the collector's peers as 5x AS 47065 on
	// every archived path.
	sim, net, topo := testNet(t)
	c := New("rrc13")
	if err := c.Attach(net, SelectPeers(topo, 6, 14)...); err != nil {
		t.Fatal(err)
	}
	net.Originate(topo.NodeByName("cdn-msn").ID, prefix, &bgp.OriginPolicy{Prepend: 4})
	sim.Run()
	recs := c.RecordsFor(prefix)
	if len(recs) == 0 {
		t.Fatal("no records archived")
	}
	for _, r := range recs {
		origins := 0
		for _, a := range r.Path {
			if a == 47065 {
				origins++
			}
		}
		if origins != 5 {
			t.Fatalf("peer %d archived path %v with %d× AS 47065, want 5×", r.Peer, r.Path, origins)
		}
	}
}

func TestEstimateEventTime(t *testing.T) {
	sim, net, topo := testNet(t)
	c := New("rrc02")
	c.Attach(net, SelectPeers(topo, 15, 3)...)
	site := topo.NodeByName("cdn-bos")

	t0 := sim.Now()
	net.Originate(site.ID, prefix, nil)
	sim.Run()
	est, ok := c.EstimateEventTime(prefix, bgp.Announce, 5, 20)
	if !ok {
		t.Fatal("no announcement burst found")
	}
	if est < t0 || est > t0+30 {
		t.Fatalf("estimated announce time %v far from actual %v", est, t0)
	}

	t1 := sim.Now()
	net.Withdraw(site.ID, prefix)
	sim.Run()
	est, ok = c.EstimateEventTime(prefix, bgp.Withdraw, 5, 20)
	if !ok {
		t.Fatal("no withdrawal burst found")
	}
	// Paper validation: estimate within ~10s of the actual withdrawal.
	if est < t1 || est > t1+30 {
		t.Fatalf("estimated withdrawal time %v far from actual %v", est, t1)
	}
}

func TestEstimateEventTimeNoBurst(t *testing.T) {
	c := New("x")
	if _, ok := c.EstimateEventTime(prefix, bgp.Withdraw, 5, 20); ok {
		t.Fatal("burst found in empty archive")
	}
}

func TestConvergenceAndPropagationTimes(t *testing.T) {
	sim, net, topo := testNet(t)
	c := New("rrc03")
	peers := SelectPeers(topo, 15, 4)
	c.Attach(net, peers...)
	site := topo.NodeByName("cdn-slc")

	t0 := sim.Now()
	net.Originate(site.ID, prefix, nil)
	sim.Run()

	prop := c.PropagationTimes(prefix, t0)
	if len(prop) < 10 {
		t.Fatalf("propagation observed at only %d peers", len(prop))
	}
	for p, d := range prop {
		if d < 0 {
			t.Fatalf("negative propagation delay at peer %d", p)
		}
		if d > 60 {
			t.Fatalf("announcement took %vs to reach peer %d", d, p)
		}
	}

	t1 := sim.Now()
	net.Withdraw(site.ID, prefix)
	sim.Run()
	conv := c.ConvergenceTimes(prefix, t1, 1000)
	if len(conv) == 0 {
		t.Fatal("no convergence samples")
	}
	// Withdrawal convergence (with path exploration) must be slower on
	// average than initial propagation.
	var avgProp, avgConv float64
	for _, d := range prop {
		avgProp += d
	}
	avgProp /= float64(len(prop))
	for _, d := range conv {
		avgConv += d
	}
	avgConv /= float64(len(conv))
	if avgConv <= avgProp {
		t.Fatalf("withdrawal convergence (%.1fs) not slower than propagation (%.1fs)", avgConv, avgProp)
	}
}

func TestSelectPeersDeterministic(t *testing.T) {
	_, _, topo := testNet(t)
	a := SelectPeers(topo, 20, 9)
	b := SelectPeers(topo, 20, 9)
	if len(a) != 20 {
		t.Fatalf("got %d peers", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SelectPeers not deterministic")
		}
	}
	// Mostly core networks.
	core := 0
	for _, id := range a {
		switch topo.Node(id).Class {
		case topology.ClassTier1, topology.ClassTransit, topology.ClassREN:
			core++
		}
	}
	if core < 10 {
		t.Fatalf("only %d/20 peers are core networks", core)
	}
}

func TestAttachUnknownPeer(t *testing.T) {
	_, net, _ := testNet(t)
	c := New("bad")
	if err := c.Attach(net, topology.NodeID(99999)); err == nil {
		t.Fatal("attach to unknown node succeeded")
	}
}
