package bgp

import (
	"net/netip"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// converge originates testPrefix with the given policy and drains the queue.
func convergeLine(t *testing.T, seed int64, pol *OriginPolicy) (*netsim.Sim, *Network) {
	t.Helper()
	sim := netsim.New(seed)
	net := New(sim, lineTopo(t), quickCfg())
	if err := net.Originate(0, testPrefix, pol); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return sim, net
}

// TestNetworkSnapshotRestoreEquivalence converges a network, snapshots it,
// restores into a fresh network, and checks that post-snapshot work (a
// withdrawal) plays out identically on the original and the restored copy.
func TestNetworkSnapshotRestoreEquivalence(t *testing.T) {
	const seed = 11
	pol := &OriginPolicy{Prepend: 2, Communities: []uint32{64512}}
	sim1, net1 := convergeLine(t, seed, pol)
	simSnap, err := sim1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	netSnap, err := net1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	sim2 := netsim.New(seed)
	net2 := New(sim2, lineTopo(t), quickCfg())
	bestReplays := 0
	net2.OnBestChange(func(topology.NodeID, netip.Prefix, *Route, int, netsim.Seconds) { bestReplays++ })
	if err := sim2.Restore(simSnap); err != nil {
		t.Fatal(err)
	}
	if err := net2.Restore(netSnap); err != nil {
		t.Fatal(err)
	}

	if net2.MessageCount() != net1.MessageCount() {
		t.Fatalf("restored MessageCount = %d, want %d", net2.MessageCount(), net1.MessageCount())
	}
	if bestReplays != 0 {
		t.Fatalf("restore replayed %d best routes to OnBestChange, want none: the data plane restores its own FIBs", bestReplays)
	}
	for id := topology.NodeID(0); id < 3; id++ {
		b1, b2 := net1.Speaker(id).Best(testPrefix), net2.Speaker(id).Best(testPrefix)
		if (b1 == nil) != (b2 == nil) {
			t.Fatalf("node %d best-route presence differs after restore", id)
		}
		if b1 == nil {
			continue
		}
		if len(b1.Path) != len(b2.Path) {
			t.Fatalf("node %d path length differs: %v vs %v", id, b1.Path, b2.Path)
		}
		for i := range b1.Path {
			if b1.Path[i] != b2.Path[i] {
				t.Fatalf("node %d path differs: %v vs %v", id, b1.Path, b2.Path)
			}
		}
	}

	// Identical post-snapshot work must play out identically.
	net1.Withdraw(0, testPrefix)
	sim1.Run()
	net2.Withdraw(0, testPrefix)
	sim2.Run()
	if sim1.Now() != sim2.Now() || sim1.Steps() != sim2.Steps() {
		t.Fatalf("post-restore trajectories diverge: now %v/%v steps %d/%d",
			sim1.Now(), sim2.Now(), sim1.Steps(), sim2.Steps())
	}
	if net1.MessageCount() != net2.MessageCount() {
		t.Fatalf("post-restore MessageCount diverges: %d vs %d", net1.MessageCount(), net2.MessageCount())
	}
	for id := topology.NodeID(0); id < 3; id++ {
		if net2.Speaker(id).Best(testPrefix) != nil {
			t.Fatalf("node %d still has a route after withdrawal on restored network", id)
		}
	}
}

// TestNetworkSnapshotIsolation restores the same snapshot into two networks
// and checks the copy-on-write contract: restored worlds share the
// snapshot's immutable routes by pointer, and a world that diverges after
// restore swaps pointers in its own slices without leaking into its
// siblings or the snapshot.
func TestNetworkSnapshotIsolation(t *testing.T) {
	sim1, net1 := convergeLine(t, 5, nil)
	if _, err := sim1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap, err := net1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restore := func() *Network {
		sim := netsim.New(5)
		net := New(sim, lineTopo(t), quickCfg())
		if err := net.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := restore(), restore()

	ra := a.Speaker(2).Best(testPrefix)
	rb := b.Speaker(2).Best(testPrefix)
	if ra != rb {
		t.Fatal("restored networks should share the snapshot's immutable *Route")
	}
	wantPath := append([]topology.ASN(nil), ra.Path...)

	// Diverge world a: withdraw the origination and run it to quiescence.
	// World b and any later restore must be unaffected.
	a.Withdraw(0, testPrefix)
	a.Sim().Run()
	if a.Speaker(2).Best(testPrefix) != nil {
		t.Fatal("world a still has a route after withdrawal")
	}
	if got := b.Speaker(2).Best(testPrefix); got != rb {
		t.Fatal("divergence in world a replaced world b's best route")
	}
	for i, asn := range b.Speaker(2).Best(testPrefix).Path {
		if asn != wantPath[i] {
			t.Fatalf("divergence in world a mutated the shared path: %v", b.Speaker(2).Best(testPrefix).Path)
		}
	}
	c := restore()
	if got := c.Speaker(2).Best(testPrefix); got != rb {
		t.Fatal("divergence in world a leaked into the snapshot")
	}
}

func TestNetworkSnapshotRefusals(t *testing.T) {
	sim := netsim.New(1)
	net := New(sim, lineTopo(t), quickCfg())
	if err := net.Originate(0, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Snapshot(); err == nil {
		t.Fatal("snapshot with pending events accepted")
	}
	sim.Run()
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Restoring over a network that already has prefix state must fail.
	if err := net.Restore(snap); err == nil {
		t.Fatal("restore over a non-fresh network accepted")
	}
}

// TestRestoredPrefixTablesAreCapped originates a prefix the snapshot never
// held in one restored network, sorting it first so that its id is
// inserted at the head of the order, while a sibling restore reads the
// same tables. The snapshot's tables get spare capacity first, as a clone
// rounded up to its size class has: without the capacity limit Restore
// puts on them, the insert would shift the sibling's order in place.
func TestRestoredPrefixTablesAreCapped(t *testing.T) {
	sim, net := convergeLine(t, 5, nil)
	if err := net.Originate(2, netip.MustParsePrefix("184.164.250.0/24"), nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.prefixes = append(make([]netip.Prefix, 0, 8), snap.prefixes...)
	snap.order = append(make([]int32, 0, 8), snap.order...)
	want := net.RouteStateDigest()

	restore := func() *Network {
		r := New(netsim.New(5), lineTopo(t), quickCfg())
		if err := r.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return r
	}
	sibling, grower := restore(), restore()
	if err := grower.Originate(1, netip.MustParsePrefix("10.0.0.0/24"), nil); err != nil {
		t.Fatal(err)
	}
	grower.Sim().Run()
	if len(grower.Speaker(0).KnownPrefixes()) != 3 {
		t.Fatalf("the growing network knows %v, want three prefixes", grower.Speaker(0).KnownPrefixes())
	}
	if got := sibling.RouteStateDigest(); got != want {
		t.Fatalf("a sibling restore changed under a new origination:\n got %q\nwant %q", got, want)
	}
	if got := restore().RouteStateDigest(); got != want {
		t.Fatal("a restore after a sibling's new origination differs from the snapshotted network")
	}
}
