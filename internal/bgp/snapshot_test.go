package bgp

import (
	"net/netip"
	"testing"
	"unsafe"

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

// TestSessionTablesSharedUntilFault pins the fault-only session tables'
// copy-on-write: a network that never faulted allocates neither table, a
// restore shares its snapshot's until its own first fault, and each of the
// three fault methods clones them before it writes, so the snapshot and a
// sibling restore still read every session as it was captured.
func TestSessionTablesSharedUntilFault(t *testing.T) {
	const o, c, d = 3, 1, 2 // diamond: O's links to C and D
	topo := diamond(t)
	build := func() (*netsim.Sim, *Network) {
		sim := netsim.New(1)
		net := New(sim, topo, quickCfg())
		if err := net.Originate(o, testPrefix, nil); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		return sim, net
	}
	// session reads the a-b session at a as the tables hold it.
	type session struct {
		down  bool
		epoch uint64
	}
	at := func(net *Network, a, b topology.NodeID) int {
		sa, _, ia, _, err := net.sessionPair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return int(sa.base) + ia
	}
	read := func(down []bool, epoch []uint64, i int) session {
		var s session
		if down != nil {
			s.down = down[i]
		}
		if epoch != nil {
			s.epoch = epoch[i]
		}
		return s
	}
	shares := func(net *Network, snap *NetworkSnapshot) bool {
		return unsafe.SliceData(net.down) == unsafe.SliceData(snap.down) &&
			unsafe.SliceData(net.epoch) == unsafe.SliceData(snap.epoch)
	}

	t.Run("fresh networks", func(t *testing.T) {
		_, a := build()
		_, b := build()
		if a.down != nil || a.epoch != nil {
			t.Fatal("a network that never faulted allocated its session tables")
		}
		if err := a.SetLinkDown(o, c); err != nil {
			t.Fatal(err)
		}
		if got := read(a.down, a.epoch, at(a, o, c)); got != (session{true, 1}) {
			t.Fatalf("faulted network reads O-C as %+v, want down at epoch 1", got)
		}
		if b.down != nil || b.epoch != nil || linkDown(t, b, o, c) {
			t.Fatal("a fault on one fresh network reached another built on the same topology")
		}
	})

	// The source world: O-C went down and came back (up at epoch 1), O-D
	// is down (epoch 1).
	sim, src := build()
	for _, fault := range []func() error{
		func() error { return src.SetLinkDown(o, c) },
		func() error { return src.SetLinkUp(o, c) },
		func() error { return src.SetLinkDown(o, d) },
	} {
		if err := fault(); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if shares(src, snap) {
		t.Fatal("the snapshot shares tables the live network goes on writing")
	}
	captured := map[[2]topology.NodeID]session{{o, c}: {false, 1}, {c, o}: {false, 1}, {o, d}: {true, 1}, {d, o}: {true, 1}}
	restore := func() *Network {
		net := New(netsim.New(1), topo, quickCfg())
		if err := net.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if !shares(net, snap) {
			t.Fatal("a restore does not share the snapshot's session tables")
		}
		return net
	}
	// unmoved fails t if the snapshot or net reads any session other than
	// as captured.
	unmoved := func(t *testing.T, what string, net *Network) {
		t.Helper()
		for l, want := range captured {
			if got := read(snap.down, snap.epoch, at(net, l[0], l[1])); got != want {
				t.Fatalf("%s: the snapshot reads %d-%d as %+v, captured %+v", what, l[0], l[1], got, want)
			}
			if got := read(net.down, net.epoch, at(net, l[0], l[1])); got != want {
				t.Fatalf("%s: the sibling restore reads %d-%d as %+v, captured %+v", what, l[0], l[1], got, want)
			}
		}
	}

	for _, tc := range []struct {
		name  string
		fault func(*Network) error
		link  [2]topology.NodeID
		want  session
	}{
		{"SetLinkDown", func(n *Network) error { return n.SetLinkDown(o, c) }, [2]topology.NodeID{o, c}, session{true, 2}},
		{"SetLinkUp", func(n *Network) error { return n.SetLinkUp(o, d) }, [2]topology.NodeID{o, d}, session{false, 1}},
		{"ResetSession", func(n *Network) error { return n.ResetSession(o, c) }, [2]topology.NodeID{o, c}, session{false, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := restore(), restore()
			if err := tc.fault(a); err != nil {
				t.Fatal(err)
			}
			if shares(a, snap) || a.sessShared {
				t.Fatal("the fault wrote without cloning the shared tables")
			}
			for _, l := range [][2]topology.NodeID{tc.link, {tc.link[1], tc.link[0]}} {
				if got := read(a.down, a.epoch, at(a, l[0], l[1])); got != tc.want {
					t.Fatalf("the faulted restore reads %d-%d as %+v, want %+v", l[0], l[1], got, tc.want)
				}
			}
			unmoved(t, tc.name, b)
			if !shares(b, snap) {
				t.Fatal("a fault on one restore took the sibling's tables")
			}

			// Tables the network owns are written in place, and a snapshot
			// of them is a copy that the network's next fault leaves as it
			// was.
			down := unsafe.SliceData(a.down)
			a.Sim().Run()
			again, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.ResetSession(c, d); err != nil {
				t.Fatal(err)
			}
			if unsafe.SliceData(a.down) != down {
				t.Fatal("owned tables were cloned again")
			}
			if got := read(again.down, again.epoch, at(a, c, d)); got != (session{}) {
				t.Fatalf("a later fault reached the snapshot of an owned table: C-D reads %+v", got)
			}
		})
	}
}
