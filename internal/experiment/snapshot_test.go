package experiment

import (
	"net/netip"
	"slices"
	"sync"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/topology"
)

// nodeDown reads node's forwarding flag: a walk from a failed node is
// dropped at its first hop, whatever the address.
func nodeDown(p *dataplane.Plane, node topology.NodeID) bool {
	return p.Forward(node, netip.Addr{}).Reason == dataplane.DropNodeDown
}

// downFlags reads the forwarding flag of every node, in node order.
func downFlags(w *World) []bool {
	out := make([]bool, w.Topo.Len())
	for _, n := range w.Topo.Nodes {
		out[n.ID] = nodeDown(w.Plane, n.ID)
	}
	return out
}

// TestSnapshotCarriesForwardingFlags pins where the forwarding flags live: in
// the data plane's own snapshot, not in a guess from the controller's failed
// set. A drained site is failed but keeps forwarding; a node taken down
// behind the controller's back (cdnsim serve -test-sabotage, a scenario SetDown)
// is down without being failed. Both must restore as they were.
func TestSnapshotCarriesForwardingFlags(t *testing.T) {
	w, err := NewConvergedWorld(tinyConfig(9), core.ProactivePrepending{Prepends: 3}, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.CDN.DrainSite("atl"); err != nil {
		t.Fatal(err)
	}
	w.Converge(3600)
	atl, bos := w.CDN.Site("atl").Node, w.CDN.Site("bos").Node
	w.Plane.SetDown(bos, true)
	if !w.CDN.Failed("atl") || nodeDown(w.Plane, atl) || w.CDN.Failed("bos") {
		t.Fatalf("setup: atl failed=%v down=%v, bos failed=%v; want a drained atl that forwards and an unfailed bos",
			w.CDN.Failed("atl"), nodeDown(w.Plane, atl), w.CDN.Failed("bos"))
	}

	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}
	if nodeDown(r.Plane, atl) {
		t.Error("drained site atl forwards in the live world but restored as down")
	}
	if !nodeDown(r.Plane, bos) {
		t.Error("node bos is down in the live world but restored as forwarding")
	}
	if !slices.Equal(downFlags(r), downFlags(w)) {
		t.Error("restored forwarding flags differ from the live world's")
	}
	if !r.CDN.Failed("atl") {
		t.Error("restored controller lost the drained site's failed mark")
	}
}

// TestSnapshotStaysPristine is the sharing contract of restore by reference.
// Worlds restored from one snapshot read the same frozen RIB states and FIB
// rows; each runs a different failover concurrently with the others and
// with the source world moving on, and a world restored afterwards must
// still be the world the snapshot was taken of. Under the race detector
// (make race runs it) a write through a frozen state or row is a reported
// data race, not only a digest mismatch.
func TestSnapshotStaysPristine(t *testing.T) {
	cfg := tinyConfig(31)
	tech := core.ReactiveAnycast{}
	sel := mustSelect(t, cfg, 40)
	src, err := NewConvergedWorld(cfg, tech, 3600)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantRoutes, wantFIB, wantDown := src.Net.RouteStateDigest(), src.Plane.FIBDigest(), downFlags(src)

	var wg sync.WaitGroup
	for _, site := range []string{"atl", "msn"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := RestoreWorld(snap)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := failoverOn(w, sel, tech, site, quickFailover())
			if err != nil {
				t.Error(err)
				return
			}
			if res.Controllable == 0 {
				t.Errorf("%s: no controllable targets, the run exercised nothing", site)
			}
			if w.Net.RouteStateDigest() == wantRoutes || w.Plane.FIBDigest() == wantFIB {
				t.Errorf("%s: failing the site left the restored world's digests unmoved", site)
			}
		}()
	}
	// The source world shares its FIB rows with the snapshot too.
	if _, err := src.CDN.FailSite("bos"); err != nil {
		t.Fatal(err)
	}
	src.Sim.RunFor(300)
	wg.Wait()
	if src.Plane.FIBDigest() == wantFIB {
		t.Fatal("failing bos left the source world's FIBs unmoved")
	}

	c, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}
	if c.Net.RouteStateDigest() != wantRoutes {
		t.Error("route state restored after sibling runs differs from the snapshotted world's")
	}
	if c.Plane.FIBDigest() != wantFIB {
		t.Error("FIBs restored after sibling runs differ from the snapshotted world's")
	}
	if !slices.Equal(downFlags(c), wantDown) {
		t.Error("forwarding flags restored after sibling runs differ from the snapshotted world's")
	}
}
