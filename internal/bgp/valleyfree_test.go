package bgp

import (
	"math/rand"
	"net/netip"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// randomHierarchy builds a random valley-free-wirable topology: a small
// tier-1 clique, mid ASes multihomed to tier-1s with random peering, and
// leaf ASes multihomed to mids.
func randomHierarchy(t *testing.T, r *rand.Rand) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	nTier, nMid, nLeaf := 2+r.Intn(3), 4+r.Intn(6), 6+r.Intn(10)
	var tiers, mids, leaves []topology.NodeID
	asn := topology.ASN(100)
	add := func(name string, class topology.Class) topology.NodeID {
		asn++
		return b.AddNode(asn, name, class, topology.Point{X: r.Float64() * 10, Y: r.Float64() * 10})
	}
	for i := 0; i < nTier; i++ {
		tiers = append(tiers, add(name("t", i), topology.ClassTier1))
	}
	for i := 0; i < len(tiers); i++ {
		for j := i + 1; j < len(tiers); j++ {
			b.Link(tiers[i], tiers[j], topology.RelPeer, 0.002)
		}
	}
	for i := 0; i < nMid; i++ {
		id := add(name("m", i), topology.ClassTransit)
		mids = append(mids, id)
		b.Link(id, tiers[r.Intn(len(tiers))], topology.RelProvider, 0.002)
		if r.Intn(2) == 0 {
			p := tiers[r.Intn(len(tiers))]
			if !b.Linked(id, p) {
				b.Link(id, p, topology.RelProvider, 0.002)
			}
		}
	}
	for i := 0; i < nMid; i++ {
		for j := i + 1; j < nMid; j++ {
			if r.Intn(4) == 0 {
				b.Link(mids[i], mids[j], topology.RelPeer, 0.002)
			}
		}
	}
	for i := 0; i < nLeaf; i++ {
		id := add(name("l", i), topology.ClassStub)
		leaves = append(leaves, id)
		b.Link(id, mids[r.Intn(len(mids))], topology.RelProvider, 0.002)
		if r.Intn(2) == 0 {
			p := mids[r.Intn(len(mids))]
			if !b.Linked(id, p) {
				b.Link(id, p, topology.RelProvider, 0.002)
			}
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// valleyFree verifies a best path seen from the perspective of the node
// holding it: walking from the holder toward the origin, link directions
// must follow the valley-free pattern — zero or more "down or lateral
// transitions are constrained": formally, after traversing a
// customer-direction (down) link, only down links may follow, and at most
// one peer link may appear, only before any down link... walking
// origin→holder: up*(peer?)down*.
func valleyFree(t *testing.T, topo *topology.Topology, holder topology.NodeID, path []topology.NodeID) bool {
	t.Helper()
	// path: holder, next, ..., origin. Walk origin → holder so the
	// canonical up*(peer?)down* pattern applies to export direction.
	rev := make([]topology.NodeID, len(path))
	for i := range path {
		rev[i] = path[len(path)-1-i]
	}
	phase := 0 // 0 = ascending (customer→provider), 1 = after peer, 2 = descending
	for i := 0; i+1 < len(rev); i++ {
		rel, ok := topo.Adjacent(rev[i], rev[i+1])
		if !ok {
			t.Fatalf("path hops %d-%d not adjacent", rev[i], rev[i+1])
		}
		switch rel {
		case topology.RelProvider: // moving up
			if phase != 0 {
				return false
			}
		case topology.RelPeer:
			if phase != 0 {
				return false
			}
			phase = 1
		case topology.RelCustomer: // moving down
			phase = 2
		}
	}
	return true
}

// TestValleyFreeProperty checks that after convergence on random
// hierarchies, every node's best-path walk to the origin is valley-free:
// the Gao-Rexford export rules must never produce a path that transits a
// customer or peer improperly.
func TestValleyFreeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	prefix := netip.MustParsePrefix("192.0.2.0/24")
	for trial := 0; trial < 25; trial++ {
		topo := randomHierarchy(t, r)
		sim := netsim.New(int64(trial))
		net := New(sim, topo, Config{MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.01, ProcMax: 0.05})
		origin := topology.NodeID(r.Intn(topo.Len()))
		net.Originate(origin, prefix, nil)
		sim.Run()

		for _, n := range topo.Nodes {
			// Reconstruct the forwarding walk from n to the origin.
			var walk []topology.NodeID
			cur := n.ID
			for {
				walk = append(walk, cur)
				sp := net.Speaker(cur)
				best := sp.Best(prefix)
				if best == nil {
					walk = nil
					break
				}
				sess := sp.BestSession(prefix)
				if sess < 0 {
					break
				}
				cur = sp.Node().Adj[sess].To
				if len(walk) > topo.Len() {
					t.Fatalf("trial %d: forwarding loop from %s", trial, n.Name)
				}
			}
			if walk == nil {
				continue
			}
			if !valleyFree(t, topo, n.ID, walk) {
				t.Fatalf("trial %d: valley in best path from %s: %v", trial, n.Name, walk)
			}
		}
	}
}
