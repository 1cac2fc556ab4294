package bgp

import (
	"math/rand"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// scanReverse is the session pairing as speakers once resolved it, each
// scanning every neighbor's adjacency list (O(Σ deg²)): for v's session i,
// the first session of v.Adj[i].To back to v, or -1.
func scanReverse(topo *topology.Topology, v topology.NodeID, i int) int32 {
	peer := topo.Node(topo.Nodes[v].Adj[i].To)
	for j, back := range peer.Adj {
		if back.To == v {
			return int32(j)
		}
	}
	return -1
}

// TestReverseSessionsMatchesScan holds reverseSessions to the scan it
// replaced on random graphs that Validate would refuse as well as accept,
// a third of each: symmetric links in random order, where the filing
// borrows the output table; the same plus a one-way ring, which keeps
// every node's in-degree equal to its out-degree, so the table is borrowed
// though links lack reverse halves; and one-way links at random. Links
// repeat (the first session back wins) and loop. It also checks each
// speaker's window of the table.
func TestReverseSessionsMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(30)
		topo := &topology.Topology{}
		link := func(a, b topology.NodeID) {
			topo.Nodes[a].Adj = append(topo.Nodes[a].Adj, topology.Adjacency{To: b, Rel: topology.RelPeer, Delay: 0.001})
		}
		for v := 0; v < n; v++ {
			topo.Nodes = append(topo.Nodes, &topology.Node{ID: topology.NodeID(v), ASN: topology.ASN(100 + v)})
		}
		for k := r.Intn(4 * n); k > 0; k-- {
			a, b := topology.NodeID(r.Intn(n)), topology.NodeID(r.Intn(n))
			link(a, b)
			if trial%3 < 2 || r.Intn(5) > 0 {
				link(b, a)
			}
		}
		if trial%3 == 1 {
			for v := 0; v < n; v++ {
				link(topology.NodeID(v), topology.NodeID((v+1)%n))
			}
		}
		for _, node := range topo.Nodes {
			r.Shuffle(len(node.Adj), func(i, j int) { node.Adj[i], node.Adj[j] = node.Adj[j], node.Adj[i] })
		}
		off, rev := reverseSessions(topo)
		net := New(netsim.New(0), topo, quickCfg())
		for v, node := range topo.Nodes {
			if got := int(off[v+1] - off[v]); got != len(node.Adj) {
				t.Fatalf("trial %d: node %d has %d sessions in the table, %d in the topology", trial, v, got, len(node.Adj))
			}
			for i := range node.Adj {
				want := scanReverse(topo, topology.NodeID(v), i)
				if got := rev[off[v]+int32(i)]; got != want {
					t.Fatalf("trial %d: node %d session %d pairs with %d, the scan says %d", trial, v, i, got, want)
				}
				if got := net.speakers[v].reverse[i]; got != want {
					t.Fatalf("trial %d: speaker %d session %d pairs with %d, the scan says %d", trial, v, i, got, want)
				}
			}
		}
	}
}
