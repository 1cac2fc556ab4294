package bgp

import (
	"math"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// ringTopo builds a connected ring of n stub nodes with uniform link delay.
func ringTopo(t *testing.T, n int, delay float64) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	ids := make([]topology.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(topology.ASN(100+i), nodeName(i), topology.ClassStub, topology.Point{})
	}
	for i := 0; i < n; i++ {
		b.Link(ids[i], ids[(i+1)%n], topology.RelPeer, delay)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func nodeName(i int) string {
	return string([]byte{'n', byte('0' + i/10), byte('0' + i%10)})
}

// cutLinks returns a copy of a built topology disconnected by clearing the
// given nodes' adjacency lists and every reverse edge pointing at them.
// Builder validation (correctly) rejects disconnected graphs, but PlanShards
// must still partition one: fault studies tear topologies apart at runtime.
// The copy is a new Topology, with session tables of its own, because a
// built one must not change once ReverseSessions has been asked.
func cutLinks(topo *topology.Topology, isolate ...topology.NodeID) *topology.Topology {
	iso := map[topology.NodeID]bool{}
	for _, id := range isolate {
		iso[id] = true
	}
	cut := &topology.Topology{}
	for _, n := range topo.Nodes {
		c := *n
		c.Adj = nil
		if !iso[n.ID] {
			for _, adj := range n.Adj {
				if !iso[adj.To] {
					c.Adj = append(c.Adj, adj)
				}
			}
		}
		cut.Nodes = append(cut.Nodes, &c)
	}
	return cut
}

func shardStats(assign []int, n int) (counts []int, populated int) {
	counts = make([]int, n)
	for _, s := range assign {
		counts[s]++
	}
	for _, c := range counts {
		if c > 0 {
			populated++
		}
	}
	return counts, populated
}

func TestPlanShardsDisconnected(t *testing.T) {
	topo := ringTopo(t, 12, 0.01)
	topo = cutLinks(topo, 3, 9) // two isolated nodes + the surviving chain pieces
	for _, n := range []int{2, 3, 4} {
		assign := PlanShards(topo, n, 7)
		if len(assign) != topo.Len() {
			t.Fatalf("n=%d: assignment length %d, want %d", n, len(assign), topo.Len())
		}
		for id, s := range assign {
			if s < 0 || s >= n {
				t.Fatalf("n=%d: node %d assigned out-of-range shard %d", n, id, s)
			}
		}
		counts, populated := shardStats(assign, n)
		if populated != n {
			t.Fatalf("n=%d: only %d shards populated: %v", n, populated, counts)
		}
	}
}

func TestPlanShardsMoreShardsThanNodes(t *testing.T) {
	topo := ringTopo(t, 3, 0.01)
	assign := PlanShards(topo, 8, 3)
	counts, populated := shardStats(assign, 8)
	if populated != 3 {
		t.Fatalf("want exactly 3 populated shards, got %d: %v", populated, counts)
	}
	for s, c := range counts {
		if c > 1 {
			t.Fatalf("shard %d has %d nodes; with more shards than nodes every shard holds at most one: %v", s, c, counts)
		}
	}
}

func TestPlanShardsSingleNodeShards(t *testing.T) {
	// Exactly as many shards as nodes: every shard holds exactly one node.
	topo := ringTopo(t, 5, 0.01)
	assign := PlanShards(topo, 5, 11)
	counts, populated := shardStats(assign, 5)
	if populated != 5 {
		t.Fatalf("want 5 populated shards, got %d: %v", populated, counts)
	}
}

func TestPlanShardsNoShardEmptied(t *testing.T) {
	// A pathological weight vector — one node carries almost all weight —
	// must not let the cut or the refinement empty any shard.
	topo := ringTopo(t, 16, 0.01)
	w := make([]float64, topo.Len())
	for i := range w {
		w[i] = 1
	}
	w[5] = 1e6
	const n, seed = 4, 3
	assign := make([]int, topo.Len())
	cutSpans(bfsOrder(topo, seed), w, n, assign)
	refine(topo, w, assign, n, seed)
	counts, populated := shardStats(assign, n)
	if populated != n {
		t.Fatalf("pathological weights emptied a shard: %v", counts)
	}
}

func TestPlanShardsDeterministic(t *testing.T) {
	topo := ringTopo(t, 20, 0.01)
	a := PlanShards(topo, 4, 99)
	b := PlanShards(topo, 4, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: equal inputs gave different shards %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPlanShardsPinnedAssignment pins the exact partition of a small fixed
// topology. The assignment is free to change when the partitioner changes
// ON PURPOSE — re-pin the literal below and say why in the commit — but an
// accidental change to the cost model, cut, refinement order, or tie-break
// hashing must not silently ship a digest-compatible-but-slower partition.
func TestPlanShardsPinnedAssignment(t *testing.T) {
	topo := ringTopo(t, 12, 0.01)
	got := PlanShards(topo, 3, 42)
	want := []int{2, 1, 1, 0, 0, 0, 0, 0, 1, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("assignment length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment drifted: got %v, want %v", got, want)
		}
	}
}

// TestStaticWeightsShape pins the cost model's ordering properties rather
// than its exact values: weights are positive, sublinear in degree, and a
// hypergiant weighs far less than a transit of equal degree.
func TestStaticWeightsShape(t *testing.T) {
	b := topology.NewBuilder()
	hub := b.AddNode(1, "hub", topology.ClassTransit, topology.Point{})
	hg := b.AddNode(2, "hg", topology.ClassHypergiant, topology.Point{})
	var leaves []topology.NodeID
	for i := 0; i < 6; i++ {
		leaves = append(leaves, b.AddNode(topology.ASN(10+i), nodeName(i), topology.ClassStub, topology.Point{}))
	}
	for _, l := range leaves {
		b.Link(l, hub, topology.RelProvider, 0.002)
		b.Link(l, hg, topology.RelPeer, 0.002)
	}
	b.Link(hub, hg, topology.RelPeer, 0.005)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := StaticSpeakerWeights(topo)
	for id, v := range w {
		if v <= 0 {
			t.Fatalf("node %d: non-positive weight %g", id, v)
		}
	}
	if w[hg] >= w[hub] {
		t.Fatalf("hypergiant (route sink) weight %g should be below transit weight %g at equal degree", w[hg], w[hub])
	}
	if w[hub] >= float64(7)*w[leaves[0]] {
		t.Fatalf("weight should be sublinear in degree: hub(deg 7)=%g vs stub(deg 2)=%g", w[hub], w[leaves[0]])
	}
}

// TestNewShardedNoCutWindow exercises the degenerate no-cut-edge fallback:
// when whole components land on single shards the lookahead is +Inf, and
// the runner must fall back to the documented noCutWindow choice — the
// minimum link delay anywhere plus ProcMin.
func TestNewShardedNoCutWindow(t *testing.T) {
	topo := ringTopo(t, 8, 0.020)
	// Split the ring into two 4-node chains, each of which the weighted cut
	// places wholly on one shard: no cut edges remain.
	topo = cutLinks(topo, 0, 4)
	cfg := DefaultConfig()
	sim := netsim.New(1)
	net, err := NewSharded(sim, topo, cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	assign := PlanShards(topo, 2, 1)
	if la := lookahead(topo, cfg, assign); !math.IsInf(la, 1) {
		t.Skipf("partition has cut edges (lookahead %g); fallback not exercised", la)
	}
	want := 0.020 + cfg.ProcMin
	if got := net.ShardRunner().Window(); got != want {
		t.Fatalf("no-cut window = %g, want min link delay + ProcMin = %g", got, want)
	}
}

// TestNoCutWindowEdgeCases pins the documented fallback ladder directly:
// min link delay + ProcMin, then bare ProcMin for a linkless topology,
// then one virtual second when ProcMin is zero too.
func TestNoCutWindowEdgeCases(t *testing.T) {
	topo := ringTopo(t, 4, 0.015)
	cfg := DefaultConfig()
	if got, want := noCutWindow(topo, cfg), 0.015+cfg.ProcMin; got != want {
		t.Fatalf("linked topology: window %g, want %g", got, want)
	}
	bare := cutLinks(ringTopo(t, 4, 0.015), 0, 1, 2, 3)
	if got, want := noCutWindow(bare, cfg), cfg.ProcMin; got != want {
		t.Fatalf("linkless topology: window %g, want bare ProcMin %g", got, want)
	}
	if got := noCutWindow(bare, Config{}); got != 1 {
		t.Fatalf("linkless topology with zero ProcMin: window %g, want 1", got)
	}
}
