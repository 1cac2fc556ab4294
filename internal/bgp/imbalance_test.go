package bgp_test

import (
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// TestStaticPartitionImbalance holds PlanShards' cost model to its balance
// ceiling: at paper scale and 8 shards, the max/mean of per-shard executed
// events after a deploy wave (every site announces its prefix at t=0) stays
// within 1.15 — equal-count BFS spans sat at ~1.41. Event counts are a pure
// function of (seed, topology, config), so the ceiling holds on any machine.
func TestStaticPartitionImbalance(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale converge; skipped in -short mode")
	}
	const shards, seed, ceiling = 8, 2, 1.15
	cfg := experiment.DefaultWorldConfig(experiment.WithPaperScale())
	cfg.Topology.Seed = cfg.Seed
	topo, err := topology.Cached(cfg.Topology)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(seed)
	net, err := bgp.NewSharded(sim, topo, bgp.DefaultConfig(), shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, code := range topology.DefaultSiteCodes {
		if err := net.Originate(topo.NodeByName("cdn-"+code).ID, core.SitePrefix(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	counts := net.ShardEventCounts()
	var sum, max uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		t.Fatal("deploy wave executed no shard events")
	}
	imbalance := float64(max) * float64(len(counts)) / float64(sum)
	t.Logf("event imbalance max/mean = %.3f over %v", imbalance, counts)
	if imbalance > ceiling {
		t.Fatalf("8-shard event imbalance %.3f exceeds the %.2f ceiling: %v", imbalance, ceiling, counts)
	}
}
