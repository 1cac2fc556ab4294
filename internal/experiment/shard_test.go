package experiment

import (
	"os"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/obs"
	"bestofboth/internal/scenario"
)

// shardCounts is the equivalence matrix the sharded runner is gated on:
// the classic single-kernel world, the smallest genuinely parallel split,
// and the paper-scale CI configuration.
var shardCounts = []int{1, 2, 8}

// TestConvergeStopsAtBudget cuts a converge short, five virtual seconds
// after a deploy, and requires that no event later than that budget has
// executed, on one kernel and across two shards. Every kernel reports the
// time of each event it executes to one shared gauge.
func TestConvergeStopsAtBudget(t *testing.T) {
	const budget = 5
	for _, shards := range []int{1, 2} {
		reg := obs.NewRegistry()
		w, err := NewWorld(DefaultWorldConfig(WithSeed(7), WithShards(shards), WithObs(reg)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CDN.Deploy(core.ReactiveAnycast{}); err != nil {
			t.Fatal(err)
		}
		deadline := w.Sim.Now() + budget
		w.Converge(budget)
		if w.Sim.Pending() == 0 {
			t.Fatalf("shards=%d: converged within %d s; the budget cuts nothing", shards, budget)
		}
		if last := reg.Gauge("netsim_virtual_time_max_seconds").Value(); last > deadline {
			t.Errorf("shards=%d: an event at %.6f s executed, past the deadline %.6f s", shards, last, deadline)
		}
		if now := w.Sim.Now(); now > deadline {
			t.Errorf("shards=%d: clock at %.6f s, past the deadline %.6f s", shards, now, deadline)
		}
	}
}

// TestShardedDigestEquivalence is the observable-equivalence gate for the
// sharded convergence runner: for every technique, a world converged at
// shards=N must produce byte-identical RouteStateDigest and FIBDigest
// outputs to the classic shards=1 world. Per-shard RNG streams make the
// message-level timing differ, but the protocol's converged fixed point is
// timing-independent, and the digests hash exactly that fixed point.
func TestShardedDigestEquivalence(t *testing.T) {
	const converge = 3600
	for _, tech := range core.AllTechniques() {
		tech := tech
		t.Run(tech.Name(), func(t *testing.T) {
			t.Parallel()
			var wantRoutes, wantFIB string
			first := true
			for _, shards := range shardCounts {
				cfg := tinyConfig(27)
				cfg.Shards = shards
				w, err := NewConvergedWorld(cfg, tech, converge)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				routes := w.Net.RouteStateDigest()
				fib := w.Plane.FIBDigest()
				if routes == "" || fib == "" {
					t.Fatalf("shards=%d: empty digests", shards)
				}
				if first {
					wantRoutes, wantFIB, first = routes, fib, false
					continue
				}
				if routes != wantRoutes {
					t.Fatalf("shards=%d: RouteStateDigest differs from shards=%d", shards, shardCounts[0])
				}
				if fib != wantFIB {
					t.Fatalf("shards=%d: FIBDigest differs from shards=%d", shards, shardCounts[0])
				}
			}
		})
	}
}

// TestShardedScenarioDigestEquivalence runs every bundled scenario to its
// horizon at each shard count and requires byte-identical route and FIB
// digests after a full post-scenario drain (the drain lets damping reuse
// timers fire so suppression state resolves before hashing).
func TestShardedScenarioDigestEquivalence(t *testing.T) {
	cfg := tinyConfig(31)
	sel, err := SelectTargets(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	tech := core.ReactiveAnycast{}
	for _, sc := range scenario.Library() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			var wantRoutes, wantFIB string
			first := true
			for _, shards := range shardCounts {
				c := ScenarioWorldConfig(cfg, sc)
				c.Shards = shards
				w, err := NewConvergedWorld(c, tech, 3600)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if _, err := scenario.Run(w.Env(), sc, scenarioGroups(w, sel, 6), scenario.Options{}); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				// Let damping reuse timers and any residual churn settle so
				// the digest hashes the post-scenario fixed point.
				w.Converge(7200)
				routes := w.Net.RouteStateDigest()
				fib := w.Plane.FIBDigest()
				if first {
					wantRoutes, wantFIB, first = routes, fib, false
					continue
				}
				if routes != wantRoutes {
					t.Fatalf("shards=%d: RouteStateDigest differs from shards=%d", shards, shardCounts[0])
				}
				if fib != wantFIB {
					t.Fatalf("shards=%d: FIBDigest differs from shards=%d", shards, shardCounts[0])
				}
			}
		})
	}
}

// TestInternetScaleConverge builds the -scale internet world sharded 8 ways,
// converges it, and reports the manifest numbers recorded in EXPERIMENTS.md.
// At ≈72K ASes it needs several GiB and minutes of wall clock, so it only
// runs when INTERNET_SCALE_TEST is set.
func TestInternetScaleConverge(t *testing.T) {
	if os.Getenv("INTERNET_SCALE_TEST") == "" {
		t.Skip("set INTERNET_SCALE_TEST=1 to run the internet-scale convergence check")
	}
	cfg := DefaultWorldConfig(WithSeed(42), WithInternetScale(), WithShards(8))
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("internet-scale world: %d ASes, shards=%d, window=%gs",
		w.Topo.Len(), w.Net.Shards(), w.Net.ShardRunner().Window())
	if err := w.CDN.Deploy(core.ReactiveAnycast{}); err != nil {
		t.Fatal(err)
	}
	w.Converge(3600)
	if w.Sim.Pending() != 0 {
		t.Fatalf("internet-scale world did not converge: %d pending", w.Sim.Pending())
	}
	counts := w.Net.ShardEventCounts()
	var sum, max uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum > 0 {
		t.Logf("event imbalance max/mean: %.3f",
			float64(max)*float64(len(counts))/float64(sum))
	}
	mem := ReadMemFootprint()
	t.Logf("config digest: %s", cfg.Digest())
	t.Logf("mem: peakRSS=%d totalAlloc=%d mallocs=%d",
		mem.PeakRSSBytes, mem.TotalAllocBytes, mem.Mallocs)
}
