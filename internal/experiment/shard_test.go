package experiment

import (
	"net/netip"
	"os"
	"sync"
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

// TestShardedNewPrefixAfterRestoreEquivalence restores one converged
// proactive-prepending snapshot into two worlds at once. One switches to
// proactive-superprefix, which originates a covering prefix the snapshot
// never held, so that world grows the prefix table and every rib it shares
// with the snapshot; the other runs a failover on the snapshot's prefixes.
// A third restore afterwards must still be the snapshotted world, the
// switched world must match a world built cold and given the same switch,
// and all of it must agree at one and two shards. Under the race detector
// a write into an array the siblings read is a reported data race.
func TestShardedNewPrefixAfterRestoreEquivalence(t *testing.T) {
	tech := core.ProactivePrepending{Prepends: 3}
	// knownPrefixes counts the prefixes some speaker holds state for: every
	// prefix an Originate has named, since its originator keeps one.
	knownPrefixes := func(w *World) int {
		seen := map[netip.Prefix]bool{}
		for _, n := range w.Topo.Nodes {
			for _, p := range w.Net.Speaker(n.ID).KnownPrefixes() {
				seen[p] = true
			}
		}
		return len(seen)
	}
	switched := func(w *World) (routes, fib string) {
		t.Helper()
		if err := w.CDN.SwitchTechnique(core.ProactiveSuperprefix{}); err != nil {
			t.Error(err)
			return "", ""
		}
		w.Converge(3600)
		return w.Net.RouteStateDigest(), w.Plane.FIBDigest()
	}

	var first [2]string
	for _, shards := range []int{1, 2} {
		cfg := tinyConfig(33)
		cfg.Shards = shards
		sel := mustSelect(t, cfg, 40)
		src, err := NewConvergedWorld(cfg, tech, 3600)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wantRoutes, wantFIB, wantPrefixes := src.Net.RouteStateDigest(), src.Plane.FIBDigest(), knownPrefixes(src)

		var got [2]string
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			w, err := RestoreWorld(snap)
			if err != nil {
				t.Error(err)
				return
			}
			got[0], got[1] = switched(w)
			if n := knownPrefixes(w); n != wantPrefixes+1 {
				t.Errorf("shards=%d: the switched world knows %d prefixes, want the snapshot's %d and the superprefix", shards, n, wantPrefixes)
			}
		}()
		go func() {
			defer wg.Done()
			w, err := RestoreWorld(snap)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := failoverOn(w, sel, tech, "atl", quickFailover()); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		c, err := RestoreWorld(snap)
		if err != nil {
			t.Fatal(err)
		}
		if n := knownPrefixes(c); n != wantPrefixes {
			t.Errorf("shards=%d: a restore after the siblings ran knows %d prefixes, the snapshot %d", shards, n, wantPrefixes)
		}
		if c.Net.RouteStateDigest() != wantRoutes || c.Plane.FIBDigest() != wantFIB {
			t.Errorf("shards=%d: a restore after the siblings ran differs from the snapshotted world", shards)
		}

		cold, err := NewConvergedWorld(cfg, tech, 3600)
		if err != nil {
			t.Fatal(err)
		}
		if routes, fib := switched(cold); routes != got[0] || fib != got[1] {
			t.Errorf("shards=%d: the restored world's switch converged to other digests than a cold world's", shards)
		}
		if got[0] == wantRoutes {
			t.Errorf("shards=%d: the switch left the route digest unmoved", shards)
		}
		if shards == 1 {
			first = got
		} else if got != first {
			t.Errorf("shards=%d: the switched world's digests differ from shards=1", shards)
		}
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
