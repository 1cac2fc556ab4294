// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark reports the headline measurement of its
// experiment as custom metrics (medians in seconds, control shares as
// fractions), so `go test -bench=. -benchmem` doubles as a compact
// reproduction run.
//
// The per-iteration sizes are reduced relative to cmd/cdnsim defaults to
// keep iterations in the seconds range; the shapes are the same.
package bestofboth_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bestofboth/internal/bgp"
	"bestofboth/internal/collector"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/experiment"
	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
)

// benchConfig is the reduced world used by the experiment benchmarks.
func benchConfig(seed int64) experiment.WorldConfig {
	return experiment.WorldConfig{
		Seed: seed,
		Topology: topology.GenConfig{
			NumStub:       160,
			NumEyeball:    80,
			NumUniversity: 16,
			NumRegional:   24,
		},
		CollectorPeers: 30,
	}
}

func benchFailover() experiment.FailoverConfig {
	return experiment.FailoverConfig{ProbeDuration: 300, MaxTargets: 15}
}

var benchSites = []string{"atl", "msn", "slc"}

// selection is computed once and shared by the benchmarks that need it.
var sharedSel *experiment.Selection

func getSelection(b *testing.B) *experiment.Selection {
	b.Helper()
	if sharedSel == nil {
		sel, err := experiment.SelectTargets(benchConfig(1), 40)
		if err != nil {
			b.Fatal(err)
		}
		sharedSel = sel
	}
	return sharedSel
}

// BenchmarkFigure2 regenerates the §5.4.1 reconnection/failover CDFs for
// the four techniques of Figure 2 and reports their failover medians.
func BenchmarkFigure2(b *testing.B) {
	sel := getSelection(b)
	var last []experiment.CDFPair
	for i := 0; i < b.N; i++ {
		pairs, err := (&experiment.Runner{}).Figure2(benchConfig(1), sel, []core.Technique{
			core.ProactiveSuperprefix{},
			core.ReactiveAnycast{},
			core.ProactivePrepending{Prepends: 3},
			core.Anycast{},
		}, benchSites, benchFailover())
		if err != nil {
			b.Fatal(err)
		}
		last = pairs
	}
	for _, p := range last {
		b.ReportMetric(p.Failover.Median(), p.Technique+"-failover-p50-s")
		b.ReportMetric(p.Reconnection.Median(), p.Technique+"-recon-p50-s")
	}
}

// BenchmarkFigure2Default is the matrix `cdnsim fig2` and the repository
// benchmark's fig2-warm workload run — default scale, 200 targets selected
// and at most 60 probed per site, all eight sites — on cached converged
// snapshots: one untimed matrix fills the snapshot cache. `make
// profile-fig2` profiles this one, so the percentages it prints are of the
// workload the performance claims are made on.
func BenchmarkFigure2Default(b *testing.B) {
	cfg := experiment.DefaultWorldConfig(experiment.WithSeed(7))
	sel, err := experiment.SelectTargets(cfg, 200)
	if err != nil {
		b.Fatal(err)
	}
	var sites []string
	for _, s := range sel.Sites {
		sites = append(sites, s.Code)
	}
	fc := experiment.DefaultFailoverConfig()
	fc.MaxTargets = 60
	matrix := func() {
		if _, err := (&experiment.Runner{}).Figure2(cfg, sel, benchFig2Techs, sites, fc); err != nil {
			b.Fatal(err)
		}
	}
	matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix()
	}
}

// BenchmarkRestoreWorld is one of the 32 restores a Figure 2 matrix makes:
// the default-scale reactive-anycast world (seed 7), converged and
// snapshotted once outside the timer, restored per iteration. B/op and
// allocs/op are what a restore costs before its run writes anything; `make
// profile-restore` profiles this one.
func BenchmarkRestoreWorld(b *testing.B) {
	w, err := experiment.NewConvergedWorld(experiment.DefaultWorldConfig(experiment.WithSeed(7)), core.ReactiveAnycast{}, experiment.ConvergeTime)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RestoreWorld(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergePaper is one operation of the repository benchmark's
// converge-cold workload: a paper-scale world from a seed no earlier
// iteration used (its topology generated inside the iteration), proactive
// prepending at depth three deployed, and the control plane drained for up
// to an hour of virtual time. `make profile-converge` profiles this one.
func BenchmarkConvergePaper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		convergeSeed++
		w, err := experiment.NewWorld(experiment.DefaultWorldConfig(
			experiment.WithSeed(convergeSeed), experiment.WithPaperScale()))
		if err != nil {
			b.Fatal(err)
		}
		if err := w.CDN.Deploy(core.ProactivePrepending{Prepends: 3}); err != nil {
			b.Fatal(err)
		}
		w.Converge(3600)
	}
}

// convergeSeed is the last seed BenchmarkConvergePaper used. It runs on
// across the benchmark's ramp-up runs and -count repetitions, because
// topology.Cached memoizes the last 32 seeds' topologies: a seed used again
// within them would skip generation.
var convergeSeed int64 = 1000

var benchFig2Techs = []core.Technique{
	core.ProactiveSuperprefix{},
	core.ReactiveAnycast{},
	core.ProactivePrepending{Prepends: 3},
	core.Anycast{},
}

// BenchmarkFigure2Sequential measures the matrix's runs one at a time, every
// run deploying and converging its own world from scratch (RunFailover), as
// the baseline for the runner's speedup.
func BenchmarkFigure2Sequential(b *testing.B) {
	sel := getSelection(b)
	for i := 0; i < b.N; i++ {
		for _, tech := range benchFig2Techs {
			for _, site := range benchSites {
				if _, err := experiment.RunFailover(benchConfig(1), sel, tech, site, benchFailover()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFigure2Parallel is the runner's default mode: GOMAXPROCS workers
// with converged-world reuse. Results are bit-identical to Sequential (see
// TestRunnerDeterminismAcrossWorkers); only the wall clock differs.
func BenchmarkFigure2Parallel(b *testing.B) {
	sel := getSelection(b)
	r := &experiment.Runner{}
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure2(benchConfig(1), sel, benchFig2Techs, benchSites, benchFailover()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Metrics is BenchmarkFigure2Parallel with a live metrics
// registry on every layer; comparing the two bounds the instrumentation
// overhead (the acceptance budget is ≤2% with the registry disabled, and
// the enabled path should stay within a few percent).
func BenchmarkFigure2Metrics(b *testing.B) {
	sel := getSelection(b)
	reg := obs.NewRegistry()
	r := &experiment.Runner{Obs: reg}
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure2(benchConfig(1), sel, benchFig2Techs, benchSites, benchFailover()); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "netsim_events_executed_total" {
			b.ReportMetric(float64(m.Value)/float64(b.N), "kernel-events/op")
		}
	}
}

// BenchmarkTable1 regenerates the §5.4.2 traffic-control table and reports
// the mean steerable share at both prepend depths.
func BenchmarkTable1(b *testing.B) {
	sel := getSelection(b)
	var rows []experiment.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Table1(benchConfig(1), sel)
		if err != nil {
			b.Fatal(err)
		}
	}
	var p3, p5 float64
	for _, r := range rows {
		p3 += r.Prepend3
		p5 += r.Prepend5
	}
	b.ReportMetric(p3/float64(len(rows)), "mean-prepend3-share")
	b.ReportMetric(p5/float64(len(rows)), "mean-prepend5-share")
}

// BenchmarkTable2 assembles the tradeoff matrix from fresh Figure 2 and
// Table 1 measurements.
func BenchmarkTable2(b *testing.B) {
	sel := getSelection(b)
	for i := 0; i < b.N; i++ {
		pairs, err := (&experiment.Runner{}).Figure2(benchConfig(1), sel,
			[]core.Technique{core.ReactiveAnycast{}, core.Anycast{}},
			benchSites[:1], benchFailover())
		if err != nil {
			b.Fatal(err)
		}
		t1, err := experiment.Table1(benchConfig(1), sel)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiment.Table2(pairs, t1)
		if len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
}

// BenchmarkFigure3 regenerates the Appendix A withdrawal-convergence CDFs.
func BenchmarkFigure3(b *testing.B) {
	var res *experiment.Figure3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure3(benchConfig(2), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Hypergiant.Median(), "hypergiant-conv-p50-s")
	b.ReportMetric(res.Testbed.Median(), "testbed-conv-p50-s")
	b.ReportMetric(res.Testbed.Percentile(90), "testbed-conv-p90-s")
}

// BenchmarkFigure4 regenerates the Appendix B announcement-propagation
// CDFs.
func BenchmarkFigure4(b *testing.B) {
	var res *experiment.Figure4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure4(benchConfig(3), 3, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AnycastCensus.Median(), "census-prop-p50-s")
	b.ReportMetric(res.Testbed.Median(), "testbed-prop-p50-s")
}

// BenchmarkFigure5 regenerates the Appendix C.2 prepend-depth comparison.
func BenchmarkFigure5(b *testing.B) {
	sel := getSelection(b)
	var pairs []experiment.CDFPair
	for i := 0; i < b.N; i++ {
		var err error
		pairs, err = (&experiment.Runner{}).Figure5(benchConfig(1), sel, benchSites[:2], benchFailover())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pairs[0].Failover.Median(), "prepend3-failover-p50-s")
	b.ReportMetric(pairs[1].Failover.Median(), "prepend5-failover-p50-s")
}

// BenchmarkAppendixC1 regenerates the diverging-AS analysis for sea1.
func BenchmarkAppendixC1(b *testing.B) {
	sel := getSelection(b)
	var intended, byRel float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.AppendixC1(benchConfig(1), sel, "sea1")
		if err != nil {
			b.Fatal(err)
		}
		if res.Compared > 0 {
			intended = float64(res.ToIntended) / float64(res.Compared)
		}
		if res.RelationshipComparable > 0 {
			byRel = float64(res.ByRelationship) / float64(res.RelationshipComparable)
		}
	}
	b.ReportMetric(intended, "to-intended-share")
	b.ReportMetric(byRel, "explained-by-relationship-share")
}

// BenchmarkCombined is the §4 ablation: reactive-anycast with and without
// the covering superprefix.
func BenchmarkCombined(b *testing.B) {
	sel := getSelection(b)
	var pairs []experiment.CDFPair
	for i := 0; i < b.N; i++ {
		var err error
		pairs, err = (&experiment.Runner{}).Figure2(benchConfig(1), sel,
			[]core.Technique{core.ReactiveAnycast{}, core.Combined{}},
			benchSites[:2], benchFailover())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pairs[0].Failover.Percentile(20), "reactive-failover-p20-s")
	b.ReportMetric(pairs[1].Failover.Percentile(20), "combined-failover-p20-s")
	b.ReportMetric(pairs[0].Failover.Percentile(95), "reactive-failover-p95-s")
	b.ReportMetric(pairs[1].Failover.Percentile(95), "combined-failover-p95-s")
}

// BenchmarkUnicastDNS quantifies the unicast baseline's DNS-gated failover.
func BenchmarkUnicastDNS(b *testing.B) {
	var med, p99 float64
	for i := 0; i < b.N; i++ {
		ucfg := experiment.DefaultUnicastDNSConfig()
		ucfg.Clients = 800
		cdf, err := experiment.UnicastDNSFailover(benchConfig(4), ucfg)
		if err != nil {
			b.Fatal(err)
		}
		med, p99 = cdf.Median(), cdf.Percentile(99)
	}
	b.ReportMetric(med, "unicast-dns-failover-p50-s")
	b.ReportMetric(p99, "unicast-dns-failover-p99-s")
}

// BenchmarkAblationMRAI sweeps the MRAI timer and reports withdrawal
// convergence — the knob behind Figure 3's regime (DESIGN.md §6).
func BenchmarkAblationMRAI(b *testing.B) {
	for _, mrai := range []float64{15, 30, 45, 60} {
		b.Run(benchName("mrai", mrai), func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(5)
				bcfg := bgp.DefaultConfig()
				bcfg.MRAI = mrai
				cfg.BGP = bcfg
				res, err := experiment.Figure3(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				med = res.Testbed.Median()
			}
			b.ReportMetric(med, "withdrawal-conv-p50-s")
		})
	}
}

// BenchmarkAblationPaceWithdrawals contrasts RFC-pure unpaced withdrawals
// with the deployed-router pacing the model defaults to (DESIGN.md §6).
func BenchmarkAblationPaceWithdrawals(b *testing.B) {
	for _, pace := range []bool{false, true} {
		name := "unpaced"
		if pace {
			name = "paced"
		}
		b.Run(name, func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(6)
				bcfg := bgp.DefaultConfig()
				bcfg.PaceWithdrawals = pace
				cfg.BGP = bcfg
				res, err := experiment.Figure3(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				med = res.Testbed.Median()
			}
			b.ReportMetric(med, "withdrawal-conv-p50-s")
		})
	}
}

// BenchmarkAblationScopedPrepending compares prepend-everywhere (as the
// paper's evaluation must, §5.2) with the paper's recommended
// scoped-to-shared-neighbors announcements (§4).
func BenchmarkAblationScopedPrepending(b *testing.B) {
	sel := getSelection(b)
	for _, scoped := range []bool{false, true} {
		name := "everywhere"
		if scoped {
			name = "scoped"
		}
		b.Run(name, func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				w, err := experiment.NewWorld(benchConfig(1))
				if err != nil {
					b.Fatal(err)
				}
				if err := w.CDN.Deploy(core.ProactivePrepending{Prepends: 3, Scoped: scoped}); err != nil {
					b.Fatal(err)
				}
				w.Converge(3600)
				ok, n := 0, 0
				for _, st := range sel.Sites {
					s := w.CDN.Site(st.Code)
					for _, id := range st.NotAnycast {
						n++
						if w.CDN.CanSteer(id, s) {
							ok++
						}
					}
				}
				if n > 0 {
					share = float64(ok) / float64(n)
				}
			}
			b.ReportMetric(share, "steerable-share")
		})
	}
}

// BenchmarkAblationDamping measures route-flap damping's effect on
// reactive-anycast failover: reactive announcements arriving amid the
// withdrawal churn can be penalized at routers that saw the prefix flap
// (DESIGN.md §6, one candidate explanation for the combined technique's
// tail in §4).
func BenchmarkAblationDamping(b *testing.B) {
	sel := getSelection(b)
	for _, damp := range []bool{false, true} {
		name := "off"
		if damp {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var p50, p95 float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				cfg.BGP = bgp.DefaultConfig()
				cfg.BGP.Damping = damp
				pairs, err := (&experiment.Runner{}).Figure2(cfg, sel,
					[]core.Technique{core.ReactiveAnycast{}}, benchSites[:2], benchFailover())
				if err != nil {
					b.Fatal(err)
				}
				p50 = pairs[0].Failover.Median()
				p95 = pairs[0].Failover.Percentile(95)
			}
			b.ReportMetric(p50, "reactive-failover-p50-s")
			b.ReportMetric(p95, "reactive-failover-p95-s")
		})
	}
}

// BenchmarkAblationMEDvsPrepending compares the §4 MED variant against
// prepending on both axes: control share and failover time. It runs on a
// real-CDN-style deployment where all sites share two tier-1 providers
// (§4: scoped announcements need shared neighbors; PEERING's disjoint
// providers would leave the scoped variants without backup coverage).
func BenchmarkAblationMEDvsPrepending(b *testing.B) {
	sharedCfg := benchConfig(1)
	sharedCfg.Topology.CDNSharedProviders = 2
	sel, err := experiment.SelectTargets(sharedCfg, 40)
	if err != nil {
		b.Fatal(err)
	}
	for _, tech := range []core.Technique{
		core.ProactivePrepending{Prepends: 3},
		core.ProactivePrepending{Prepends: 3, Scoped: true},
		core.ProactiveMED{},
	} {
		tech := tech
		b.Run(tech.Name(), func(b *testing.B) {
			var share, p50 float64
			for i := 0; i < b.N; i++ {
				w, err := experiment.NewWorld(sharedCfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.CDN.Deploy(tech); err != nil {
					b.Fatal(err)
				}
				w.Converge(3600)
				ok, n := 0, 0
				for _, st := range sel.Sites {
					s := w.CDN.Site(st.Code)
					for _, id := range st.NotAnycast {
						n++
						if w.CDN.CanSteer(id, s) {
							ok++
						}
					}
				}
				if n > 0 {
					share = float64(ok) / float64(n)
				}
				pairs, err := (&experiment.Runner{}).Figure2(sharedCfg, sel,
					[]core.Technique{tech}, benchSites[:1], benchFailover())
				if err != nil {
					b.Fatal(err)
				}
				p50 = pairs[0].Failover.Median()
			}
			b.ReportMetric(share, "steerable-share")
			b.ReportMetric(p50, "failover-p50-s")
		})
	}
}

// BenchmarkAblationCollectorPeers varies the number of collector peers and
// reports the Appendix A estimator error (DESIGN.md §6).
func BenchmarkAblationCollectorPeers(b *testing.B) {
	for _, peers := range []int{10, 30, 60} {
		b.Run(benchName("peers", float64(peers)), func(b *testing.B) {
			var estErr float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(7)
				cfg.CollectorPeers = peers
				res, err := experiment.Figure3(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				estErr = res.EstimatorError.Median()
			}
			b.ReportMetric(estErr, "estimator-error-p50-s")
		})
	}
}

// BenchmarkBGPConvergence measures the raw simulator: one full origination
// wave over the default ~900-AS topology.
func BenchmarkBGPConvergence(b *testing.B) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	prefix := core.SitePrefix(0)
	site := topo.NodeByName("cdn-ams")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(int64(i))
		net := bgp.New(sim, topo, bgp.DefaultConfig())
		net.Originate(site.ID, prefix, nil)
		sim.Run()
	}
}

// BenchmarkDataplaneForward measures FIB-walk forwarding over a converged
// network.
func BenchmarkDataplaneForward(b *testing.B) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sim := netsim.New(1)
	net := bgp.New(sim, topo, bgp.DefaultConfig())
	plane := dataplane.New(net)
	site := topo.NodeByName("cdn-atl")
	prefix := core.SitePrefix(3)
	net.Originate(site.ID, prefix, nil)
	sim.Run()
	addr := core.ServiceAddr(prefix)
	targets := topo.NodesOfClass(topology.ClassStub)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane.Forward(targets[i%len(targets)].ID, addr)
	}
}

// BenchmarkCollectorEstimator measures the Appendix A/B estimators over a
// recorded archive.
func BenchmarkCollectorEstimator(b *testing.B) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	sim := netsim.New(1)
	net := bgp.New(sim, topo, bgp.DefaultConfig())
	col := collector.New("rrc00")
	if err := col.Attach(net, collector.SelectPeers(topo, 40, 1)...); err != nil {
		b.Fatal(err)
	}
	site := topo.NodeByName("cdn-msn")
	prefix := core.SitePrefix(7)
	net.Originate(site.ID, prefix, nil)
	sim.Run()
	net.Withdraw(site.ID, prefix)
	sim.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := col.EstimateEventTime(prefix, bgp.Withdraw, 5, 20); !ok {
			b.Fatal("no burst")
		}
		col.ConvergenceTimes(prefix, 0, 1000)
	}
}

func benchName(prefix string, v float64) string {
	return prefix + "-" + itoa(int(v))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// shardBenchTopo generates the paper-scale topology (~3,500 ASes) shared by
// the sharded-convergence benchmarks.
func shardBenchTopo(b *testing.B) *topology.Topology {
	b.Helper()
	cfg := experiment.DefaultWorldConfig(experiment.WithPaperScale())
	cfg.Topology.Seed = cfg.Seed
	topo, err := topology.Cached(cfg.Topology)
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// shardedConverge builds one BGP network over topo at the given shard count,
// originates a deploy-like wave (every site announces its prefix at t=0),
// and drains the simulation to convergence. The network is returned so the
// caller can read post-convergence shard statistics.
func shardedConverge(b *testing.B, topo *topology.Topology, shards int, seed int64) *bgp.Network {
	b.Helper()
	sim := netsim.New(seed)
	var net *bgp.Network
	if shards > 1 {
		var err error
		net, err = bgp.NewSharded(sim, topo, bgp.DefaultConfig(), shards, seed)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		net = bgp.New(sim, topo, bgp.DefaultConfig())
	}
	for i, code := range topology.DefaultSiteCodes {
		site := topo.NodeByName("cdn-" + code)
		net.Originate(site.ID, core.SitePrefix(i), nil)
	}
	sim.Run()
	return net
}

// BenchmarkConvergenceSharded measures single-simulation BGP convergence at
// paper scale across shard counts. The shards=8 sub-benchmark also times one
// untimed shards=1 reference run and reports the wall-clock ratio as
// speedup-x.
func BenchmarkConvergenceSharded(b *testing.B) {
	topo := shardBenchTopo(b)
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var single float64
			if shards == 8 {
				t0 := time.Now()
				shardedConverge(b, topo, 1, 977)
				single = time.Since(t0).Seconds()
			}
			b.ResetTimer()
			t0 := time.Now()
			var last *bgp.Network
			for i := 0; i < b.N; i++ {
				last = shardedConverge(b, topo, shards, int64(i))
			}
			if shards == 8 {
				perOp := time.Since(t0).Seconds() / float64(b.N)
				b.ReportMetric(single/perOp, "speedup-x")
				// Event imbalance across the cost-model partition: max/mean
				// of per-shard executed events (the pre-partitioner BFS chunk
				// cut sat at ~1.41). bgp's TestStaticPartitionImbalance
				// carries the ceiling gate.
				counts := last.ShardEventCounts()
				var sum, max uint64
				for _, c := range counts {
					sum += c
					if c > max {
						max = c
					}
				}
				if sum > 0 {
					mean := float64(sum) / float64(len(counts))
					b.ReportMetric(float64(max)/mean, "event-imbalance-max-mean")
				}
			}
		})
	}
}

// BenchmarkReconvergeSharded times sharding's remaining customer, one big
// world's re-convergence after a fault: per iteration it builds the
// converged reactive-anycast world untimed (NewConvergedWorld), then times
// FailSite("atl") plus Converge. The sub-benchmarks cover paper and
// internet scale (≈ 1.6 GiB resident) at one and two shards; to compare
// shard counts, run one sub-benchmark per process with -benchtime 1x and
// alternate the order between pairs.
func BenchmarkReconvergeSharded(b *testing.B) {
	for _, sc := range []struct {
		name  string
		scale experiment.Option
	}{{"paper", experiment.WithPaperScale()}, {"internet", experiment.WithInternetScale()}} {
		for _, shards := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(b *testing.B) {
				cfg := experiment.DefaultWorldConfig(sc.scale, experiment.WithShards(shards))
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w, err := experiment.NewConvergedWorld(cfg, core.ReactiveAnycast{}, experiment.ConvergeTime)
					if err != nil {
						b.Fatal(err)
					}
					runtime.GC()
					b.StartTimer()
					if _, err := w.CDN.FailSite("atl"); err != nil {
						b.Fatal(err)
					}
					w.Converge(experiment.ConvergeTime)
				}
			})
		}
	}
}

// BenchmarkScenarioRegionalOutage measures a full scenario-engine run: the
// bundled correlated regional outage (slc, sea1, and sea2 fail together)
// against reactive-anycast, including probing and per-event analysis.
func BenchmarkScenarioRegionalOutage(b *testing.B) {
	sel := getSelection(b)
	sc := scenario.ByName("regional-outage")
	r := &experiment.Runner{}
	sco := experiment.DefaultScenarioConfig()
	sco.MaxTargetsPerSite = 8
	var last *scenario.Result
	for i := 0; i < b.N; i++ {
		res, err := r.RunScenario(benchConfig(1), sel, core.ReactiveAnycast{}, sc, sco)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Availability, "availability")
	b.ReportMetric(last.Events[0].Reconnection.P50, "regional-recon-p50-s")
}

// BenchmarkLoadAccounting measures one demand fold: the load accountant
// re-attributing every target's request rate to its live catchment on a
// converged demand-carrying world. Accountant.Record is the per-probe hot
// path (//cdnlint:allocfree); the fold must stay allocation-free after
// warm-up.
func BenchmarkLoadAccounting(b *testing.B) {
	cfg := benchConfig(1)
	experiment.WithDefaultDemand()(&cfg)
	w, err := experiment.NewConvergedWorld(cfg, core.Anycast{}, 3600)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.CDN.RefreshLoad()
	}
	b.ReportMetric(float64(len(w.Targets())), "targets-per-fold")
}
