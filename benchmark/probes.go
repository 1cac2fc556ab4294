package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/netip"
	"time"

	"bestofboth/internal/bgp"
	"bestofboth/internal/ctlplane"
	"bestofboth/internal/dns"
	"bestofboth/internal/experiment"
	"bestofboth/internal/iptrie"
	"bestofboth/internal/netsim"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
	"bestofboth/pkg/bestofboth/api"
)

// perLayer is reported by every traced run, in this order, and must match
// BENCHMARK.json's per_layer list (TestBenchmarkJSONMatchesTables). The
// prefix is the layer: a package under internal/, or process/trace for the
// harness's own view. *_per_op, queue_depth_max and snapshot_cache_hits are
// counts from the obs registry over the traced operations and repeat
// exactly for a seed; everything else is host time from the probes below.
var perLayer = []metricDef{
	{name: "topology.generate_ms", unit: "ms"},
	{name: "topology.clone_ms", unit: "ms"},
	{name: "netsim.event_ns", unit: "ns"},
	{name: "netsim.events_per_op", unit: "count"},
	{name: "netsim.queue_depth_max", unit: "count"},
	{name: "netsim.shard_rounds_per_op", unit: "count"},
	{name: "netsim.barrier_stall_ms_per_op", unit: "ms"},
	{name: "bgp.new_ms", unit: "ms"},
	{name: "bgp.plan_shards_ms", unit: "ms"},
	{name: "bgp.converge_ms", unit: "ms"},
	{name: "bgp.events_per_s", unit: "1/s"},
	{name: "bgp.updates_per_op", unit: "count"},
	{name: "bgp.allocs_per_update", unit: "count"},
	{name: "bgp.withdraw_converge_ms", unit: "ms"},
	{name: "bgp.route_digest_ms", unit: "ms"},
	{name: "bgp.shard_imbalance", unit: "ratio"},
	{name: "bgp.intershard_updates_per_op", unit: "count"},
	{name: "iptrie.lookup_ns", unit: "ns"},
	{name: "iptrie.insert_ns", unit: "ns"},
	{name: "dataplane.forward_ns", unit: "ns"},
	{name: "dataplane.forwards_per_op", unit: "count"},
	{name: "dataplane.fib_lookups_per_op", unit: "count"},
	{name: "dataplane.fib_updates_per_op", unit: "count"},
	{name: "dataplane.delivered_share", unit: "ratio"},
	{name: "dataplane.fib_digest_ms", unit: "ms"},
	{name: "dns.query_ns", unit: "ns"},
	{name: "dns.zone_updates_per_op", unit: "count"},
	{name: "core.deploy_ms", unit: "ms"},
	{name: "core.fail_site_ms", unit: "ms"},
	{name: "core.recover_site_ms", unit: "ms"},
	{name: "core.refresh_load_ms", unit: "ms"},
	{name: "core.catchment_ns", unit: "ns"},
	{name: "traffic.new_model_ms", unit: "ms"},
	{name: "traffic.folds_per_op", unit: "count"},
	{name: "collector.records_per_op", unit: "count"},
	{name: "scenario.apply_events_ms", unit: "ms"},
	{name: "experiment.select_targets_ms", unit: "ms"},
	{name: "experiment.new_world_ms", unit: "ms"},
	{name: "experiment.snapshot_ms", unit: "ms"},
	{name: "experiment.restore_ms", unit: "ms"},
	{name: "experiment.snapshot_build_ms", unit: "ms"},
	{name: "experiment.materialize_ms", unit: "ms"},
	{name: "experiment.run_ms", unit: "ms"},
	{name: "experiment.snapshot_cache_hits", unit: "count"},
	{name: "ctlplane.new_server_ms", unit: "ms"},
	{name: "ctlplane.state_of_ms", unit: "ms"},
	{name: "ctlplane.http_floor_ms", unit: "ms"},
	{name: "ctlplane.dryrun_ms_p50", unit: "ms"},
	{name: "ctlplane.dryrun_self_ms", unit: "ms"},
	{name: "ctlplane.execute_ms_p50", unit: "ms"},
	{name: "ctlplane.execute_ms_p85", unit: "ms"},
	{name: "ctlplane.read_state_ms_p50", unit: "ms"},
	{name: "ctlplane.read_catchments_ms_p50", unit: "ms"},
	{name: "ctlplane.response_kb", unit: "kB"},
	{name: "process.peak_rss_mb", unit: "MB"},
	{name: "process.gc_cpu_share", unit: "ratio"},
	{name: "process.mallocs_per_op", unit: "count"},
	{name: "trace.op_ms_p50", unit: "ms"},
}

// prober runs the per-layer probes: direct calls into each layer's exported
// functions on one converged default-scale world (and, for the daemon, one
// server over it), after the timed operations, so every workload's traced
// run prices the layers the same way. The first error sticks and later
// probes are skipped.
type prober struct {
	e    *env
	vals map[string]float64
	err  error
}

// ms records the median duration of n spans of fn under the metric's name.
func (p *prober) ms(metric, spanName string, n int, fn func() error) {
	if p.err != nil {
		return
	}
	var ds []float64
	for i := 0; i < n && p.err == nil; i++ {
		ds = append(ds, p.e.tr.spanMs(spanName, func() {
			if err := fn(); err != nil {
				p.err = fmt.Errorf("%s: %w", spanName, err)
			}
		}))
	}
	p.vals[metric] = median(ds)
}

// ns records the mean cost of one of calls invocations made by fn.
func (p *prober) ns(metric, spanName string, calls int, fn func()) {
	if p.err != nil {
		return
	}
	p.vals[metric] = 1e6 * p.e.tr.spanMs(spanName, fn) / float64(calls)
}

// reps scales a repetition count down to 1 on -quick runs.
func (p *prober) reps(n int) int {
	if p.e.quick {
		return 1
	}
	return n
}

func runProbes(e *env) (map[string]float64, error) {
	p := &prober{e: e, vals: map[string]float64{}}
	e.tr.span("harness.probes", func() {
		p.topology()
		p.kernel()
		if w := p.world(); w != nil {
			p.lookups(w)
			p.faults(w)
			p.daemon(w)
		}
	})
	return p.vals, p.err
}

func (p *prober) topology() {
	gc := experiment.DefaultWorldConfig(p.e.scale(experiment.PaperScale)).Topology
	gc.Seed = p.e.seed
	p.ms("topology.generate_ms", "topology.Generate", p.reps(3), func() error {
		_, err := topology.Generate(gc)
		return err
	})
	if _, err := topology.Cached(gc); err != nil && p.err == nil {
		p.err = err
	}
	p.ms("topology.clone_ms", "topology.Cached", p.reps(5), func() error {
		_, err := topology.Cached(gc)
		return err
	})
}

// kernel prices one calendar-queue push+pop: a million no-op events in ten
// batches, nine in ten inside the 64 s calendar ring and the rest beyond it
// in the overflow heap.
func (p *prober) kernel() {
	const batches, perBatch = 10, 100_000
	n := perBatch
	if p.e.quick {
		n = 1000
	}
	sim := netsim.New(p.e.seed)
	rng := rand.New(rand.NewSource(p.e.seed))
	offsets := make([]float64, n)
	for i := range offsets {
		if i%10 == 9 {
			offsets[i] = 64 + rng.Float64()*3600
		} else {
			offsets[i] = rng.Float64() * 60
		}
	}
	noop := func(any) {}
	p.ns("netsim.event_ns", "netsim.AtCall+Run", batches*n, func() {
		for b := 0; b < batches; b++ {
			now := sim.Now()
			for _, off := range offsets {
				sim.AtCall(now+off, noop, nil)
			}
			sim.Run()
		}
	})
}

// probeConfig is the probes' world: the daemon's default world for the
// run's seed.
func (p *prober) probeConfig(opts ...experiment.Option) experiment.WorldConfig {
	return experiment.DefaultWorldConfig(append([]experiment.Option{
		experiment.WithSeed(p.e.seed), p.e.scale(1), experiment.WithDefaultDemand(),
	}, opts...)...)
}

// world prices construction, deploy and converge layer by layer and
// returns the converged world the remaining probes read.
func (p *prober) world() *experiment.World {
	cfg := p.probeConfig()
	topoCfg := cfg.Topology
	topoCfg.Seed = cfg.Seed
	var bgpNewMs, planMs []float64
	for i := 0; i < p.reps(3) && p.err == nil; i++ {
		var topo *topology.Topology
		if topo, p.err = topology.Cached(topoCfg); p.err != nil {
			return nil
		}
		bgpNewMs = append(bgpNewMs, p.e.tr.spanMs("bgp.New", func() { bgp.New(netsim.New(cfg.Seed), topo, bgp.DefaultConfig()) }))
		planMs = append(planMs, p.e.tr.spanMs("bgp.PlanShards", func() { bgp.PlanShards(topo, 2, cfg.Seed) }))
	}
	p.vals["bgp.new_ms"] = median(bgpNewMs)
	p.vals["bgp.plan_shards_ms"] = median(planMs)

	var w *experiment.World
	var newMs, deployMs, convMs []float64
	for i := 0; i < p.reps(3) && p.err == nil; i++ {
		newMs = append(newMs, p.e.tr.spanMs("experiment.NewWorld", func() { w, p.err = experiment.NewWorld(cfg) }))
		if p.err != nil {
			return nil
		}
		deployMs = append(deployMs, p.e.tr.spanMs("core.Deploy", func() { p.err = w.CDN.Deploy(technique) }))
		convMs = append(convMs, p.e.tr.spanMs("bgp.Converge", func() { w.Converge(convergeBound) }))
	}
	if p.err != nil {
		return nil
	}
	p.vals["experiment.new_world_ms"] = median(newMs)
	p.vals["core.deploy_ms"] = median(deployMs)
	p.vals["bgp.converge_ms"] = median(convMs)

	p.ms("experiment.select_targets_ms", "experiment.SelectTargets", p.reps(2), func() error {
		_, err := experiment.SelectTargets(cfg, fig2SelectPerSite)
		return err
	})

	// Shard balance: the same world on two kernels, max over mean of the
	// events each shard executed.
	sharded, err := experiment.NewConvergedWorld(p.probeConfig(experiment.WithShards(2)), technique, convergeBound)
	if err != nil {
		p.err = err
		return nil
	}
	var maxEv, total float64
	counts := sharded.Net.ShardEventCounts()
	for _, c := range counts {
		total += float64(c)
		maxEv = max(maxEv, float64(c))
	}
	if total > 0 {
		p.vals["bgp.shard_imbalance"] = maxEv * float64(len(counts)) / total
	}
	return w
}

// lookups prices the read-only hot paths on the converged world: digests,
// forwarding, catchments, the trie under both, DNS, and the load model.
func (p *prober) lookups(w *experiment.World) {
	p.ms("bgp.route_digest_ms", "bgp.RouteStateDigest", p.reps(5), func() error { w.Net.RouteStateDigest(); return nil })
	p.ms("dataplane.fib_digest_ms", "dataplane.FIBDigest", p.reps(5), func() error { w.Plane.FIBDigest(); return nil })
	p.ms("ctlplane.state_of_ms", "ctlplane.StateOf", p.reps(5), func() error { ctlplane.StateOf(w); return nil })
	p.ms("core.refresh_load_ms", "core.RefreshLoad", p.reps(5), func() error { w.CDN.RefreshLoad(); return nil })

	targets, sites := w.Targets(), w.CDN.Sites()
	rounds := p.reps(10)
	p.ns("dataplane.forward_ns", "dataplane.Forward", rounds*len(targets)*len(sites), func() {
		for r := 0; r < rounds; r++ {
			for _, t := range targets {
				for _, s := range sites {
					w.Plane.Forward(t.ID, s.Addr)
				}
			}
		}
	})
	p.ns("core.catchment_ns", "core.CatchmentOf", rounds*len(targets)*len(sites), func() {
		for r := 0; r < rounds; r++ {
			for _, t := range targets {
				for _, s := range sites {
					w.CDN.CatchmentOf(t.ID, s.Addr)
				}
			}
		}
	})

	// The trie as the data plane loads it: one /24 per client target.
	rounds = p.reps(100)
	var trie *iptrie.Trie[int]
	p.ns("iptrie.insert_ns", "iptrie.Insert", rounds*len(targets), func() {
		for r := 0; r < rounds; r++ {
			trie = iptrie.New[int]()
			for i, t := range targets {
				if err := trie.Insert(t.Prefix, i); err != nil {
					p.err = err
					return
				}
			}
		}
	})
	addrs := make([]netip.Addr, len(targets))
	for i, t := range targets {
		addrs[i] = t.Prefix.Addr().Next()
	}
	p.ns("iptrie.lookup_ns", "iptrie.Lookup", rounds*len(addrs), func() {
		for r := 0; r < rounds; r++ {
			for _, a := range addrs {
				trie.Lookup(a)
			}
		}
	})

	auth := w.CDN.Authoritative()
	query, err := (&dns.Message{
		Header:   dns.Header{ID: 1},
		Question: []dns.Question{{Name: "www." + auth.Origin(), Type: dns.TypeA}},
	}).Encode()
	if err != nil && p.err == nil {
		p.err = err
	}
	queries := p.reps(20_000)
	p.ns("dns.query_ns", "dns.HandleQuery", queries, func() {
		for i := 0; i < queries; i++ {
			if _, err := auth.HandleQuery(query); err != nil {
				p.err = err
				return
			}
		}
	})

	codes := make([]string, len(sites))
	for i, s := range sites {
		codes[i] = s.Code
	}
	p.ms("traffic.new_model_ms", "traffic.NewModel", p.reps(5), func() error {
		_, err := traffic.NewModel(w.Cfg.Demand, w.Cfg.Seed, targets, codes)
		return err
	})
}

// faults prices snapshot, restore and one site's failure and recovery on
// restored copies, the steps a Figure 2 run and a ChangeSet both take.
func (p *prober) faults(w *experiment.World) {
	var snap *experiment.WorldSnapshot
	p.ms("experiment.snapshot_ms", "experiment.Snapshot", p.reps(5), func() (err error) {
		snap, err = w.Snapshot()
		return err
	})
	var scratch *experiment.World
	p.ms("experiment.restore_ms", "experiment.RestoreWorld", p.reps(5), func() (err error) {
		scratch, err = experiment.RestoreWorld(snap)
		return err
	})
	if p.err != nil {
		return
	}
	var failMs, withdrawMs, recoverMs, applyMs []float64
	for i, s := range w.CDN.Sites() {
		if i >= p.reps(3) {
			break
		}
		failMs = append(failMs, p.e.tr.spanMs("core.FailSite", func() { _, p.err = scratch.CDN.FailSite(s.Code) }))
		withdrawMs = append(withdrawMs, p.e.tr.spanMs("bgp.Converge", func() { scratch.Converge(convergeBound) }))
		recoverMs = append(recoverMs, p.e.tr.spanMs("core.RecoverSite", func() { _, p.err = scratch.CDN.RecoverSite(s.Code) }))
		scratch.Converge(convergeBound)
		if p.err != nil {
			return
		}
		if scratch, p.err = experiment.RestoreWorld(snap); p.err != nil {
			return
		}
		applyMs = append(applyMs, p.e.tr.spanMs("scenario.ApplyEvents", func() {
			p.err = scenario.ApplyEvents(scenarioEnv(scratch), []scenario.Event{{Kind: scenario.KindDrain, Site: s.Code}})
		}))
		scratch.Converge(convergeBound)
	}
	p.vals["core.fail_site_ms"] = median(failMs)
	p.vals["bgp.withdraw_converge_ms"] = median(withdrawMs)
	p.vals["core.recover_site_ms"] = median(recoverMs)
	p.vals["scenario.apply_events_ms"] = median(applyMs)
}

func scenarioEnv(w *experiment.World) *scenario.Env {
	return &scenario.Env{Sim: w.Sim, Topo: w.Topo, Net: w.Net, Plane: w.Plane, CDN: w.CDN}
}

// daemon prices the control plane over loopback HTTP and then replays one
// dry run through the same exported calls the handler makes, so the part
// of a dry run no layer below accounts for (dryrun_self_ms: JSON, HTTP,
// deltas) is what is left.
func (p *prober) daemon(w *experiment.World) {
	if p.err != nil {
		return
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var slot *daemonSlot
	p.ms("ctlplane.new_server_ms", "harness.startDaemon", p.reps(3), func() (err error) {
		if slot != nil {
			slot.ts.Close()
		}
		probe := *p.e
		probe.reg = nil // the probes' server must not add to the workload's counts
		slot, err = startDaemon(&probe, client, p.e.seed)
		return err
	})
	if p.err != nil {
		return
	}
	defer slot.ts.Close()
	d := &daemon{e: p.e, client: client}

	get := func(path string, out any) func() error {
		return func() error {
			_, err := call(client, http.MethodGet, slot.ts.URL+path, nil, out)
			return err
		}
	}
	p.ms("ctlplane.http_floor_ms", "ctlplane.GET/healthz", p.reps(50), func() error {
		resp, err := client.Get(slot.ts.URL + "/healthz")
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	p.ms("ctlplane.read_state_ms_p50", "ctlplane.GET/v1/state", p.reps(10), get("/v1/state", new(api.WorldState)))
	p.ms("ctlplane.read_catchments_ms_p50", "ctlplane.GET/v1/catchments", p.reps(20), get("/v1/catchments", new(api.Catchments)))

	var execMs []float64
	for i := 0; i < p.reps(5) && p.err == nil; i++ {
		for _, kind := range []string{"drain", "recover"} {
			start := time.Now()
			cs, err := d.changeSet(slot, kind, slot.sites[i%len(slot.sites)], true)
			execMs = append(execMs, msSince(start))
			if err == nil {
				err = checkExecuted(cs)
			}
			if err != nil && p.err == nil {
				p.err = err
			}
		}
	}
	p.vals["ctlplane.execute_ms_p50"] = median(execMs)
	p.vals["ctlplane.execute_ms_p85"] = percentile(execMs, 85)

	// A dry run over HTTP, then the handler's steps replayed on the probes'
	// own world — paired, so a slow stretch of the machine hits both sides
	// of the difference.
	site := slot.sites[0]
	var dryMs, selfMs []float64
	pairs, executeBytes := p.reps(10), d.bytes
	for i := 0; i < pairs && p.err == nil; i++ {
		dry := p.e.tr.spanMs("ctlplane.dryrun", func() { _, p.err = d.changeSet(slot, "drain", site, false) })
		replay := p.e.tr.spanMs("ctlplane.dryrun-replay", func() {
			var snap *experiment.WorldSnapshot
			var scratch *experiment.World
			p.e.tr.span("ctlplane.StateOf", func() { ctlplane.StateOf(w) })
			p.e.tr.span("experiment.Snapshot", func() { snap, p.err = w.Snapshot() })
			if p.err != nil {
				return
			}
			p.e.tr.span("experiment.RestoreWorld", func() { scratch, p.err = experiment.RestoreWorld(snap) })
			if p.err != nil {
				return
			}
			p.e.tr.span("scenario.ApplyEvents", func() {
				p.err = scenario.ApplyEvents(scenarioEnv(scratch), []scenario.Event{{Kind: scenario.KindDrain, Site: site}})
			})
			p.e.tr.span("bgp.Converge", func() { scratch.Converge(convergeBound) })
			p.e.tr.span("core.RefreshLoad", func() { scratch.CDN.RefreshLoad() })
			p.e.tr.span("ctlplane.StateOf", func() { ctlplane.StateOf(scratch) })
		})
		dryMs = append(dryMs, dry)
		selfMs = append(selfMs, dry-replay)
	}
	p.vals["ctlplane.dryrun_ms_p50"] = median(dryMs)
	p.vals["ctlplane.dryrun_self_ms"] = median(selfMs)
	p.vals["ctlplane.response_kb"] = float64(d.bytes-executeBytes) / float64(pairs) / 1024
}
