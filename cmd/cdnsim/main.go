// Command cdnsim reproduces the paper's evaluation on the simulated
// Internet: each subcommand regenerates one figure or table.
//
// Usage:
//
//	cdnsim [flags] <command>
//
// Commands:
//
//	fig2         reconnection & failover CDFs per technique (§5.4.1, Figure 2)
//	table1       per-site traffic control under prepending (§5.4.2, Table 1)
//	table2       qualitative tradeoff matrix with measured medians (Table 2)
//	fig3         unicast withdrawal convergence, hypergiant vs testbed (Appendix A, Figure 3)
//	fig4         anycast announcement propagation (Appendix B, Figure 4)
//	fig5         prepend-3 vs prepend-5 failover (Appendix C.2, Figure 5)
//	c1           diverging-AS analysis for the pathological site (Appendix C.1)
//	unicast-dns  unicast failover gated by DNS TTL and violations (§2 context)
//	combined     reactive-anycast + superprefix ablation (§4)
//	scenario     declarative fault-injection timelines (flaps, link failures,
//	             partial and regional outages, drains, flash crowds); has its
//	             own flags — see cdnsim scenario -h
//	ctl          client for a running cdnsimd control-plane daemon: query
//	             state and post verified ChangeSets; see cdnsim ctl -h
//	load         demand, capacity, and per-site load under a technique:
//	             offered/served/shed tables and the load-shifting fixed point
//	             (default when -tech is given without a command)
//	fig2-sites   per-failed-site breakdown of Figure 2 for one technique
//	prepend-sweep control-vs-failover tradeoff across prepend depths 1-7 (§4)
//	validate     §5.1 criterion robustness and repeatability checks
//	all          everything above in paper order
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/obs"
	"bestofboth/internal/stats"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

type options struct {
	seed       int64
	targets    int
	maxTargets int
	duration   float64
	sites      string
	scale      string
	scaleF     float64
	shards     int
	tech       string
	demand     bool
	c1Site     string
	ttl        uint
	clients    int
	trials     int
	workers    int
	jsonOut    string
	metricsOut string
	pprofAddr  string
	progress   bool

	report *experiment.Report
	reg    *obs.Registry
}

func main() {
	opts := options{}
	flag.Int64Var(&opts.seed, "seed", 42, "simulation seed (identical seeds reproduce runs bit-for-bit)")
	flag.IntVar(&opts.targets, "targets", 200, "max targets selected per site (§5.1; paper uses 50K)")
	flag.IntVar(&opts.maxTargets, "probe-targets", 60, "max controllable targets probed per failover run")
	flag.Float64Var(&opts.duration, "probe-duration", 600, "seconds of probing after a failure (§5.2)")
	flag.StringVar(&opts.sites, "sites", strings.Join(topology.DefaultSiteCodes, ","), "comma-separated sites to fail")
	flag.StringVar(&opts.scale, "scale", "1", `topology scale factor (1 ≈ 900 ASes), "paper" (~4x topology, 50K-target selection), or "internet" (~81x topology, ≈72K ASes; budget ~4 GiB and pair with -shards)`)
	flag.IntVar(&opts.shards, "shards", 1,
		"BGP shard simulators per world (1 = classic single kernel; converged route/FIB state is bit-identical at any shard count, transient timings follow shard-local jitter)")
	flag.StringVar(&opts.tech, "tech", "",
		`comma-separated techniques for the load and fig2 commands: the paper's five, "load-shift", "load-shed", "load-shift+<base>", "combined", or "all"/"seven"; with no command, implies the load command`)
	flag.BoolVar(&opts.demand, "demand", false,
		"attach the default demand model (Pareto rates, 1.25x capacity headroom) to every world; adds user-weighted CDFs to fig2")
	flag.StringVar(&opts.c1Site, "c1-site", "sea1", "site analyzed by the c1 command")
	flag.UintVar(&opts.ttl, "ttl", 600, "DNS record TTL for unicast-dns (seconds)")
	flag.IntVar(&opts.clients, "clients", 2000, "client population for unicast-dns")
	flag.IntVar(&opts.trials, "trials", 3, "withdrawal/announcement trials per origin (fig3/fig4)")
	flag.IntVar(&opts.workers, "workers", runtime.NumCPU(),
		"concurrent failover runs (1 = sequential; results are identical at any worker count)")
	flag.StringVar(&opts.jsonOut, "json", "", "also write results as JSON to this file")
	flag.StringVar(&opts.metricsOut, "metrics", "",
		"write the final metric snapshot here (.json = JSON, otherwise Prometheus text)")
	flag.StringVar(&opts.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.BoolVar(&opts.progress, "progress", false, "print live run progress to stderr")
	flag.Parse()

	var err error
	if opts.scaleF, err = experiment.ParseScale(opts.scale); err != nil {
		fmt.Fprintf(os.Stderr, "cdnsim: -scale: %v\n", err)
		os.Exit(2)
	}
	if opts.scale == "paper" || opts.scale == "internet" {
		// The named presets also raise the selection cap to the paper's
		// 50K targets per site (§5.1), unless -targets was given explicitly.
		opts.applyPresetTargets()
	}
	if opts.shards < 1 {
		fmt.Fprintf(os.Stderr, "cdnsim: -shards must be >= 1, got %d\n", opts.shards)
		os.Exit(2)
	}

	// The registry is always live: instrumentation is pure counting, never
	// perturbs the simulation, and costs a few percent at most. -metrics
	// only controls whether the snapshot is written out.
	opts.reg = obs.NewRegistry()
	if opts.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(opts.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "cdnsim: pprof: %v\n", err)
			}
		}()
	}

	if flag.NArg() >= 1 && flag.Arg(0) == "ctl" {
		// The ctl subcommand is a pure HTTP client for a running cdnsimd
		// daemon and owns its trailing flags — see cdnsim ctl -h.
		if err := runCtlCmd(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
			if errors.Is(err, errReceiptFailed) {
				os.Exit(3)
			}
			os.Exit(1)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "scenario" {
		// The scenario subcommand owns its trailing flags and keeps stdout
		// deterministic (no wall-clock epilogue).
		if err := runScenarioCmd(flag.Args()[1:], opts); err != nil {
			fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() == 0 && opts.tech != "" {
		// `cdnsim -tech load-shift` with no command word inspects the
		// converged load state of the named techniques.
		if err := run("load", opts); err != nil {
			fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		names := []string{"scenario", "ctl"} // dispatched above; the rest by run
		for _, c := range commands {
			names = append(names, c.name)
		}
		fmt.Fprintf(os.Stderr, "usage: cdnsim [flags] <%s>\n", strings.Join(names, "|"))
		flag.PrintDefaults()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if err := run(cmd, opts); err != nil {
		fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
		os.Exit(1)
	}
}

// applyPresetTargets raises the selection cap to the paper's 50K targets
// per site for the named scale presets, unless -targets was given
// explicitly.
func (o *options) applyPresetTargets() {
	targetsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "targets" {
			targetsSet = true
		}
	})
	if !targetsSet {
		o.targets = experiment.PaperTargetsPerSite
	}
}

func (o options) worldConfig() experiment.WorldConfig {
	wopts := []experiment.Option{
		experiment.WithSeed(o.seed),
		experiment.WithScale(o.scaleF),
		experiment.WithShards(o.shards),
		experiment.WithWorkers(o.workers),
		experiment.WithObs(o.reg),
	}
	if o.demand {
		wopts = append(wopts, experiment.WithDefaultDemand())
	}
	return experiment.DefaultWorldConfig(wopts...)
}

// runner builds the experiment runner honoring -workers, sharing the
// process-wide registry, and reporting progress when -progress is set.
func (o options) runner() *experiment.Runner {
	r := o.worldConfig().Runner()
	if o.progress {
		r.Progress = progressPrinter()
	}
	return r
}

// progressPrinter returns a stderr progress callback, throttled by wall
// clock so tight matrices do not flood the terminal; the final update
// always prints. Runner serializes calls, so no locking is needed.
func progressPrinter() func(done, total int) {
	var last time.Time
	return func(done, total int) {
		now := time.Now()
		if done != total && now.Sub(last) < 100*time.Millisecond {
			return
		}
		last = now
		fmt.Fprintf(os.Stderr, "\rruns %d/%d", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// finish writes the optional metric snapshot and, when JSON output was
// requested, the per-run manifest describing the invocation.
func (o options) finish(command string, cfg experiment.WorldConfig) error {
	if o.jsonOut != "" {
		mp := experiment.ManifestPath(o.jsonOut)
		man := experiment.NewManifest(command, cfg, o.workers, o.reg)
		if o.metricsOut != "" {
			// Paper-scale runs record their memory footprint alongside the
			// metric snapshot: peak RSS and cumulative heap allocation.
			man.Mem = experiment.ReadMemFootprint()
		}
		if err := man.WriteFile(mp); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", mp)
	}
	if o.metricsOut != "" {
		if err := o.reg.WriteFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.metricsOut)
	}
	return nil
}

func (o options) failoverConfig() experiment.FailoverConfig {
	fc := experiment.DefaultFailoverConfig()
	fc.ProbeDuration = o.duration
	fc.MaxTargets = o.maxTargets
	return fc
}

func (o options) siteList() []string {
	var out []string
	for _, s := range strings.Split(o.sites, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// command is one command word run dispatches. needSel marks the commands
// that start from a §5.1 target selection (the others get a nil one).
type command struct {
	name    string
	needSel bool
	run     func(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error
}

// commands is the dispatch table, in usage order; the usage line prints
// its names, so a command cannot be dispatchable yet unlisted.
var commands = []command{
	{"fig2", true, func(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
		_, err := runFig2(cfg, sel, o, nil)
		return err
	}},
	{"table1", true, func(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
		_, err := runTable1(cfg, sel, o)
		return err
	}},
	{"table2", true, runTable2},
	{"fig3", false, runFig3},
	{"fig4", false, runFig4},
	{"fig5", true, runFig5},
	{"c1", true, runC1},
	{"unicast-dns", false, runUnicastDNS},
	{"combined", true, func(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
		_, err := runFig2(cfg, sel, o, []core.Technique{core.ReactiveAnycast{}, core.Combined{}})
		return err
	}},
	{"load", false, runLoad},
	{"fig2-sites", true, runFig2Sites},
	{"prepend-sweep", true, runPrependSweep},
	{"validate", true, runValidate},
	{"all", true, runAll},
}

func run(cmd string, o options) error {
	start := time.Now()
	var c *command
	for i := range commands {
		if commands[i].name == cmd {
			c = &commands[i]
			break
		}
	}
	if c == nil {
		return fmt.Errorf("unknown command %q", cmd)
	}
	if cmd == "load" {
		// The load command is meaningless without a demand model; force it
		// here (not inside runLoad) so the manifest's config digest and
		// DemandSummary describe the world actually run.
		o.demand = true
	}
	cfg := o.worldConfig()
	o.report = experiment.NewReport(o.seed)

	var sel *experiment.Selection
	if c.needSel {
		fmt.Printf("selecting targets (§5.1, seed=%d, cap=%d/site)...\n", o.seed, o.targets)
		var err error
		sel, err = experiment.SelectTargets(cfg, o.targets)
		if err != nil {
			return err
		}
		for _, st := range sel.Sites {
			fmt.Printf("  %-5s proximate=%4d not-routed-by-anycast=%4d\n",
				st.Code, len(st.Proximate), len(st.NotAnycast))
		}
	}

	if err := c.run(cfg, sel, o); err != nil {
		return err
	}
	if o.jsonOut != "" {
		if err := o.report.WriteFile(o.jsonOut); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", o.jsonOut)
	}
	if err := o.finish(cmd, cfg); err != nil {
		return err
	}
	fmt.Printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runTable2 regenerates Figure 2 and Table 1 and joins them into the
// qualitative tradeoff matrix.
func runTable2(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
	fig2, err := runFig2(cfg, sel, o, nil)
	if err != nil {
		return err
	}
	t1, err := runTable1(cfg, sel, o)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Table 2: technique tradeoffs ===")
	fmt.Println(experiment.RenderTable2(experiment.Table2(fig2, t1)))
	return nil
}

// runAll is the paper-order sweep: Figure 2, Tables 1 and 2, then the
// appendix figures and the unicast baseline.
func runAll(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
	for _, step := range []func(experiment.WorldConfig, *experiment.Selection, options) error{
		runTable2, runFig3, runFig4, runFig5, runC1, runUnicastDNS,
	} {
		if err := step(cfg, sel, o); err != nil {
			return err
		}
	}
	return nil
}

func runFig2(cfg experiment.WorldConfig, sel *experiment.Selection, o options, techs []core.Technique) ([]experiment.CDFPair, error) {
	if techs == nil && o.tech != "" {
		var err error
		if techs, err = core.TechniquesBySpec(o.tech); err != nil {
			return nil, err
		}
	}
	if techs == nil {
		techs = []core.Technique{
			core.ProactiveSuperprefix{},
			core.ReactiveAnycast{},
			core.ProactivePrepending{Prepends: 3},
			core.Anycast{},
		}
	}
	fmt.Println("\n=== Figure 2: reconnection and failover time per technique ===")
	pairs, err := o.runner().Figure2(cfg, sel, techs, o.siteList(), o.failoverConfig())
	if err != nil {
		return nil, err
	}
	printPairs(pairs, o.duration)
	if o.report != nil {
		o.report.Add("figure2", experiment.ExportPairs(pairs, 120))
	}
	return pairs, nil
}

func printPairs(pairs []experiment.CDFPair, xmax float64) {
	t := &stats.Table{Header: []string{
		"technique", "n", "recon p50", "recon p90", "failover p50", "failover p90", "failover p99",
	}}
	for _, p := range pairs {
		t.AddRow(p.Technique,
			fmt.Sprintf("%d", p.Failover.N()),
			fmt.Sprintf("%.1fs", p.Reconnection.Median()),
			fmt.Sprintf("%.1fs", p.Reconnection.Percentile(90)),
			fmt.Sprintf("%.1fs", p.Failover.Median()),
			fmt.Sprintf("%.1fs", p.Failover.Percentile(90)),
			fmt.Sprintf("%.1fs", p.Failover.Percentile(99)))
	}
	fmt.Println(t.Render())
	for _, p := range pairs {
		fmt.Print(p.Failover.Render(p.Technique+" failover", 1, xmax, 48))
	}
	fmt.Println("stability between reconnection and failover (§5.4.1):")
	for _, p := range pairs {
		st := p.Stability
		fmt.Printf("  %-25s median bounces %.0f, ≤2 bounces %s, no unreachability %s (n=%d)\n",
			p.Technique, st.MedianBounces, stats.Pct(st.BounceLE2Share), stats.Pct(st.NoGapShare), st.Reconnected)
	}
	anyUser := false
	for _, p := range pairs {
		if p.UserFailover != nil {
			anyUser = true
			break
		}
	}
	if anyUser {
		fmt.Println("user-weighted failover (each target counted by its demand, rps):")
		ut := &stats.Table{Header: []string{"technique", "demand rps", "user p50", "user p90", "user p99"}}
		for _, p := range pairs {
			if p.UserFailover == nil {
				continue
			}
			ut.AddRow(p.Technique,
				fmt.Sprintf("%.0f", p.UserFailover.TotalWeight()),
				fmt.Sprintf("%.1fs", p.UserFailover.Median()),
				fmt.Sprintf("%.1fs", p.UserFailover.Percentile(90)),
				fmt.Sprintf("%.1fs", p.UserFailover.Percentile(99)))
		}
		fmt.Println(ut.Render())
	}
}

// runLoad inspects the converged load state of each technique on a
// demand-carrying world: the per-site offered/served/shed table, the
// aggregate totals, and — for load shifting — whether the rebalance loop
// reached the Sinha et al. stable fixed point.
func runLoad(cfg experiment.WorldConfig, _ *experiment.Selection, o options) error {
	spec := o.tech
	if spec == "" {
		spec = "load-shift"
	}
	techs, err := core.TechniquesBySpec(spec)
	if err != nil {
		return err
	}
	if !cfg.Demand.Enabled {
		experiment.WithDefaultDemand()(&cfg)
	}
	fmt.Println("\n=== Load management: demand, capacity, and per-site load ===")
	for _, tech := range techs {
		w, err := experiment.NewConvergedWorld(cfg, tech, 3600)
		if err != nil {
			return err
		}
		m, acct := w.CDN.Demand(), w.CDN.Load()
		sum := m.Summary()
		fmt.Printf("\n--- %s ---\n", tech.Name())
		fmt.Printf("demand: %d targets, %.0f rps total (%s, Gini %.2f, top decile %s of demand), capacity %.0f rps\n",
			sum.Targets, sum.TotalRPS, sum.Distribution, sum.Gini, stats.Pct(sum.TopDecileShare), sum.CapacityRPS)
		t := &stats.Table{Header: []string{"site", "capacity rps", "offered rps", "served rps", "shed rps", "util"}}
		for i := 0; i < acct.NumSites(); i++ {
			t.AddRow(acct.SiteCode(i),
				fmt.Sprintf("%.0f", float64(acct.Capacity(i))/traffic.Micro),
				fmt.Sprintf("%.0f", float64(acct.Offered(i))/traffic.Micro),
				fmt.Sprintf("%.0f", float64(acct.Served(i))/traffic.Micro),
				fmt.Sprintf("%.0f", float64(acct.Shed(i))/traffic.Micro),
				fmt.Sprintf("%.2f", acct.Utilization(i)))
		}
		fmt.Println(t.Render())
		offered, served, shed := acct.Totals()
		fmt.Printf("totals: offered %.0f, served %.0f, shed %.0f, unserved %.0f rps\n",
			float64(offered)/traffic.Micro, float64(served)/traffic.Micro,
			float64(shed)/traffic.Micro, float64(acct.Unserved())/traffic.Micro)
		if reb, ok := tech.(core.Rebalancer); ok {
			// At the fixed point one more Rebalance is a no-op (returns
			// changed=false without touching announcements), so this is a
			// pure stability check.
			changed, err := reb.Rebalance(w.CDN)
			if err != nil {
				return err
			}
			switch {
			case changed:
				fmt.Println("fixed point: NOT stable — a further rebalance move exists")
			case acct.Overloaded():
				fmt.Println("fixed point: stable, but overload remains (no movable prefix can relieve it)")
			default:
				fmt.Println("fixed point: stable — no site above capacity, no further moves")
			}
		} else if acct.Overloaded() {
			fmt.Println("overload: at least one site above capacity")
		}
		if o.report != nil {
			type siteRow struct {
				Site     string  `json:"site"`
				Capacity float64 `json:"capacityRPS"`
				Offered  float64 `json:"offeredRPS"`
				Served   float64 `json:"servedRPS"`
				Shed     float64 `json:"shedRPS"`
				Util     float64 `json:"utilization"`
			}
			rows := make([]siteRow, 0, acct.NumSites())
			for i := 0; i < acct.NumSites(); i++ {
				rows = append(rows, siteRow{
					Site:     acct.SiteCode(i),
					Capacity: float64(acct.Capacity(i)) / traffic.Micro,
					Offered:  float64(acct.Offered(i)) / traffic.Micro,
					Served:   float64(acct.Served(i)) / traffic.Micro,
					Shed:     float64(acct.Shed(i)) / traffic.Micro,
					Util:     acct.Utilization(i),
				})
			}
			o.report.Add("load:"+tech.Name(), map[string]any{
				"demand":     sum,
				"sites":      rows,
				"overloaded": acct.Overloaded(),
			})
		}
	}
	return nil
}

func runTable1(cfg experiment.WorldConfig, sel *experiment.Selection, o options) ([]experiment.Table1Row, error) {
	fmt.Println("\n=== Table 1: traffic control under proactive-prepending ===")
	rows, err := experiment.Table1(cfg, sel)
	if err != nil {
		return nil, err
	}
	fmt.Println(experiment.RenderTable1(rows))
	if o.report != nil {
		o.report.Add("table1", rows)
	}
	return rows, nil
}

func runFig3(cfg experiment.WorldConfig, _ *experiment.Selection, o options) error {
	fmt.Println("\n=== Figure 3: unicast withdrawal convergence (Appendix A) ===")
	res, err := experiment.Figure3(cfg, o.trials)
	if err != nil {
		return err
	}
	if o.report != nil {
		o.report.Add("figure3", map[string]any{
			"hypergiant":     experiment.SummarizeCDF(res.Hypergiant, 120),
			"testbed":        experiment.SummarizeCDF(res.Testbed, 120),
			"estimatorError": experiment.SummarizeCDF(res.EstimatorError, 0),
		})
	}
	fmt.Print(res.Hypergiant.Render("hypergiant withdrawals", 1, 1000, 48))
	fmt.Print(res.Testbed.Render("testbed withdrawals", 1, 1000, 48))
	fmt.Printf("withdrawal-time estimator error: median %.1fs (paper validates ~10s)\n",
		res.EstimatorError.Median())
	return nil
}

func runFig4(cfg experiment.WorldConfig, _ *experiment.Selection, o options) error {
	fmt.Println("\n=== Figure 4: anycast announcement propagation (Appendix B) ===")
	res, err := experiment.Figure4(cfg, 2*o.trials, o.trials)
	if err != nil {
		return err
	}
	if o.report != nil {
		o.report.Add("figure4", map[string]any{
			"census":  experiment.SummarizeCDF(res.AnycastCensus, 120),
			"testbed": experiment.SummarizeCDF(res.Testbed, 120),
		})
	}
	fmt.Print(res.AnycastCensus.Render("anycast networks (census analogue)", 0.5, 100, 48))
	fmt.Print(res.Testbed.Render("testbed anycast", 0.5, 100, 48))
	return nil
}

func runFig5(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
	fmt.Println("\n=== Figure 5: prepend depth vs failover (Appendix C.2) ===")
	pairs, err := o.runner().Figure5(cfg, sel, o.siteList(), o.failoverConfig())
	if err != nil {
		return err
	}
	printPairs(pairs, o.duration)
	if o.report != nil {
		o.report.Add("figure5", experiment.ExportPairs(pairs, 120))
	}
	return nil
}

func runC1(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
	fmt.Printf("\n=== Appendix C.1: why control is poor at %s ===\n", o.c1Site)
	res, err := experiment.AppendixC1(cfg, sel, o.c1Site)
	if err != nil {
		return err
	}
	fmt.Println(experiment.RenderC1(o.c1Site, res))
	if w, werr := experiment.NewWorld(cfg); werr == nil {
		fmt.Println("example divergences:")
		fmt.Print(experiment.RenderC1Examples(w.Topo, res, 3))
	}
	if o.report != nil {
		o.report.Add("appendixC1", map[string]any{
			"site":                   o.c1Site,
			"compared":               res.Compared,
			"toIntended":             res.ToIntended,
			"diverged":               len(res.Diverged),
			"viaRE":                  res.ViaRE,
			"byRelationship":         res.ByRelationship,
			"relationshipComparable": res.RelationshipComparable,
		})
	}
	return nil
}

// runFig2Sites breaks Figure 2 down per failed site for reactive-anycast,
// exposing per-site heterogeneity the pooled CDFs hide.
func runFig2Sites(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
	fmt.Println("\n=== Figure 2 per-site breakdown (reactive-anycast) ===")
	fc := o.failoverConfig()
	t := &stats.Table{Header: []string{"failed site", "targets", "recon p50", "failover p50", "failover p90", "no-gap share"}}
	type siteOut struct {
		Site     string                    `json:"site"`
		Failover experiment.CDFSummary     `json:"failover"`
		Stats    experiment.StabilityStats `json:"stability"`
	}
	var exported []siteOut
	sites := o.siteList()
	matrix, err := o.runner().RunMatrix(cfg, sel, []core.Technique{core.ReactiveAnycast{}}, sites, fc)
	if err != nil {
		return err
	}
	for si, site := range sites {
		r := matrix[0][si]
		pair := experiment.Figure2Single(r, fc)
		st := pair.Stability
		t.AddRow(site,
			fmt.Sprintf("%d", r.Controllable),
			fmt.Sprintf("%.1fs", pair.Reconnection.Median()),
			fmt.Sprintf("%.1fs", pair.Failover.Median()),
			fmt.Sprintf("%.1fs", pair.Failover.Percentile(90)),
			stats.Pct(st.NoGapShare))
		exported = append(exported, siteOut{Site: site, Failover: experiment.SummarizeCDF(pair.Failover, 60), Stats: st})
	}
	fmt.Println(t.Render())
	if o.report != nil {
		o.report.Add("figure2PerSite", exported)
	}
	return nil
}

func runPrependSweep(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
	fmt.Println("\n=== Prepend-depth sweep: control vs failover (§4 tradeoff) ===")
	points, err := o.runner().PrependSweep(cfg, sel, []int{1, 2, 3, 4, 5, 7}, o.siteList(), o.failoverConfig())
	if err != nil {
		return err
	}
	fmt.Println(experiment.RenderSweep(points))
	if o.report != nil {
		o.report.Add("prependSweep", points)
	}
	return nil
}

func runValidate(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
	fmt.Println("\n=== Validation: §5.1 criterion robustness & repeatability ===")
	fc := o.failoverConfig()
	v, err := experiment.ValidateTargetCriterion(cfg, sel, core.ReactiveAnycast{}, o.siteList()[0], fc)
	if err != nil {
		return err
	}
	fmt.Printf("failover with §5.1 filter:    median %.1fs (n=%d)\n", v.Filtered.Median(), v.Filtered.N())
	fmt.Printf("failover without the filter:  median %.1fs (n=%d)\n", v.Unfiltered.Median(), v.Unfiltered.N())
	a, b, err := experiment.RepeatabilityCheck(cfg, core.ReactiveAnycast{}, o.siteList()[0], fc, o.targets)
	if err != nil {
		return err
	}
	fmt.Printf("repeat with different target set: median %.1fs vs %.1fs\n", a.Median(), b.Median())
	return nil
}

func runUnicastDNS(cfg experiment.WorldConfig, _ *experiment.Selection, o options) error {
	fmt.Println("\n=== Unicast baseline: DNS-gated failover (§2 context) ===")
	ucfg := experiment.DefaultUnicastDNSConfig()
	ucfg.TTL = uint32(o.ttl)
	ucfg.Clients = o.clients
	cdf, err := experiment.UnicastDNSFailover(cfg, ucfg)
	if err != nil {
		return err
	}
	fmt.Print(cdf.Render(fmt.Sprintf("unicast failover (TTL=%ds, violations per Allman'20)", o.ttl), 1, ucfg.Horizon, 48))
	if o.report != nil {
		o.report.Add("unicastDNS", experiment.SummarizeCDF(cdf, 120))
	}
	return nil
}
