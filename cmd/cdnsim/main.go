// Command cdnsim reproduces the paper's evaluation on the simulated
// Internet and operates its control plane. Each figure or table command
// regenerates one result of the paper; scenario runs fault-injection
// timelines, serve runs the control-plane daemon, ctl drives it, and topo
// inspects the synthetic Internet.
//
// Usage:
//
//	cdnsim <command> [flags]
//
// `cdnsim -h` lists the commands and `cdnsim <command> -h` the flags one
// command reads. A command registers only the flags it reads, so a flag it
// would ignore is refused as bad usage.
//
// Exit status: 0 on success, 1 when the command fails, 2 on bad usage, and
// 3 when ctl executed a ChangeSet whose verification receipt failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/obs"
	"bestofboth/internal/stats"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// options holds every flag value; a command's flag set points into it.
type options struct {
	// World.
	seed   int64
	scale  string
	scaleF float64 // -scale resolved by check
	shards int
	demand bool
	// Output.
	jsonOut, metricsOut, pprofAddr string
	// Matrix.
	workers  int
	progress bool
	// Selection and probing.
	targets, maxTargets int
	duration            float64
	sites, tech         string
	// One command's own.
	c1Site            string  // c1
	ttl               uint    // unicast-dns
	clients           int     // unicast-dns
	trials            int     // fig3, fig4
	file, name        string  // scenario
	list, monitor     bool    // scenario
	addr              string  // serve, ctl
	execute, sabotage bool    // ctl
	drainFor          float64 // ctl
	testSabotage      bool    // serve
	attachments       bool    // topo

	cmd    string   // the command word
	args   []string // positional arguments (ctl)
	report *experiment.Report
	reg    *obs.Registry
}

// declareFlags declares every flag exactly once, on a catalog set from
// which each command copies the flags it reads.
func (o *options) declareFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("cdnsim", flag.ContinueOnError)

	// World: what every simulated world is built from.
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed (identical seeds reproduce runs bit-for-bit)")
	fs.StringVar(&o.scale, "scale", "1", `topology scale factor (1 ≈ 900 ASes), "paper" (~4x topology, 50K-target selection), or "internet" (~81x topology, ≈72K ASes; budget ~4 GiB and pair with -shards)`)
	fs.IntVar(&o.shards, "shards", 1,
		"BGP shard simulators per world (1 = classic single kernel; converged route/FIB state is bit-identical at any shard count, transient timings follow shard-local jitter)")
	fs.BoolVar(&o.demand, "demand", false,
		"attach the default demand model (Pareto rates, 1.25x capacity headroom) to every world; adds user-weighted CDFs to fig2")

	// Output.
	fs.StringVar(&o.jsonOut, "json", "", "also write results as JSON to this file (plus a .manifest.json sidecar)")
	fs.StringVar(&o.metricsOut, "metrics", "",
		"write the final metric snapshot here (.json = JSON, otherwise Prometheus text)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

	// Matrix: how a run matrix is executed (never what it computes).
	fs.IntVar(&o.workers, "workers", 0,
		"concurrent runs (0 = one per CPU, 1 = sequential; results are identical at any worker count)")
	fs.BoolVar(&o.progress, "progress", false, "print live run progress to stderr")

	// Selection and probing.
	fs.IntVar(&o.targets, "targets", 200, "max targets selected per site (§5.1; paper uses 50K)")
	fs.IntVar(&o.maxTargets, "probe-targets", 60, "max targets probed per failover run (scenario: per site group)")
	fs.Float64Var(&o.duration, "probe-duration", 600, "seconds of probing after a failure (§5.2)")
	fs.StringVar(&o.sites, "sites", strings.Join(topology.DefaultSiteCodes, ","), "comma-separated sites to fail")
	fs.StringVar(&o.tech, "tech", "",
		`comma-separated techniques: the paper's five, "load-shift", "load-shed", "load-shift+<base>", "combined", or "all"/"seven" (serve deploys exactly one; empty runs the command's default set)`)

	// Flags of one command each.
	fs.StringVar(&o.c1Site, "c1-site", "sea1", "site analyzed by c1")
	fs.UintVar(&o.ttl, "ttl", 600, "DNS record TTL for unicast-dns (seconds)")
	fs.IntVar(&o.clients, "clients", 2000, "client population for unicast-dns")
	fs.IntVar(&o.trials, "trials", 3, "withdrawal/announcement trials per origin (fig3/fig4)")
	fs.StringVar(&o.file, "f", "", "JSON scenario file to run")
	fs.StringVar(&o.name, "name", "", "bundled scenario to run (see -list)")
	fs.BoolVar(&o.list, "list", false, "list the bundled scenarios and exit")
	fs.BoolVar(&o.monitor, "monitor", false, "run the probing health monitor (detects silent crashes)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8316",
		"daemon address: serve listens on it (port 0 picks a free port), ctl connects to it (host:port or http:// URL)")
	fs.BoolVar(&o.execute, "x", false, "execute the changeset on the live world (default: dry-run only)")
	fs.BoolVar(&o.sabotage, "sabotage", false, "ask a -test-sabotage daemon to diverge the execution (the receipt must then fail)")
	fs.Float64Var(&o.drainFor, "drain-for", 600, "drain duration in virtual seconds for the drain command")
	fs.BoolVar(&o.testSabotage, "test-sabotage", false, "enable ?sabotage=true on execution: silently fail a healthy site's forwarding after executing, so the verification receipt must fail (testing the verifier, not the network)")
	fs.BoolVar(&o.attachments, "attachments", false, "also list each CDN site's neighbors")
	return fs
}

// Flag groups several commands read together.
var (
	worldFlags  = []string{"seed", "scale", "shards", "demand"}
	outputFlags = []string{"json", "metrics", "pprof"}
	matrixFlags = []string{"workers", "progress"}
	probeFlags  = []string{"targets", "probe-targets", "probe-duration", "sites"}
)

// command is one command word. flags names the catalog flags its run
// function reads (and so the only ones it accepts); defaults overrides
// catalog defaults as "name=value" before parsing.
type command struct {
	name     string
	doc      string // first line: the summary cdnsim -h prints
	args     string // positional-argument synopsis; "" = none accepted
	flags    []string
	defaults []string
	run      func(o *options) error
}

// commands is the dispatch table, in usage order; cdnsim -h prints it, so
// a command cannot be dispatchable yet unlisted.
var commands = []command{
	{name: "fig2", doc: "reconnection & failover CDFs per technique (§5.4.1, Figure 2)",
		flags: slices.Concat(worldFlags, outputFlags, matrixFlags, probeFlags, []string{"tech"}),
		run: figure(true, func(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
			_, err := runFig2(cfg, sel, o, nil)
			return err
		})},
	{name: "table1", doc: "per-site traffic control under prepending (§5.4.2, Table 1)",
		flags: slices.Concat(worldFlags, outputFlags, []string{"targets"}),
		run: figure(true, func(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
			_, err := runTable1(cfg, sel, o)
			return err
		})},
	{name: "table2", doc: "qualitative tradeoff matrix with measured medians (Table 2)",
		flags: slices.Concat(worldFlags, outputFlags, matrixFlags, probeFlags, []string{"tech"}),
		run:   figure(true, runTable2)},
	{name: "fig3", doc: "unicast withdrawal convergence, hypergiant vs testbed (Appendix A, Figure 3)",
		flags: slices.Concat(worldFlags, outputFlags, []string{"trials"}),
		run:   figure(false, runFig3)},
	{name: "fig4", doc: "anycast announcement propagation (Appendix B, Figure 4)",
		flags: slices.Concat(worldFlags, outputFlags, []string{"trials"}),
		run:   figure(false, runFig4)},
	{name: "fig5", doc: "prepend-3 vs prepend-5 failover (Appendix C.2, Figure 5)",
		flags: slices.Concat(worldFlags, outputFlags, matrixFlags, probeFlags),
		run:   figure(true, runFig5)},
	{name: "c1", doc: "diverging-AS analysis for the pathological site (Appendix C.1)",
		flags: slices.Concat(worldFlags, outputFlags, []string{"targets", "c1-site"}),
		run:   figure(true, runC1)},
	{name: "unicast-dns", doc: "unicast failover gated by DNS TTL and violations (§2 context)",
		flags: slices.Concat(worldFlags, outputFlags, []string{"ttl", "clients"}),
		run:   figure(false, runUnicastDNS)},
	{name: "combined", doc: "reactive-anycast + superprefix ablation (§4)",
		flags: slices.Concat(worldFlags, outputFlags, matrixFlags, probeFlags),
		run: figure(true, func(cfg experiment.WorldConfig, sel *experiment.Selection, o options) error {
			_, err := runFig2(cfg, sel, o, []core.Technique{core.ReactiveAnycast{}, core.Combined{}})
			return err
		})},
	{name: "load", doc: "offered/served/shed load per site and the load-shifting fixed point",
		// Load is meaningless without a demand model, so -demand is forced
		// (not accepted): the manifest's config digest and DemandSummary
		// then describe the world actually run.
		flags: slices.Concat([]string{"seed", "scale", "shards"}, outputFlags, []string{"tech"}), defaults: []string{"demand=true", "tech=load-shift"},
		run: figure(false, runLoad)},
	{name: "fig2-sites", doc: "per-failed-site breakdown of Figure 2 for reactive-anycast",
		flags: slices.Concat(worldFlags, outputFlags, matrixFlags, probeFlags),
		run:   figure(true, runFig2Sites)},
	{name: "prepend-sweep", doc: "control-vs-failover tradeoff across prepend depths 1-7 (§4)",
		flags: slices.Concat(worldFlags, outputFlags, matrixFlags, probeFlags),
		run:   figure(true, runPrependSweep)},
	{name: "validate", doc: "§5.1 criterion robustness and repeatability checks (on the first of -sites)",
		flags: slices.Concat(worldFlags, outputFlags, probeFlags),
		run:   figure(true, runValidate)},
	{name: "all", doc: "table2, fig3, fig4, fig5, c1 and unicast-dns in paper order",
		flags: slices.Concat(worldFlags, outputFlags, matrixFlags, probeFlags, []string{"tech", "c1-site", "ttl", "clients", "trials"}),
		run:   figure(true, runAll)},
	{name: "scenario", doc: "fault-injection timelines: flaps, link failures, outages, drains, flash crowds\n\n" + scenarioDoc,
		flags:    slices.Concat(worldFlags, outputFlags, matrixFlags, []string{"targets", "probe-targets", "tech", "f", "name", "list", "monitor"}),
		defaults: []string{"probe-targets=12", "tech=reactive-anycast"},
		run:      runScenario},
	{name: "serve", doc: "the control-plane daemon: one converged world behind the v1 HTTP/JSON API\n\n" + serveDoc,
		flags:    slices.Concat(worldFlags, []string{"tech", "addr", "test-sabotage"}),
		defaults: []string{"tech=reactive-anycast"},
		run:      runServe},
	{name: "ctl", args: "<command> [args]", doc: "client for a running serve daemon: query state and post verified ChangeSets\n\n" + ctlDoc,
		flags: []string{"addr", "x", "sabotage", "drain-for"},
		run:   runCtl},
	{name: "topo", doc: "summary statistics of the synthetic Internet a world is built on",
		flags: []string{"seed", "scale", "attachments"},
		run:   runTopo},
}

func main() { os.Exit(cli(os.Args[1:])) }

// cli runs one invocation and returns its exit status.
func cli(args []string) int {
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage()
		if len(args) == 0 {
			return 2
		}
		return 0
	}
	var c *command
	for i := range commands {
		if commands[i].name == args[0] {
			c = &commands[i]
		}
	}
	if c == nil {
		if strings.HasPrefix(args[0], "-") {
			fmt.Fprintf(os.Stderr, "cdnsim: flags follow the command: cdnsim <command> [flags]\n")
		} else {
			fmt.Fprintf(os.Stderr, "cdnsim: unknown command %q\n", args[0])
		}
		usage()
		return 2
	}

	// The registry is always live: instrumentation is pure counting, never
	// perturbs the simulation, and costs a few percent at most. -metrics
	// only controls whether the snapshot is written out.
	o := &options{cmd: c.name, reg: obs.NewRegistry()}
	fs := o.flagSet(c)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.check(c, fs); err != nil {
		fmt.Fprintf(os.Stderr, "cdnsim %s: %v\n", c.name, err)
		return 2
	}

	if o.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "cdnsim: pprof: %v\n", err)
			}
		}()
	}
	if err := c.run(o); err != nil {
		fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
		if errors.Is(err, errReceiptFailed) {
			return 3
		}
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cdnsim <command> [flags]\n\ncommands:")
	for _, c := range commands {
		summary, _, _ := strings.Cut(c.doc, "\n")
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", c.name, summary)
	}
	fmt.Fprintln(os.Stderr, "\nRun `cdnsim <command> -h` for the flags a command reads.")
}

// flagSet applies the command's defaults to the catalog and copies the
// flags the command reads into its own set. It panics when the commands
// table names an undeclared flag.
func (o *options) flagSet(c *command) *flag.FlagSet {
	catalog := o.declareFlags()
	for _, d := range c.defaults {
		name, value, _ := strings.Cut(d, "=")
		if err := catalog.Set(name, value); err != nil {
			panic(fmt.Sprintf("command %s: default %s: %v", c.name, d, err))
		}
	}
	fs := flag.NewFlagSet("cdnsim "+c.name, flag.ContinueOnError)
	fs.Usage = func() {
		synopsis := strings.TrimSpace(fs.Name() + " [flags] " + c.args)
		fmt.Fprintf(fs.Output(), "usage: %s\n\n%s\n\nflags:\n", synopsis, c.doc)
		fs.PrintDefaults()
	}
	for _, name := range c.flags {
		f := catalog.Lookup(name)
		if f == nil {
			panic(fmt.Sprintf("command %s: no flag -%s", c.name, name))
		}
		fs.Var(f.Value, f.Name, f.Usage)
	}
	return fs
}

// check validates the parsed flags the command reads, resolves -scale and
// its target preset, and collects positional arguments.
func (o *options) check(c *command, fs *flag.FlagSet) error {
	if c.args == "" && fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only; see cdnsim %s -h)", fs.Arg(0), c.name)
	}
	o.args = fs.Args()
	var err error
	if o.scaleF, err = experiment.ParseScale(o.scale); err != nil {
		return fmt.Errorf("-scale: %v", err)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	if fs.Lookup("sites") != nil && len(o.siteList()) == 0 {
		return fmt.Errorf("-sites names no site")
	}
	targetsSet := false
	fs.Visit(func(f *flag.Flag) { targetsSet = targetsSet || f.Name == "targets" })
	if (o.scale == "paper" || o.scale == "internet") && !targetsSet {
		// The named presets also raise the selection cap to the paper's
		// 50K targets per site (§5.1), unless -targets was given explicitly.
		o.targets = experiment.PaperTargetsPerSite
	}
	return nil
}

func (o options) worldConfig() experiment.WorldConfig {
	wopts := []experiment.Option{
		experiment.WithSeed(o.seed),
		experiment.WithScale(o.scaleF),
		experiment.WithShards(o.shards),
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
	r := &experiment.Runner{Workers: o.workers, Obs: o.reg}
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
		workers := o.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		mp := experiment.ManifestPath(o.jsonOut)
		man := experiment.NewManifest(command, cfg, workers, o.reg)
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

// figure wraps a figure or table function into a command run: the world
// config, an optional §5.1 target selection, the JSON report, the manifest
// and the wall-clock footer.
func figure(needSel bool, f func(experiment.WorldConfig, *experiment.Selection, options) error) func(*options) error {
	return func(o *options) error {
		start := time.Now()
		cfg := o.worldConfig()
		o.report = experiment.NewReport(o.seed)
		var sel *experiment.Selection
		if needSel {
			fmt.Printf("selecting targets (§5.1, seed=%d, cap=%d/site)...\n", o.seed, o.targets)
			var err error
			if sel, err = experiment.SelectTargets(cfg, o.targets); err != nil {
				return err
			}
			for _, st := range sel.Sites {
				fmt.Printf("  %-5s proximate=%4d not-routed-by-anycast=%4d\n",
					st.Code, len(st.Proximate), len(st.NotAnycast))
			}
		}
		if err := f(cfg, sel, *o); err != nil {
			return err
		}
		if o.jsonOut != "" {
			if err := o.report.WriteFile(o.jsonOut); err != nil {
				return err
			}
			fmt.Printf("\nwrote %s\n", o.jsonOut)
		}
		if err := o.finish(o.cmd, cfg); err != nil {
			return err
		}
		fmt.Printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
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
	techs, err := core.TechniquesBySpec(o.tech)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Load management: demand, capacity, and per-site load ===")
	for _, tech := range techs {
		w, err := experiment.NewConvergedWorld(cfg, tech, experiment.ConvergeTime)
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
	w, err := experiment.NewWorld(cfg)
	if err != nil {
		return err
	}
	fmt.Println("example divergences:")
	fmt.Print(experiment.RenderC1Examples(w.Topo, res, 3))
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
