package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/scenario"
	"bestofboth/internal/stats"
)

const scenarioDoc = `Run a bundled timeline (-name, see -list) or a JSON scenario file (-f)
against each technique and report per-event metrics:

  cdnsim scenario -name regional-outage -tech all -workers 8
  cdnsim scenario -f outage.json -json out.json

Identical invocations are bit-identical on stdout at any -workers value
(progress goes to stderr).`

// runScenario implements the scenario command (scenarioDoc).
func runScenario(o *options) error {
	if o.list {
		printScenarioList()
		return nil
	}
	sc, err := loadScenario(o.file, o.name)
	if err != nil {
		return err
	}
	techniques, err := core.TechniquesBySpec(o.tech)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}

	cfg := o.worldConfig()
	fmt.Fprintf(os.Stderr, "selecting targets (seed=%d, cap=%d/site)...\n", o.seed, o.targets)
	sel, err := experiment.SelectTargets(cfg, o.targets)
	if err != nil {
		return err
	}

	sco := experiment.DefaultScenarioConfig()
	sco.MaxTargetsPerSite = o.maxTargets
	sco.UseMonitor = o.monitor

	report := experiment.NewReport(o.seed)
	results, err := o.runner().RunScenarioMatrix(cfg, sel, techniques, []*scenario.Scenario{sc}, sco)
	if err != nil {
		return err
	}
	for ti, tech := range techniques {
		res := results[ti][0]
		printScenarioResult(res, sc)
		report.Add("scenario:"+sc.Name+":"+tech.Name(), res)
	}
	if o.jsonOut != "" {
		if err := report.WriteFile(o.jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.jsonOut)
	}
	return o.finish("scenario:"+sc.Name, cfg)
}

func printScenarioList() {
	t := &stats.Table{Header: []string{"name", "damping", "events", "description"}}
	for _, sc := range scenario.Library() {
		damp := ""
		if sc.Damping {
			damp = "yes"
		}
		t.AddRow(sc.Name, damp, fmt.Sprintf("%d", len(sc.Events)), sc.Description)
	}
	fmt.Println(t.Render())
}

func loadScenario(file, name string) (*scenario.Scenario, error) {
	switch {
	case file != "" && name != "":
		return nil, fmt.Errorf("scenario: -f and -name are mutually exclusive")
	case file != "":
		return scenario.LoadFile(file)
	case name != "":
		sc := scenario.ByName(name)
		if sc == nil {
			return nil, fmt.Errorf("scenario: no bundled scenario %q (try -list)", name)
		}
		return sc, nil
	}
	return nil, fmt.Errorf("scenario: need -f <file> or -name <scenario> (or -list)")
}

func printScenarioResult(res *scenario.Result, sc *scenario.Scenario) {
	fmt.Printf("\n=== scenario %s / %s ===\n", res.Scenario, res.Technique)
	if sc.Description != "" {
		fmt.Println(sc.Description)
	}
	fmt.Printf("horizon %gs, %d groups, %d targets, damping %v\n",
		res.Horizon, res.Groups, res.Targets, sc.Damping)
	fmt.Printf("probes sent %d, answered %d, availability %s, BGP updates %d\n",
		res.Sent, res.Answered, stats.Pct(res.Availability), res.BGPUpdates)
	for _, d := range res.Detections {
		fmt.Printf("monitor detected %s down at t=%.1fs\n", d.Site, d.At)
	}

	if l := res.Load; l != nil {
		fmt.Printf("load: %d samples, served %.0f rps·s, shed %.0f rps·s\n",
			l.Samples, l.ServedIntegral, l.ShedIntegral)
		lt := &stats.Table{Header: []string{"site", "capacity rps", "peak offered", "peak util", "final offered"}}
		for _, s := range l.Sites {
			lt.AddRow(s.Site,
				fmt.Sprintf("%.0f", s.CapacityRPS),
				fmt.Sprintf("%.0f", s.PeakOfferedRPS),
				fmt.Sprintf("%.2f", s.PeakUtilization),
				fmt.Sprintf("%.0f", s.FinalOfferedRPS))
		}
		fmt.Println(lt.Render())
	}

	t := &stats.Table{Header: []string{
		"t", "event", "down", "avail", "affected", "lost", "recon p50", "recon p90", "failover",
	}}
	for i := range res.Events {
		ev := &res.Events[i]
		recon50, recon90 := "-", "-"
		if ev.Reconnection.N > 0 {
			recon50 = fmt.Sprintf("%.1fs", ev.Reconnection.P50)
			recon90 = fmt.Sprintf("%.1fs", ev.Reconnection.P90)
		}
		t.AddRow(
			fmt.Sprintf("%g", ev.At),
			ev.Label,
			fmt.Sprintf("%d", ev.SitesDown),
			stats.Pct(ev.Availability),
			fmt.Sprintf("%d", ev.AffectedTargets),
			fmt.Sprintf("%d", ev.Lost),
			recon50, recon90,
			renderFailover(ev.FailoverSites),
		)
	}
	fmt.Println(t.Render())
}

// renderFailover formats the failover-site counts deterministically:
// descending count, then site code.
func renderFailover(m map[string]int) string {
	if len(m) == 0 {
		return "-"
	}
	type kv struct {
		site string
		n    int
	}
	out := make([]kv, 0, len(m))
	for s, n := range m {
		out = append(out, kv{s, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].site < out[j].site
	})
	parts := make([]string, len(out))
	for i, e := range out {
		parts[i] = fmt.Sprintf("%s:%d", e.site, e.n)
	}
	return strings.Join(parts, " ")
}
