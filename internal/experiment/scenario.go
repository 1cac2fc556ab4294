package experiment

import (
	"net/netip"
	"slices"

	"bestofboth/internal/core"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
)

// ScenarioConfig configures scenario-matrix runs: the probing options
// handed to scenario.Run plus how many targets each site group probes.
type ScenarioConfig struct {
	scenario.Options
	// MaxTargetsPerSite caps the probed targets per site group (default 12).
	MaxTargetsPerSite int
}

// DefaultScenarioConfig probes up to 12 targets per site group.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{MaxTargetsPerSite: 12}
}

func (c *ScenarioConfig) fill() {
	if c.MaxTargetsPerSite <= 0 {
		c.MaxTargetsPerSite = 12
	}
}

// ScenarioWorldConfig returns the world configuration a scenario runs
// under: the base config, with route-flap damping enabled when the
// scenario requests it and the demand model attached when the scenario
// requests one.
func ScenarioWorldConfig(cfg WorldConfig, sc *scenario.Scenario) WorldConfig {
	if sc.Damping {
		WithDamping()(&cfg)
	}
	if sc.Demand {
		WithDefaultDemand()(&cfg)
	}
	return cfg
}

// probeGroups answers the §5.2 question for one site of a converged world:
// which targets does the deployed technique route to it (the controllable
// set, at most limit of them, 0 = no cap, in pool order), at which reply-to
// address, probed from where. Targets sharing a reply-to address form one
// group, groups in first-seen order.
//
// The address a target's traffic actually uses is technique-dependent:
// DNS-steered techniques use the site's steering address, pure anycast
// semantics (anycast, load-shed) use the shared /24 and the site's natural
// catchment, and the pure bucket overlay (load-shift) addresses each target
// at its demand bucket's /27 — so both controllability and the probe
// reply-to must follow the per-target address there, or the bucket
// withdrawals the rebalance performed would make the steer-address
// catchment claim the site serves nobody it is in fact serving.
func probeGroups(w *World, sel *Selection, site *core.Site, limit int) []scenario.Group {
	st := sel.ForSite(site.Code)
	if st == nil {
		return nil
	}
	tech := w.CDN.Technique()
	pool := st.NotAnycast
	steer := tech.SteerAddr(w.CDN, site)
	addrOf := func(topology.NodeID) netip.Addr { return steer }
	da, isDA := tech.(core.DemandAddresser)
	switch {
	case isDA && w.CDN.Demand() != nil && steer == core.AnycastServiceAddr:
		pool = st.Proximate
		addrOf = func(id topology.NodeID) netip.Addr { return da.DemandAddr(w.CDN, id) }
	case steer == core.AnycastServiceAddr:
		pool = st.AnycastHere
	}
	// Probe from another site with the studied address as reply-to (§5.2
	// uses source 184.164.244.10 from another PEERING site).
	sites := w.CDN.Sites()
	prober := sites[slices.IndexFunc(sites, func(o *core.Site) bool { return o.Code != site.Code })]

	var groups []scenario.Group
	n := 0
	for _, id := range pool {
		if limit > 0 && n == limit {
			break
		}
		addr := addrOf(id)
		if got := w.CDN.CatchmentOf(id, addr); got == nil || got.Node != site.Node {
			continue
		}
		gi := slices.IndexFunc(groups, func(g scenario.Group) bool { return g.ReplyTo == addr })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, scenario.Group{Site: site.Code, Prober: prober.Node, ReplyTo: addr})
		}
		groups[gi].Targets = append(groups[gi].Targets, id)
		n++
	}
	return groups
}

// scenarioGroups builds the probed populations of a scenario run: the
// failoverOn arrangement for every site at once, since scenarios fail
// arbitrary subsets.
func scenarioGroups(w *World, sel *Selection, maxPerSite int) []scenario.Group {
	var groups []scenario.Group
	for _, s := range w.CDN.Sites() {
		groups = append(groups, probeGroups(w, sel, s, maxPerSite)...)
	}
	return groups
}

// RunScenario executes one scenario against one technique on a world
// restored from the (possibly cached) converged snapshot. Results are
// bit-identical to a run on a fresh converged world, at any concurrency.
func (r *Runner) RunScenario(cfg WorldConfig, sel *Selection, tech core.Technique, sc *scenario.Scenario, sco ScenarioConfig) (*scenario.Result, error) {
	sco.fill()
	if r != nil && r.Obs != nil {
		cfg.Obs = r.Obs
	}
	eff := ScenarioWorldConfig(cfg, sc)
	snap, err := r.convergedSnapshot(eff, tech)
	if err != nil {
		return nil, err
	}
	w, err := r.materialize(eff, snap)
	if err != nil {
		return nil, err
	}
	return scenario.Run(w.Env(), sc, scenarioGroups(w, sel, sco.MaxTargetsPerSite), sco.Options)
}

// RunScenarioMatrix executes every ⟨technique, scenario⟩ pair across the
// worker pool, returning results indexed [technique][scenario]. Converged
// worlds are snapshotted once per ⟨technique, damping regime⟩ and each run
// materializes its own isolated copy, so any worker count yields identical
// results.
func (r *Runner) RunScenarioMatrix(cfg WorldConfig, sel *Selection, techs []core.Technique, scs []*scenario.Scenario, sco ScenarioConfig) ([][]*scenario.Result, error) {
	sco.fill()
	results := make([][]*scenario.Result, len(techs))
	for i := range results {
		results[i] = make([]*scenario.Result, len(scs))
	}
	p := r.newPool(len(techs) * len(scs))
	for ti := range techs {
		for si := range scs {
			p.spawn(func() error {
				res, err := r.RunScenario(cfg, sel, techs[ti], scs[si], sco)
				if err != nil {
					return err
				}
				results[ti][si] = res
				p.completed()
				return nil
			})
		}
	}
	if err := p.wait(); err != nil {
		return nil, err
	}
	return results, nil
}
