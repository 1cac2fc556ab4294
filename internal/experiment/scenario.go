package experiment

import (
	"bestofboth/internal/core"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
)

// ScenarioConfig configures scenario-matrix runs: the probing options
// handed to scenario.Run plus the world-preparation parameters shared with
// the failover experiments.
type ScenarioConfig struct {
	scenario.Options
	// ConvergeTime bounds the pre-scenario convergence wait (default 1 h,
	// as in §5.2).
	ConvergeTime float64
	// MaxTargetsPerSite caps the probed targets per site group (default 12).
	MaxTargetsPerSite int
}

// DefaultScenarioConfig mirrors the failover experiments' schedule.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{ConvergeTime: 3600, MaxTargetsPerSite: 12}
}

func (c *ScenarioConfig) fill() {
	if c.ConvergeTime <= 0 {
		c.ConvergeTime = 3600
	}
	if c.MaxTargetsPerSite <= 0 {
		c.MaxTargetsPerSite = 12
	}
}

// ScenarioWorldConfig returns the world configuration a scenario runs
// under: the base config, with route-flap damping (bgp.DefaultDamping)
// enabled when the scenario requests it and a default demand model
// attached when the scenario requests one and the config carries none.
func ScenarioWorldConfig(cfg WorldConfig, sc *scenario.Scenario) WorldConfig {
	if sc.Damping {
		WithDamping()(&cfg)
	}
	if sc.Demand && !cfg.Demand.Enabled {
		WithDefaultDemand()(&cfg)
	}
	return cfg
}

// scenarioGroups builds the probed populations on a converged world: one
// group per site with any controllable targets, probing the targets that
// the deployed technique routes to that site, via the site's steering
// address — the same §5.2 arrangement as failoverOn, but for every site at
// once, since scenarios fail arbitrary subsets.
func scenarioGroups(w *World, sel *Selection, maxPerSite int) []scenario.Group {
	tech := w.CDN.Technique()
	_, isAnycast := tech.(core.Anycast)
	var groups []scenario.Group
	for _, s := range w.CDN.Sites() {
		st := sel.ForSite(s.Code)
		if st == nil {
			continue
		}
		pool := st.NotAnycast
		if isAnycast {
			pool = st.AnycastHere
		}
		steer := tech.SteerAddr(w.CDN, s)
		var targets []topology.NodeID
		for _, id := range pool {
			if got := w.CDN.CatchmentOf(id, steer); got != nil && got.Node == s.Node {
				targets = append(targets, id)
			}
		}
		if maxPerSite > 0 && len(targets) > maxPerSite {
			targets = targets[:maxPerSite]
		}
		if len(targets) == 0 {
			continue
		}
		var prober *core.Site
		for _, o := range w.CDN.Sites() {
			if o.Code != s.Code {
				prober = o
				break
			}
		}
		groups = append(groups, scenario.Group{
			Site: s.Code, Prober: prober.Node, ReplyTo: steer, Targets: targets,
		})
	}
	return groups
}

// RunScenario executes one scenario against one technique on a fresh world
// materialized from the (possibly cached) converged snapshot. Results are
// bit-identical regardless of snapshot reuse or concurrency.
func (r *Runner) RunScenario(cfg WorldConfig, sel *Selection, tech core.Technique, sc *scenario.Scenario, sco ScenarioConfig) (*scenario.Result, error) {
	sco.fill()
	if r != nil && r.Obs != nil {
		cfg.Obs = r.Obs
	}
	eff := ScenarioWorldConfig(cfg, sc)
	snap, err := r.convergedSnapshot(eff, tech, sco.ConvergeTime)
	if err != nil {
		return nil, err
	}
	w, err := r.materialize(eff, tech, sco.ConvergeTime, snap)
	if err != nil {
		return nil, err
	}
	env := &scenario.Env{Sim: w.Sim, Topo: w.Topo, Net: w.Net, Plane: w.Plane, CDN: w.CDN}
	return scenario.Run(env, sc, scenarioGroups(w, sel, sco.MaxTargetsPerSite), sco.Options)
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
