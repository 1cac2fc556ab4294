// Package scenario implements a declarative fault-injection engine: typed
// event timelines (site crashes, BGP session resets, link failures,
// partial provider loss, flaps, maintenance drains, correlated regional
// outages) that run against any deployed CDN technique on the
// deterministic simulation kernel.
//
// The paper evaluates exactly one fault shape — a clean whole-site
// withdrawal (§5.2) — but its central risk argument (reactive-anycast's
// global reconfiguration on failure, route-flap damping tails, the
// pathological-site mechanism of Appendix C.1) only bites under richer
// fault patterns. A Scenario is a list of timestamped Events over that
// richer vocabulary; the engine binds events to a concrete world,
// schedules them on the virtual clock, probes targets throughout, and
// reports per-event reconnection, failover, and availability metrics.
//
// Scenarios are plain data: construct them in Go, or load them from JSON
// files (see Parse). A library of named scenarios used by the cdnsim CLI
// is in library.go.
package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bestofboth/internal/core"
	"bestofboth/internal/topology"
	"bestofboth/pkg/bestofboth/api"
)

// Kind identifies a fault type on the timeline (Event.Kind).
type Kind = string

// The fault vocabulary.
const (
	// KindCrash takes a site down silently: no controller reaction until a
	// health monitor (Options.UseMonitor) detects it.
	KindCrash Kind = "crash"
	// KindFail is the paper's §5.2 failure: the site crashes and the
	// controller reacts after core.DetectionDelay.
	KindFail Kind = "fail"
	// KindRecover returns a failed (or drained) site to service.
	KindRecover Kind = "recover"
	// KindDrain is a graceful maintenance drain: announcements are
	// withdrawn and DNS repointed immediately, but the site keeps serving
	// until DrainFor seconds later, when its data plane stops.
	KindDrain Kind = "drain"
	// KindLinkDown fails the link between nodes A and B: routes learned
	// over it are withdrawn and in-flight updates on it are lost.
	KindLinkDown Kind = "link-down"
	// KindLinkUp restores a failed link; both ends re-exchange full tables.
	KindLinkUp Kind = "link-up"
	// KindSessionReset bounces the BGP session between A and B without
	// taking the link down: flush plus immediate full re-advertisement.
	KindSessionReset Kind = "session-reset"
	// KindPartialFail fails a Fraction of Site's provider links (partial
	// site failure: the site stays up but loses part of its transit).
	KindPartialFail Kind = "partial-fail"
	// KindPartialRestore restores the links failed by KindPartialFail with
	// the same Site and Fraction.
	KindPartialRestore Kind = "partial-restore"
	// KindRegionalFail fails every CDN site whose metro lies within Radius
	// (one-way ms of the latency plane) of Site's metro — a correlated
	// regional outage (power, fiber cut).
	KindRegionalFail Kind = "regional-fail"
	// KindRegionalRecover recovers the sites a matching KindRegionalFail
	// took down.
	KindRegionalRecover Kind = "regional-recover"
	// KindFlap is a periodic crash/recover cycle: Count repetitions of
	// fail at At+i*Period, recover half a period later — the input that
	// route-flap damping (bgp.DampingConfig) exists to punish.
	KindFlap Kind = "flap"
	// KindFlashCrowd multiplies the demand of every target currently in
	// Site's catchment by Fraction for Period seconds, then divides it out
	// again: a target still at the crowd's rate gets its original rate back
	// exactly, one whose demand changed meanwhile keeps that change.
	// Requires a world with a demand model (Scenario.Demand or an explicit
	// demand config).
	KindFlashCrowd Kind = "flash-crowd"
	// KindCapacityDrain is a capacity-aware maintenance drain: like
	// KindDrain, but the site stops forwarding as soon as its offered load
	// falls below 1% of capacity, checked every 5 s, with DrainFor as the
	// hard upper bound on the grace period. Without a demand model it
	// degrades to a plain drain with a DrainFor grace.
	KindCapacityDrain Kind = "capacity-drain"
	// KindSwitchTechnique replaces the deployed technique live (Technique
	// names the target): every announcement is withdrawn and the new
	// technique's normal-operation set installed, with open failure
	// episodes replayed under the new technique.
	KindSwitchTechnique Kind = "switch-technique"
	// KindDemandScale multiplies every target's demand by Fraction,
	// permanently (integer thousandths arithmetic, deterministic). Requires
	// a demand model.
	KindDemandScale Kind = "demand-scale"
	// KindAnnouncePolicy re-originates Site's own prefix with Count AS-path
	// prepends (0 restores the plain announcement) — the routine
	// traffic-engineering knob.
	KindAnnouncePolicy Kind = "announce-policy"
)

// Event is one entry on a scenario timeline. The field list is declared
// once, by api.Mutation, so timelines and ChangeSets cannot drift apart;
// Validate enforces the per-kind requirements.
type Event = api.Mutation

// Scenario is a named fault-injection timeline.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Damping requests route-flap damping (bgp.DefaultDamping) in worlds
	// built for this scenario. It is advisory: the world builder (e.g.
	// experiment.Runner) honors it; Run itself uses whatever network it is
	// handed.
	Damping bool `json:"damping,omitempty"`
	// Demand requests a demand model (traffic.Config defaults) in worlds
	// built for this scenario — required by flash-crowd events and
	// meaningful for any load-summary reporting. Advisory, like Damping.
	Demand bool `json:"demand,omitempty"`
	// Horizon is the probing horizon in virtual seconds from scenario
	// start. Zero means the last event time plus a 120 s tail.
	Horizon float64 `json:"horizon,omitempty"`
	Events  []Event `json:"events"`
}

func needsSite(kind Kind) bool {
	switch kind {
	case KindCrash, KindFail, KindRecover, KindDrain,
		KindPartialFail, KindPartialRestore,
		KindRegionalFail, KindRegionalRecover, KindFlap,
		KindFlashCrowd, KindCapacityDrain, KindAnnouncePolicy:
		return true
	}
	return false
}

// Bounds on the counts a scenario file or a ChangeSet may name: each one
// sizes an allocation or a loop (flap actions, the AS path, probe logs and
// load samples), so it is refused here, before anything is sized from it.
const (
	maxFlapCount = 1000  // cycles; the bundled library flaps 4 times
	maxPrepends  = 254   // an AS_PATH segment holds 255 ASNs (RFC 4271 §4.3)
	maxEndTime   = 86400 // virtual seconds; the longest bundled timeline is 890
)

// Validate checks the scenario's structural well-formedness (field
// requirements and bounds per kind). Site and node names are resolved
// later, when the scenario is bound to a world.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(s.Events) == 0 {
		return fmt.Errorf("scenario %s: no events", s.Name)
	}
	if s.Horizon < 0 {
		return fmt.Errorf("scenario %s: negative horizon", s.Name)
	}
	for i := range s.Events {
		e := &s.Events[i]
		where := fmt.Sprintf("scenario %s: event %d (%s)", s.Name, i, e.Kind)
		if e.At < 0 {
			return fmt.Errorf("%s: negative time %g", where, e.At)
		}
		switch e.Kind {
		case KindCrash, KindFail, KindRecover, KindDrain:
		case KindLinkDown, KindLinkUp, KindSessionReset:
			if e.A == "" || e.B == "" {
				return fmt.Errorf("%s: needs both endpoints a and b", where)
			}
		case KindPartialFail, KindPartialRestore:
			if e.Fraction <= 0 || e.Fraction > 1 {
				return fmt.Errorf("%s: fraction %g outside (0,1]", where, e.Fraction)
			}
		case KindRegionalFail, KindRegionalRecover:
			if e.Radius <= 0 {
				return fmt.Errorf("%s: needs a positive radius", where)
			}
		case KindFlap:
			if e.Period <= 0 {
				return fmt.Errorf("%s: needs a positive period", where)
			}
			if e.Count <= 0 || e.Count > maxFlapCount {
				return fmt.Errorf("%s: count %d outside [1,%d]", where, e.Count, maxFlapCount)
			}
		case KindFlashCrowd:
			if e.Fraction <= 0 {
				return fmt.Errorf("%s: needs a positive fraction (demand multiplier)", where)
			}
			if e.Period <= 0 {
				return fmt.Errorf("%s: needs a positive period (spike duration)", where)
			}
		case KindCapacityDrain:
			if e.DrainFor <= 0 {
				return fmt.Errorf("%s: needs a positive drainFor (grace bound)", where)
			}
		case KindSwitchTechnique:
			if e.Technique == "" {
				return fmt.Errorf("%s: needs a technique name", where)
			}
		case KindDemandScale:
			if e.Fraction <= 0 {
				return fmt.Errorf("%s: needs a positive fraction (demand multiplier)", where)
			}
		case KindAnnouncePolicy:
			if e.Count < 0 || e.Count > maxPrepends {
				return fmt.Errorf("%s: prepend count %d outside [0,%d]", where, e.Count, maxPrepends)
			}
		default:
			return fmt.Errorf("scenario %s: event %d: unknown kind %q", s.Name, i, e.Kind)
		}
		if needsSite(e.Kind) && e.Site == "" {
			return fmt.Errorf("%s: needs a site", where)
		}
	}
	if end := s.EndTime(); end > maxEndTime {
		return fmt.Errorf("scenario %s: ends at %g s, past the %d s bound", s.Name, end, maxEndTime)
	}
	return nil
}

// EndTime returns the probing horizon: Horizon when set, otherwise the
// last action time (flaps expanded) plus a 120 s convergence tail.
func (s *Scenario) EndTime() float64 {
	if s.Horizon > 0 {
		return s.Horizon
	}
	last := 0.0
	for _, e := range s.Events {
		at := e.At
		switch e.Kind {
		case KindFlap:
			at += float64(e.Count-1)*e.Period + e.Period/2
		case KindFlashCrowd:
			at += e.Period
		case KindCapacityDrain:
			at += e.DrainFor
		}
		if at > last {
			last = at
		}
	}
	return last + 120
}

// action is one bound, scheduled fault: an event resolved against a
// concrete world, with flaps expanded into their fail/recover cycles.
type action struct {
	at    float64
	kind  Kind
	label string
	apply func(env *Env) error
}

// bind resolves every event against the world and expands composite
// events, returning the schedule sorted by time (stable: ties keep the
// timeline's order).
func (s *Scenario) bind(env *Env) ([]action, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []action
	for i := range s.Events {
		acts, err := bindEvent(env, &s.Events[i])
		if err != nil {
			return nil, fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
		}
		out = append(out, acts...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out, nil
}

func bindEvent(env *Env, e *Event) ([]action, error) {
	switch e.Kind {
	case KindCrash:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site := e.Site
		return []action{{e.At, e.Kind, "crash " + site, func(env *Env) error {
			_, err := env.CDN.CrashSite(site)
			return err
		}}}, nil
	case KindFail:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site := e.Site
		return []action{{e.At, e.Kind, "fail " + site, func(env *Env) error {
			_, err := env.CDN.FailSite(site)
			return err
		}}}, nil
	case KindRecover:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site := e.Site
		return []action{{e.At, e.Kind, "recover " + site, func(env *Env) error {
			_, err := env.CDN.RecoverSite(site)
			return err
		}}}, nil
	case KindDrain:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site, grace := e.Site, e.DrainFor
		label := fmt.Sprintf("drain %s (%gs grace)", site, grace)
		return []action{{e.At, e.Kind, label, func(env *Env) error {
			if _, err := env.CDN.DrainSite(site); err != nil {
				return err
			}
			node, ep := env.CDN.Site(site).Node, env.CDN.Episode(site)
			env.Sim.After(grace, func() {
				// Stop forwarding only if this drain is still in progress:
				// a recovery during the grace opens a new episode.
				if env.CDN.Episode(site) == ep {
					env.Plane.SetDown(node, true)
				}
			})
			return nil
		}}}, nil
	case KindLinkDown, KindLinkUp, KindSessionReset:
		a, err := env.resolveNode(e.A)
		if err != nil {
			return nil, err
		}
		b, err := env.resolveNode(e.B)
		if err != nil {
			return nil, err
		}
		// Fail fast on nonexistent links at bind time.
		if _, ok := env.Topo.Adjacent(a, b); !ok {
			return nil, fmt.Errorf("no link between %q and %q", e.A, e.B)
		}
		label := fmt.Sprintf("%s %s<->%s", e.Kind, e.A, e.B)
		kind := e.Kind
		return []action{{e.At, kind, label, func(env *Env) error {
			switch kind {
			case KindLinkDown:
				return env.Net.SetLinkDown(a, b)
			case KindLinkUp:
				return env.Net.SetLinkUp(a, b)
			default:
				return env.Net.ResetSession(a, b)
			}
		}}}, nil
	case KindPartialFail, KindPartialRestore:
		links, err := env.providerLinks(e.Site, e.Fraction)
		if err != nil {
			return nil, err
		}
		down := e.Kind == KindPartialFail
		verb := "partial-restore"
		if down {
			verb = "partial-fail"
		}
		label := fmt.Sprintf("%s %s (%d provider links)", verb, e.Site, len(links))
		site := e.Site
		return []action{{e.At, e.Kind, label, func(env *Env) error {
			node := env.CDN.Site(site).Node
			for _, to := range links {
				var err error
				if down {
					err = env.Net.SetLinkDown(node, to)
				} else {
					err = env.Net.SetLinkUp(node, to)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}}}, nil
	case KindRegionalFail, KindRegionalRecover:
		sites, err := env.regionalSites(e.Site, e.Radius)
		if err != nil {
			return nil, err
		}
		fail := e.Kind == KindRegionalFail
		verb := "regional-recover"
		if fail {
			verb = "regional-fail"
		}
		label := fmt.Sprintf("%s %s r=%g [%s]", verb, e.Site, e.Radius, joinSites(sites))
		return []action{{e.At, e.Kind, label, func(env *Env) error {
			for _, code := range sites {
				if fail {
					if env.CDN.Failed(code) {
						continue
					}
					if _, err := env.CDN.FailSite(code); err != nil {
						return err
					}
				} else {
					if !env.CDN.Failed(code) {
						continue
					}
					if _, err := env.CDN.RecoverSite(code); err != nil {
						return err
					}
				}
			}
			return nil
		}}}, nil
	case KindFlap:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site := e.Site
		out := make([]action, 0, 2*e.Count)
		for i := 0; i < e.Count; i++ {
			cycle := e.At + float64(i)*e.Period
			n := i + 1
			out = append(out, action{cycle, KindFail,
				fmt.Sprintf("flap %s down (%d/%d)", site, n, e.Count),
				func(env *Env) error { _, err := env.CDN.FailSite(site); return err }})
			out = append(out, action{cycle + e.Period/2, KindRecover,
				fmt.Sprintf("flap %s up (%d/%d)", site, n, e.Count),
				func(env *Env) error { _, err := env.CDN.RecoverSite(site); return err }})
		}
		return out, nil
	case KindFlashCrowd:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site, mult, dur := e.Site, e.Fraction, e.Period
		label := fmt.Sprintf("flash-crowd %s x%g (%gs)", site, mult, dur)
		return []action{{e.At, e.Kind, label, func(env *Env) error {
			m := env.CDN.Demand()
			if m == nil {
				return fmt.Errorf("flash-crowd needs a demand model (set Scenario.Demand or configure one)")
			}
			node := env.CDN.Site(site).Node
			// The affected population is whoever the site serves right now
			// (live catchment of the demand address), not a static list: a
			// crowd flocks to content, and the content's audience is wherever
			// the anycast/DNS layer currently lands it.
			var ids []topology.NodeID
			var orig []int64
			m.Each(func(id topology.NodeID, micro int64, _ int) {
				if got := env.CDN.DemandSiteOf(id); got != nil && got.Node == node {
					ids = append(ids, id)
					orig = append(orig, micro)
				}
			})
			// Integer scaling by mult expressed in thousandths keeps the
			// rates exact. The end puts back the saved original of a target
			// still at the crowd's rate (scaling down is lossy in integer
			// space) and divides the crowd's multiplier out of any target
			// whose demand changed meanwhile, keeping that change.
			num := int64(math.Round(mult * 1000))
			spiked := make([]int64, len(ids))
			for i, id := range ids {
				r := orig[i]
				spiked[i] = r/1000*num + r%1000*num/1000
				m.SetRate(id, spiked[i])
			}
			env.CDN.RefreshLoad()
			env.Sim.After(dur, func() {
				for i, id := range ids {
					if m.Rate(id) == spiked[i] {
						m.SetRate(id, orig[i])
					} else {
						m.ScaleRate(id, 1000, num)
					}
				}
				env.CDN.RefreshLoad()
			})
			return nil
		}}}, nil
	case KindCapacityDrain:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site, bound := e.Site, e.DrainFor
		label := fmt.Sprintf("capacity-drain %s (<=%gs grace)", site, bound)
		return []action{{e.At, e.Kind, label, func(env *Env) error {
			if _, err := env.CDN.DrainSite(site); err != nil {
				return err
			}
			node, ep := env.CDN.Site(site).Node, env.CDN.Episode(site)
			acct := env.CDN.Load()
			idx := -1
			if acct != nil {
				for i := 0; i < acct.NumSites(); i++ {
					if acct.SiteCode(i) == site {
						idx = i
						break
					}
				}
			}
			if idx < 0 {
				// No load accounting: plain drain with DrainFor as the grace.
				env.Sim.After(bound, func() {
					if env.CDN.Episode(site) == ep {
						env.Plane.SetDown(node, true)
					}
				})
				return nil
			}
			deadline := env.Sim.Now() + bound
			// Poll the folded load every 5 s and cut forwarding as soon as
			// the drain has actually taken effect (offered load under 1% of
			// capacity), or at the deadline regardless.
			var poll func()
			poll = func() {
				if env.CDN.Episode(site) != ep {
					return // recovered mid-drain: keep serving
				}
				env.CDN.RefreshLoad()
				if env.Sim.Now() >= deadline || acct.Offered(idx)*100 <= acct.Capacity(idx) {
					env.Plane.SetDown(node, true)
					return
				}
				env.Sim.After(5, poll)
			}
			env.Sim.After(5, poll)
			return nil
		}}}, nil
	case KindSwitchTechnique:
		// Resolve the name at bind time so a bad technique fails the whole
		// scenario before any event runs.
		t, err := core.TechniqueByName(e.Technique)
		if err != nil {
			return nil, err
		}
		return []action{{e.At, e.Kind, "switch-technique " + e.Technique, func(env *Env) error {
			return env.CDN.SwitchTechnique(t)
		}}}, nil
	case KindDemandScale:
		mult := e.Fraction
		label := fmt.Sprintf("demand-scale x%g", mult)
		return []action{{e.At, e.Kind, label, func(env *Env) error {
			m := env.CDN.Demand()
			if m == nil {
				return fmt.Errorf("demand-scale needs a demand model (set Scenario.Demand or configure one)")
			}
			// Thousandths arithmetic, as flash crowds: exact and
			// platform-independent. Collect first — mutating under Each
			// would be order-fragile.
			num := int64(math.Round(mult * 1000))
			var ids []topology.NodeID
			m.Each(func(id topology.NodeID, _ int64, _ int) { ids = append(ids, id) })
			for _, id := range ids {
				m.ScaleRate(id, num, 1000)
			}
			env.CDN.RefreshLoad()
			return nil
		}}}, nil
	case KindAnnouncePolicy:
		if err := env.checkSite(e.Site); err != nil {
			return nil, err
		}
		site, prepends := e.Site, e.Count
		label := fmt.Sprintf("announce-policy %s prepend=%d", site, prepends)
		return []action{{e.At, e.Kind, label, func(env *Env) error {
			return env.CDN.SetAnnouncePolicy(site, prepends)
		}}}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", e.Kind)
}

// ApplyEvents validates, binds, and applies events against the world
// immediately, in list order, ignoring At — the control plane's entry
// point for executing a ChangeSet's mutations at the present virtual
// instant. Composite events (flaps, drains with grace periods) still
// schedule their follow-up work on the kernel clock; the caller owns
// convergence afterwards. On error, earlier events in the list have
// already been applied.
func ApplyEvents(env *Env, events []Event) error {
	s := &Scenario{Name: "changeset", Events: events}
	if err := s.Validate(); err != nil {
		return err
	}
	for i := range events {
		acts, err := bindEvent(env, &events[i])
		if err != nil {
			return fmt.Errorf("scenario: event %d: %w", i, err)
		}
		for _, a := range acts {
			if err := a.apply(env); err != nil {
				return fmt.Errorf("scenario: %s: %w", a.label, err)
			}
		}
	}
	return nil
}

func joinSites(codes []string) string {
	out := ""
	for i, c := range codes {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}

func (env *Env) checkSite(code string) error {
	if env.CDN.Site(code) == nil {
		return fmt.Errorf("unknown site %q", code)
	}
	return nil
}

// resolveNode maps a name to a topology node: CDN site codes first, then
// topology node names.
func (env *Env) resolveNode(name string) (topology.NodeID, error) {
	if s := env.CDN.Site(name); s != nil {
		return s.Node, nil
	}
	if n := env.Topo.NodeByName(name); n != nil {
		return n.ID, nil
	}
	return 0, fmt.Errorf("unknown site or node %q", name)
}

// providerLinks returns the neighbor IDs of the first ceil(frac·n)
// provider adjacencies of the site's node, in ascending neighbor order —
// a deterministic "lose part of your transit" selection.
func (env *Env) providerLinks(site string, frac float64) ([]topology.NodeID, error) {
	s := env.CDN.Site(site)
	if s == nil {
		return nil, fmt.Errorf("unknown site %q", site)
	}
	var providers []topology.NodeID
	for _, adj := range env.Topo.Node(s.Node).Adj {
		if adj.Rel == topology.RelProvider {
			providers = append(providers, adj.To)
		}
	}
	if len(providers) == 0 {
		return nil, fmt.Errorf("site %q has no provider links", site)
	}
	slices.Sort(providers)
	k := int(math.Ceil(frac * float64(len(providers))))
	if k < 1 {
		k = 1
	}
	if k > len(providers) {
		k = len(providers)
	}
	return providers[:k], nil
}

// regionalSites returns the codes of all CDN sites whose metro center lies
// within radius of the center site's metro center, in site order. Metro
// centers (not scattered node positions) are used so the affected set is a
// property of the scenario, not of the topology seed.
func (env *Env) regionalSites(center string, radius float64) ([]string, error) {
	c := env.CDN.Site(center)
	if c == nil {
		return nil, fmt.Errorf("unknown site %q", center)
	}
	origin := nearestMetro(env.Topo.Node(c.Node).Loc)
	var out []string
	for _, s := range env.CDN.Sites() {
		m := nearestMetro(env.Topo.Node(s.Node).Loc)
		if origin.Loc.Dist(m.Loc) <= radius {
			out = append(out, s.Code)
		}
	}
	return out, nil
}

// nearestMetro snaps a scattered node position back to its metro. The
// generator scatters nodes at most ~1.4 ms from their metro center and
// metro centers are several ms apart, so the snap is unambiguous.
func nearestMetro(p topology.Point) topology.Metro {
	best := topology.Metros[0]
	bestD := math.Inf(1)
	for _, m := range topology.Metros {
		if d := p.Dist(m.Loc); d < bestD {
			best, bestD = m, d
		}
	}
	return best
}
