package scenario

import (
	"fmt"
	"net/netip"
	"slices"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/stats"
	"bestofboth/internal/tally"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// Env is the concrete world a scenario runs against: an already deployed,
// converged CDN. experiment.RunScenarioMatrix builds these from world
// snapshots; tests wire them by hand.
type Env struct {
	Sim   *netsim.Sim
	Topo  *topology.Topology
	Net   *bgp.Network
	Plane *dataplane.Plane
	CDN   *core.CDN
}

// Group is one probed population: targets that were in Site's catchment at
// convergence, probed via ReplyTo (the steering address of the prefix
// under study) from the Prober node — the §5.2 Verfploeter arrangement.
type Group struct {
	// Site is the CDN site whose steering prefix is under study.
	Site string
	// Prober is the node probes are emitted from.
	Prober topology.NodeID
	// ReplyTo is the spoofed source address: targets reply to it, and
	// where the reply lands reveals the live catchment.
	ReplyTo netip.Addr
	// Targets are the probed client nodes.
	Targets []topology.NodeID
}

// ProbeInterval is the per-target ping cadence of every probing campaign
// (§5.2: ~1.5 s).
const ProbeInterval = 1.5

// Options configures a scenario run.
type Options struct {
	// LossRate injects independent request/reply loss into probing.
	LossRate float64
	// UseMonitor runs the CDN's probing-based health monitor during the
	// scenario, so silent crashes (KindCrash) are detected with emergent
	// latency instead of never.
	UseMonitor bool
}

// DistSummary summarizes a sample distribution. Zero-valued when empty
// (N=0), keeping results JSON-encodable (no NaNs).
type DistSummary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	Max float64 `json:"max"`
}

func summarize(samples []float64) DistSummary {
	if len(samples) == 0 {
		return DistSummary{}
	}
	cdf := stats.NewCDF(samples)
	return DistSummary{N: cdf.N(), P50: cdf.Percentile(50), P90: cdf.Percentile(90), Max: cdf.Max()}
}

// EventResult holds the per-event window metrics: the window runs from the
// event to the next event (or the horizon).
type EventResult struct {
	// At is the event time in seconds from scenario start.
	At float64 `json:"at"`
	// WindowEnd is the end of the event's metric window, seconds from
	// scenario start.
	WindowEnd float64 `json:"windowEnd"`
	Kind      string  `json:"kind"`
	Label     string  `json:"label"`
	// SitesDown is the number of failed sites immediately after the event.
	SitesDown int `json:"sitesDown"`
	// Sent and Answered count probes sent within the window and how many
	// of them were ever answered.
	Sent     int `json:"sent"`
	Answered int `json:"answered"`
	// Availability is Answered/Sent (1 when nothing was sent).
	Availability float64 `json:"availability"`
	// AffectedTargets is the number of targets that lost at least one
	// probe sent in the window; Lost counts those that never reconnected.
	AffectedTargets int `json:"affectedTargets"`
	Lost            int `json:"lost"`
	// Reconnection summarizes, over affected targets, the delay from the
	// event to the first reply at or after their first lost probe.
	Reconnection DistSummary `json:"reconnection"`
	// FailoverSites counts, per site code, where affected targets' last
	// reply of the window landed — the post-event catchment of the
	// disrupted population.
	FailoverSites map[string]int `json:"failoverSites,omitempty"`
}

// Detection records one health-monitor detection during the run.
type Detection struct {
	Site string  `json:"site"`
	At   float64 `json:"at"` // seconds from scenario start
}

// SiteLoad is one site's load trajectory over a scenario run, in rps.
type SiteLoad struct {
	Site        string  `json:"site"`
	CapacityRPS float64 `json:"capacityRPS"`
	// PeakOfferedRPS / PeakUtilization are the maxima across the run's load
	// samples; FinalOfferedRPS is the last sample's offered load.
	PeakOfferedRPS  float64 `json:"peakOfferedRPS"`
	PeakUtilization float64 `json:"peakUtilization"`
	FinalOfferedRPS float64 `json:"finalOfferedRPS"`
}

// LoadSummary reports the demand-model view of a scenario run: the load
// accountant is refolded every 5 s of virtual time, and peaks/integrals
// are taken over those samples (plus the folds the CDN's own lifecycle
// triggers).
type LoadSummary struct {
	// Samples is the number of 5 s sampler folds.
	Samples int `json:"samples"`
	// ServedIntegral/ShedIntegral sum served and shed rps across every fold
	// of the run — the served/shed rate time series integrated at the fold
	// cadence (dimensionally rps·folds, comparable across runs of one
	// scenario).
	ServedIntegral float64    `json:"servedIntegral"`
	ShedIntegral   float64    `json:"shedIntegral"`
	Sites          []SiteLoad `json:"sites"`
}

// Result is the outcome of one scenario run against one deployed world.
type Result struct {
	Scenario  string  `json:"scenario"`
	Technique string  `json:"technique"`
	Horizon   float64 `json:"horizon"`
	Groups    int     `json:"groups"`
	Targets   int     `json:"targets"`
	// Sent/Answered/Availability aggregate over the whole run, baseline
	// included.
	Sent         int     `json:"sent"`
	Answered     int     `json:"answered"`
	Availability float64 `json:"availability"`
	// BGPUpdates is the number of UPDATE messages the scenario itself
	// caused (delta over the run).
	BGPUpdates uint64 `json:"bgpUpdates"`
	// Detections lists health-monitor detections (empty without
	// Options.UseMonitor).
	Detections []Detection   `json:"detections,omitempty"`
	Events     []EventResult `json:"events"`
	// Load summarizes per-site offered/served/shed load over the run when
	// the world carries a demand model (nil otherwise).
	Load *LoadSummary `json:"load,omitempty"`
}

// Campaign is a scenario in flight: its timeline scheduled on the virtual
// clock, the health monitor (Options.UseMonitor) and one prober per group.
// Run is Start, the load sampler, Finish and the per-event analysis; a §5.2
// failover run is a campaign of one fail event.
type Campaign struct {
	// T0 is the virtual time the campaign started: event times, detections
	// and the horizon count from it.
	T0 float64
	// Probers holds one prober per group, in group order.
	Probers []*dataplane.Prober
	// Detections lists the health monitor's detections so far.
	Detections []Detection

	env     *Env
	horizon float64
	actions []action
	events  []EventResult // per action: identity, and SitesDown once applied
	mon     *core.Monitor
	err     error // the first action that failed to apply
}

// Start binds the scenario to env and schedules every action from now on,
// starts the health monitor when opts asks for it, and pings every group's
// targets at ProbeInterval until the horizon. Nothing runs until Finish
// advances the clock.
func Start(env *Env, sc *Scenario, groups []Group, opts Options) (*Campaign, error) {
	actions, err := sc.bind(env)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		T0:      env.Sim.Now(),
		Probers: make([]*dataplane.Prober, len(groups)),
		env:     env,
		horizon: sc.EndTime(),
		actions: actions,
		events:  make([]EventResult, len(actions)),
	}

	// Schedule the timeline. The wrapper records post-event state; a failed
	// apply stops the timeline (Finish reports it).
	for i := range actions {
		a, slot := &actions[i], &c.events[i]
		*slot = EventResult{At: a.at, Kind: a.kind, Label: a.label}
		env.Sim.At(c.T0+a.at, func() {
			if c.err != nil {
				return
			}
			if err := a.apply(env); err != nil {
				c.err = fmt.Errorf("scenario %s: %s at t=%g: %w", sc.Name, a.label, a.at, err)
				return
			}
			slot.SitesDown = len(env.CDN.Sites()) - len(env.CDN.HealthySites())
		})
	}

	if opts.UseMonitor {
		if c.mon, err = env.CDN.StartMonitor(); err != nil {
			return nil, err
		}
		c.mon.OnDetect = func(code string, at netsim.Seconds) {
			c.Detections = append(c.Detections, Detection{Site: code, At: at - c.T0})
		}
	}

	// Every prober folds its probes per metric window, so analyze reads each
	// window's edges back.
	edges := windowEdges(actions, c.T0, c.horizon)
	for i, g := range groups {
		c.Probers[i] = dataplane.NewProber(env.Plane, g.Prober, g.ReplyTo)
		c.Probers[i].LossRate = opts.LossRate
		c.Probers[i].Edges = edges
		for _, tgt := range g.Targets {
			c.Probers[i].PingEvery(tgt, ProbeInterval, c.horizon)
		}
	}
	return c, nil
}

// Finish runs the campaign to its horizon plus 30 s of slack for the last
// replies to land, stops the monitor, and returns the first action that
// failed to apply.
func (c *Campaign) Finish() error {
	c.env.Sim.RunUntil(c.T0 + c.horizon + 30)
	if c.mon != nil {
		c.mon.Stop()
	}
	return c.err
}

// Run executes the scenario against env as one campaign, samples load
// throughout, and computes per-event metrics. The env is consumed — its
// clock advances and its world mutates; callers wanting a pristine world
// afterwards should run on a snapshot-restored copy.
func Run(env *Env, sc *Scenario, groups []Group, opts Options) (*Result, error) {
	tech, msgs0 := techName(env.CDN), env.Net.MessageCount()
	c, err := Start(env, sc, groups, opts)
	if err != nil {
		return nil, err
	}
	// Load sampler: refold the accountant every 5 s of virtual time so
	// per-site peaks and served/shed integrals track the fault timeline.
	// RefreshLoad is a pure read of converged FIBs and the sampler draws no
	// randomness, so scheduling it does not perturb the simulation. It is
	// Run's alone: a failover campaign reports no load, and sampling there
	// would more than double a demand-model Figure 2.
	sampler := newLoadSampler(env, c.T0, c.horizon)
	if err := c.Finish(); err != nil {
		return nil, err
	}

	res := &Result{Scenario: sc.Name, Technique: tech, Horizon: c.horizon, Groups: len(groups),
		BGPUpdates: env.Net.MessageCount() - msgs0, Detections: c.Detections, Events: c.events}
	for _, g := range groups {
		res.Targets += len(g.Targets)
	}
	if sampler != nil {
		res.Load = sampler.summary()
	}
	analyze(env, res, c.actions, groups, c.Probers, c.T0)
	return res, nil
}

// loadSampler tracks per-site load peaks across periodic refolds of the
// CDN's load accountant during a scenario run.
type loadSampler struct {
	env      *Env
	acct     *traffic.Accountant
	samples  int
	served0  int64
	shed0    int64
	peakOff  []int64
	peakUtil []float64
}

// newLoadSampler schedules 5 s load samples across [t0, t0+horizon] and
// returns nil when the world has no load accounting.
func newLoadSampler(env *Env, t0, horizon float64) *loadSampler {
	acct := env.CDN.Load()
	if acct == nil {
		return nil
	}
	ls := &loadSampler{
		env:      env,
		acct:     acct,
		peakOff:  make([]int64, acct.NumSites()),
		peakUtil: make([]float64, acct.NumSites()),
	}
	ls.served0, ls.shed0 = acct.Cumulative()
	for t := 0.0; t <= horizon; t += 5 {
		env.Sim.At(t0+t, ls.sample)
	}
	return ls
}

func (ls *loadSampler) sample() {
	ls.env.CDN.RefreshLoad()
	ls.samples++
	for i := range ls.peakOff {
		if off := ls.acct.Offered(i); off > ls.peakOff[i] {
			ls.peakOff[i] = off
		}
		if u := ls.acct.Utilization(i); u > ls.peakUtil[i] {
			ls.peakUtil[i] = u
		}
	}
}

func (ls *loadSampler) summary() *LoadSummary {
	served, shed := ls.acct.Cumulative()
	out := &LoadSummary{
		Samples:        ls.samples,
		ServedIntegral: float64(served-ls.served0) / traffic.Micro,
		ShedIntegral:   float64(shed-ls.shed0) / traffic.Micro,
		Sites:          make([]SiteLoad, 0, ls.acct.NumSites()),
	}
	for i := range ls.peakOff {
		out.Sites = append(out.Sites, SiteLoad{
			Site:            ls.acct.SiteCode(i),
			CapacityRPS:     float64(ls.acct.Capacity(i)) / traffic.Micro,
			PeakOfferedRPS:  float64(ls.peakOff[i]) / traffic.Micro,
			PeakUtilization: ls.peakUtil[i],
			FinalOfferedRPS: float64(ls.acct.Offered(i)) / traffic.Micro,
		})
	}
	return out
}

func techName(c *core.CDN) string {
	if t := c.Technique(); t != nil {
		return t.Name()
	}
	return ""
}

// analyze computes the per-event and whole-run metrics from what each
// target's probes came to.
func analyze(env *Env, res *Result, actions []action, groups []Group, probers []*dataplane.Prober, t0 float64) {
	for _, pr := range probers {
		res.Sent += pr.Sent()
		res.Answered += pr.Answered()
	}
	res.Availability = ratio(res.Answered, res.Sent)
	analyzeEvents(env, res, actions, groups, t0, func(group int, target topology.NodeID, from, to float64) tally.Window {
		return probers[group].Window(target, from, to)
	})
}

// analyzeEvents computes each event's metrics from window, which reads what
// the probes a group's prober sent to a target in [from, to) came to.
func analyzeEvents(env *Env, res *Result, actions []action, groups []Group, t0 float64, window func(group int, target topology.NodeID, from, to float64) tally.Window) {
	siteOf := make(map[topology.NodeID]string, len(env.CDN.Sites()))
	for _, s := range env.CDN.Sites() {
		siteOf[s.Node] = s.Code
	}
	label := func(node topology.NodeID) string { return siteLabel(env, siteOf, node) }

	for i := range actions {
		ev := &res.Events[i]
		end := windowEnd(actions, i, res.Horizon)
		ev.WindowEnd = end
		winStart, winEnd := t0+actions[i].at, t0+end

		var recon []float64
		failover := map[string]int{}
		for gi, g := range groups {
			for _, tgt := range g.Targets {
				w := window(gi, tgt, winStart, winEnd)
				ev.Sent += w.Sent
				ev.Answered += w.Answered
				if !w.Lost {
					continue // unaffected by this event
				}
				ev.AffectedTargets++
				// Reconnection: first reply at or after the first loss.
				if w.Reconnected {
					recon = append(recon, w.ReconnectedAt-winStart)
				} else {
					ev.Lost++
				}
				// Failover: where the last reply of the window landed.
				if w.Landed {
					failover[label(w.Site)]++
				}
			}
		}
		ev.Availability = ratio(ev.Answered, ev.Sent)
		ev.Reconnection = summarize(recon)
		if len(failover) > 0 {
			ev.FailoverSites = failover
		}
	}
}

// windowEdges returns the ascending distinct instants that bound the
// metric windows of a campaign started at t0.
func windowEdges(actions []action, t0, horizon float64) []float64 {
	edges := make([]float64, 0, 2*len(actions))
	for i := range actions {
		edges = append(edges, t0+actions[i].at, t0+windowEnd(actions, i, horizon))
	}
	slices.Sort(edges)
	return slices.Compact(edges)
}

// windowEnd returns where action i's metric window ends: at the next
// strictly later action, or the horizon.
func windowEnd(actions []action, i int, horizon float64) float64 {
	for j := i + 1; j < len(actions); j++ {
		if actions[j].at > actions[i].at {
			return actions[j].at
		}
	}
	return horizon
}

func siteLabel(env *Env, siteOf map[topology.NodeID]string, node topology.NodeID) string {
	if code, ok := siteOf[node]; ok {
		return code
	}
	return env.Topo.Node(node).Name
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}
