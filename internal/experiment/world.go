// Package experiment implements the paper's evaluation (§5 and the
// appendices): target selection, failover runs with Verfploeter-style
// probing, reconnection/failover metrics, traffic-control measurement,
// collector-side convergence studies, and the renderers that regenerate
// every figure and table.
package experiment

import (
	"fmt"

	"bestofboth/internal/bgp"
	"bestofboth/internal/collector"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// WorldConfig parameterizes one simulated Internet + CDN instance.
type WorldConfig struct {
	// Seed drives both topology generation and event timing. Runs with
	// equal seeds are bit-identical.
	Seed int64
	// Topology overrides the topology generator configuration. The Seed
	// field inside is ignored in favor of Seed above.
	Topology topology.GenConfig
	// BGP overrides protocol timing; zero value uses bgp.DefaultConfig.
	BGP bgp.Config
	// CollectorPeers is the number of route-collector peer sessions
	// (default 40, emulating the RIS/RouteViews full-feed peers used in
	// Appendices A and B).
	CollectorPeers int
	// Shards splits the BGP speakers of each world across this many shard
	// simulators run in deterministic phase-barrier rounds (see bgp.NewSharded).
	// <= 1 means the classic single-kernel world (fillDefaults normalizes
	// it to 1). Converged digests are bit-identical at any shard count, but
	// transient message timing follows shard-local jitter streams, so
	// Shards is a simulation-identity field and participates in the config
	// digest.
	Shards int
	// Demand, when Enabled, attaches a seeded heavy-tailed demand model and
	// load accountant to the CDN (internal/traffic): every client target
	// gets a request rate drawn from Seed, every site a capacity. Demand is
	// simulation identity — it changes load-management behavior — so it
	// participates in snapKey and the config digest.
	Demand traffic.Config
	// Obs, when non-nil, instruments every layer of worlds built from this
	// config. It takes no part in simulation identity: snapKey ignores it,
	// and snapshots strip it.
	Obs *obs.Registry
}

func (c *WorldConfig) fillDefaults() {
	if c.BGP == (bgp.Config{}) {
		c.BGP = bgp.DefaultConfig()
	}
	if c.CollectorPeers == 0 {
		c.CollectorPeers = 40
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	c.Topology.Seed = c.Seed
}

// identity canonicalizes the simulation-identity fields of the config,
// defaults filled: two configs render equally exactly when they build
// bit-identical worlds. Obs takes no part (it never affects results).
// Shards participates even though route state is shard-count invariant: a
// snapshot's kernel list is sized to the shard count, so a snapshot taken
// at one count cannot restore into a world at another.
func (c WorldConfig) identity() string {
	c.fillDefaults()
	return fmt.Sprintf("seed=%d topo=%+v bgp=%+v peers=%d shards=%d demand=%+v",
		c.Seed, c.Topology, c.BGP, c.CollectorPeers, c.Shards, c.Demand)
}

// World bundles one fully wired simulation: topology, BGP, data plane,
// CDN controller, and a route collector.
type World struct {
	Cfg       WorldConfig
	Sim       *netsim.Sim
	Topo      *topology.Topology //cdnlint:nosnapshot immutable after Build; identical worlds regenerate it from Cfg
	Net       *bgp.Network
	Plane     *dataplane.Plane
	CDN       *core.CDN
	Collector *collector.Collector
}

// NewWorld builds a world from cfg. The CDN is constructed but no
// technique is deployed yet.
func NewWorld(cfg WorldConfig) (*World, error) {
	cfg.fillDefaults()
	// Cached memoizes generation per GenConfig: experiment matrices share
	// one immutable topology across every ⟨technique, failed site⟩ run.
	topo, err := topology.Cached(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("experiment: generating topology: %w", err)
	}
	sim := netsim.New(cfg.Seed)
	// One shard is the classic single-kernel network (bgp.New).
	net, err := bgp.NewSharded(sim, topo, cfg.BGP, cfg.Shards, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiment: sharding BGP: %w", err)
	}
	plane := dataplane.New(net)
	cdn, err := core.New(net, plane)
	if err != nil {
		return nil, fmt.Errorf("experiment: building CDN: %w", err)
	}
	col := collector.New("rrc00")
	if err := col.Attach(net, collector.SelectPeers(topo, cfg.CollectorPeers, cfg.Seed)...); err != nil {
		return nil, fmt.Errorf("experiment: attaching collector: %w", err)
	}
	if cfg.Demand.Enabled {
		// As built, the demand model is a pure function of (Seed, topology,
		// site roster): restored worlds rebuild it here and
		// core.CDN.Restore overwrites its rates from the snapshot.
		codes := make([]string, 0, len(cdn.Sites()))
		for _, s := range cdn.Sites() {
			codes = append(codes, s.Code)
		}
		model, err := traffic.NewModel(cfg.Demand, cfg.Seed, clientTargets(topo), codes)
		if err != nil {
			return nil, fmt.Errorf("experiment: building demand model: %w", err)
		}
		cdn.AttachLoad(model, traffic.NewAccountant(model))
	}
	w := &World{
		Cfg: cfg, Sim: sim, Topo: topo, Net: net,
		Plane: plane, CDN: cdn, Collector: col,
	}
	w.Instrument(cfg.Obs)
	return w, nil
}

// NewConvergedWorld builds a world with tech deployed and converged, each
// converge bounded to convergeTime virtual seconds: the shared pre-failure
// trajectory of every failover run of one technique, what a WorldSnapshot
// captures, and the starting point for callers that inspect the converged
// state itself (the cdnsim load command, the control-plane daemon).
//
// A solvable world (solvable) is solved, not simulated: the controller and
// DNS zone are deployed as Deploy leaves them (core.CDN.DeployInstalled),
// and tech's plan is solved (bgp.Solve) and installed into the RIBs
// (bgp.Network.Install) and the FIBs. Any other world deploys and settles
// event by event (World.Settle). A world with a fixed point (fixedPoint),
// solved or simulated, then waits out the bound, as the paper waits an hour
// before failing a site (§5.2), and its kernels restart their random streams
// from the seed (netsim.Sim.Handoff): the fault finds every MRAI deadline
// and delivery clock behind it and a stream no converge drew from, so both
// paths hand over one state (TestSolvedWorldMatchesConverged). A world
// without one goes to its fault where its settle ends, as it always has.
func NewConvergedWorld(cfg WorldConfig, tech core.Technique, convergeTime float64) (*World, error) {
	return convergedWorld(cfg, tech, convergeTime, solvable(cfg, tech))
}

// fixedPoint reports whether a converge of cfg's world under tech settles on
// the clock-free fixed point bgp.Solve computes from tech's plan. Two worlds
// have none. Under route-flap damping the state after a converge depends on
// when routes flapped (bgp.ErrSolveDamping), and the penalties a converge
// leaves decay with the clock. A core.Rebalancer under demand withdraws
// announcements as it settles, by a loop of converges.
func fixedPoint(cfg WorldConfig, tech core.Technique) bool {
	cfg.fillDefaults()
	_, rebalances := tech.(core.Rebalancer)
	return !cfg.BGP.Damping && !(rebalances && cfg.Demand.Enabled)
}

// solvable reports whether NewConvergedWorld solves cfg's world: when it has
// a fixed point and runs on one kernel. A sharded world is a request for the
// sharded converge itself: what its shard kernels execute is what
// bgp.Network.ShardEventCounts reports.
func solvable(cfg WorldConfig, tech core.Technique) bool {
	cfg.fillDefaults()
	return fixedPoint(cfg, tech) && cfg.Shards == 1
}

// convergedWorld is NewConvergedWorld with the path chosen by the caller.
func convergedWorld(cfg WorldConfig, tech core.Technique, convergeTime float64, solve bool) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	if solve {
		plan, err := w.CDN.DeployInstalled(tech)
		if err != nil {
			return nil, fmt.Errorf("experiment: deploying %s: %w", tech.Name(), err)
		}
		sol, err := solvePlan(w, tech, plan)
		if err != nil {
			return nil, err
		}
		if err := w.Net.Install(sol); err != nil {
			return nil, fmt.Errorf("experiment: installing %s: %w", tech.Name(), err)
		}
		w.Plane.InstallSolution(sol)
		w.CDN.RefreshLoad()
	} else {
		if err := w.CDN.Deploy(tech); err != nil {
			return nil, fmt.Errorf("experiment: deploying %s: %w", tech.Name(), err)
		}
		if err := w.Settle(convergeTime); err != nil {
			return nil, err
		}
	}
	if fixedPoint(cfg, tech) {
		w.Sim.Handoff(max(convergeTime, w.Sim.Now()))
	}
	return w, nil
}

// solvedWorld builds a read-only world routed as tech's deployed and
// converged world would be: NewWorld, then tech's plan solved (bgp.Solve)
// and written into the FIBs. Nothing is deployed, so the kernel and the BGP
// RIBs stay empty and CDN.Transition refuses faults; the FIBs, and the
// probes and catchments they answer, are the converged world's. Only
// callers that read that fixed point and drop the world get one, and only
// for a technique whose settled announcements are its plan (a Rebalancer
// under demand withdraws some as it settles).
func solvedWorld(cfg WorldConfig, tech core.Technique) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	sol, err := solvePlan(w, tech, tech.Plan(w.CDN))
	if err != nil {
		return nil, err
	}
	w.Plane.InstallSolution(sol)
	return w, nil
}

// solvePlan solves the routing that plan's announcements leave in w's
// topology.
func solvePlan(w *World, tech core.Technique, plan []core.Announcement) (*bgp.Solution, error) {
	origs := make([]bgp.Origination, len(plan))
	for i, a := range plan {
		origs[i] = bgp.Origination{Node: a.Site.Node, Prefix: a.Prefix, Policy: a.Policy}
	}
	sol, err := bgp.Solve(w.Topo, w.Cfg.BGP, origs)
	if err != nil {
		return nil, fmt.Errorf("experiment: solving %s: %w", tech.Name(), err)
	}
	return sol, nil
}

// Instrument attaches (or, with nil, detaches) an observability registry
// across every layer of the world: kernel, BGP, data plane, and the CDN
// (including its authoritative DNS). Instrumentation is pure counting and
// never perturbs the simulation, so instrumented runs stay bit-identical
// to bare ones.
func (w *World) Instrument(r *obs.Registry) {
	w.Cfg.Obs = r
	w.Sim.Instrument(r)
	w.Net.Instrument(r)
	w.Plane.Instrument(r)
	w.CDN.Instrument(r)
}

// Env adapts the world to the scenario engine's environment, the one seam
// through which scenario runs and control-plane mutation batches act on it.
func (w *World) Env() *scenario.Env {
	return &scenario.Env{Sim: w.Sim, Topo: w.Topo, Net: w.Net, Plane: w.Plane, CDN: w.CDN}
}

// Converge drains control-plane events up to maxVirtual seconds, the
// harness analogue of the paper's "wait one hour to ensure convergence"
// (§5.2).
func (w *World) Converge(maxVirtual float64) {
	w.Net.ConvergeSynchronously(maxVirtual)
}

// Settle converges the world, each converge bounded to bound virtual
// seconds, and brings its load management to rest — the trajectory after a
// deploy and after every control-plane mutation batch, shared so a dry run
// on a scratch world predicts the live one. Techniques with a
// post-convergence control loop (core.Rebalancer, i.e. the Sinha et al.
// load shifting) alternate rebalance steps with reconvergence until the
// fixed point: every step only withdraws announcements, so the loop
// terminates within core.MaxRebalanceRounds and cannot oscillate. Each
// converge drains the event queue, so a settled world stays snapshottable.
func (w *World) Settle(bound float64) error {
	w.Converge(bound)
	if w.CDN.Demand() == nil {
		return nil
	}
	if reb, ok := w.CDN.Technique().(core.Rebalancer); ok {
		for i := 0; i < core.MaxRebalanceRounds; i++ {
			changed, err := reb.Rebalance(w.CDN)
			if err != nil {
				return fmt.Errorf("experiment: rebalancing %s: %w", w.CDN.Technique().Name(), err)
			}
			if !changed {
				break
			}
			w.Converge(bound)
		}
	}
	w.CDN.RefreshLoad()
	return nil
}

// Targets returns every prefix-bearing client node (eyeballs, stubs,
// universities), the simulation's stand-in for the ISI hitlist filtered to
// web-client networks (§5.1). Hypergiants are excluded: they host servers,
// not CDN clients.
func (w *World) Targets() []*topology.Node {
	return clientTargets(w.Topo)
}

// clientTargets is the target filter shared by World.Targets and the
// demand model: prefix-bearing non-hypergiant client nodes.
func clientTargets(topo *topology.Topology) []*topology.Node {
	var out []*topology.Node
	for _, n := range topo.Nodes {
		if !n.Prefix.IsValid() {
			continue
		}
		if n.Class == topology.ClassHypergiant {
			continue
		}
		out = append(out, n)
	}
	return out
}
