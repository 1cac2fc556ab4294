package core

import (
	"fmt"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// Monitor is the CDN's health-monitoring subsystem. The paper's
// reactive-anycast "requires a real-time monitoring system to detect site
// outages, similar to ones that CDNs have deployed" (§4, citing Odin and
// Network Error Logging); this models one: every MonitorInterval seconds
// each site is probed from the topology's tier-1 nodes over the live data
// plane (CDN sites share an origin AS, so eBGP loop prevention keeps them
// from reaching each other's prefixes — exactly why real CDNs measure from
// clients), and after MonitorMisses consecutive probe failures the
// controller reaction (ReactToFailure) fires. Detection latency therefore
// *emerges* from the probing schedule instead of being an assumed constant.
type Monitor struct {
	cdn *CDN
	// OnDetect, if set, observes each detection (site code, virtual time).
	OnDetect func(code string, at netsim.Seconds)
	// vantages are the tier-1 nodes probes originate from; a site is
	// declared down only when no vantage reaches it.
	vantages []topology.NodeID

	misses   map[string]int
	declared map[string]bool
	stopped  bool
	// Detections counts failures declared so far.
	Detections int
}

// MonitorInterval × MonitorMisses is the health monitor's schedule: a probe
// every 0.5 s and three misses to declare a site down yields ~1.5-2 s
// detection, matching the DetectionDelay the fixed-delay failover
// experiments assume.
const (
	MonitorInterval netsim.Seconds = 0.5
	MonitorMisses                  = 3
)

// StartMonitor begins health monitoring. The monitor watches a site only
// while the deployed technique's plan announces the site's own prefix at
// that site: the health check is addressed to that prefix, and a technique
// that never announces it (anycast, load-shed, load-shift over anycast)
// would have every healthy site declared down. Under such a technique a
// silent crash goes undetected, as it does without a monitor.
func (c *CDN) StartMonitor() (*Monitor, error) {
	if c.technique == nil {
		return nil, fmt.Errorf("core: deploy a technique before monitoring")
	}
	m := &Monitor{
		cdn:      c,
		misses:   map[string]int{},
		declared: map[string]bool{},
	}
	for _, n := range c.net.Topology().NodesOfClass(topology.ClassTier1) {
		m.vantages = append(m.vantages, n.ID)
	}
	if len(m.vantages) == 0 {
		return nil, fmt.Errorf("core: no tier-1 vantage points in topology")
	}
	m.schedule()
	return m, nil
}

// Stop halts monitoring after the current cycle.
func (m *Monitor) Stop() { m.stopped = true }

func (m *Monitor) schedule() {
	m.cdn.sim.After(MonitorInterval, func() {
		if m.stopped {
			return
		}
		m.probeAll()
		m.schedule()
	})
}

// probeAll checks reachability of every watched site from a healthy
// vantage, in site order.
func (m *Monitor) probeAll() {
	own := map[*Site]bool{}
	for _, a := range m.cdn.technique.Plan(m.cdn) {
		if a.Prefix == a.Site.Prefix {
			own[a.Site] = true
		}
	}
	for _, s := range m.cdn.sites {
		if !own[s] {
			continue
		}
		if m.declared[s.Code] && m.cdn.failed[s.Code] {
			continue // already handled this episode
		}
		ok := false
		for _, v := range m.vantages {
			if m.probe(v, s) {
				ok = true
				break
			}
		}
		if ok {
			m.misses[s.Code] = 0
			m.declared[s.Code] = false
			continue
		}
		m.misses[s.Code]++
		if m.misses[s.Code] >= MonitorMisses && !m.declared[s.Code] {
			m.declared[s.Code] = true
			m.Detections++
			at := m.cdn.sim.Now()
			// The site may have crashed without the controller knowing
			// (CrashSite); mark it failed so the reaction can run.
			if !m.cdn.failed[s.Code] {
				m.cdn.markFailed(s)
			}
			m.cdn.ReactToFailure(s.Code)
			if m.OnDetect != nil {
				m.OnDetect(s.Code, at)
			}
		}
	}
}

// probe sends one health check: can the vantage reach the site's steering
// address, landing at that site?
func (m *Monitor) probe(vantage topology.NodeID, s *Site) bool {
	// An internal health check reaches the site over its own prefix; if
	// the site is down the packet is dropped at the site (or rerouted
	// elsewhere once other sites cover the prefix, which still means the
	// site itself is unhealthy).
	res := m.cdn.plane.Forward(vantage, s.Addr)
	return res.Delivered && res.Dest == s.Node
}
