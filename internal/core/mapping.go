package core

import (
	"net/netip"

	"bestofboth/internal/iptrie"
	"bestofboth/internal/topology"
)

// EnableEndUserMapping installs per-client DNS answers on the CDN's
// authoritative server ("end-user mapping", Chen et al. — the paper's
// reference [9] for how CDNs steer clients today). Resolvers forwarding an
// EDNS Client Subnet receive the steering address of the lowest-latency
// healthy site that the active technique can actually route the client to;
// answers carry a /24 scope so resolvers cache them per client network.
//
// The mapper consults live controller state on every query: after a site
// failure it stops handing out that site as soon as the zone is asked,
// independent of the static record updates in ReactToFailure.
func (c *CDN) EnableEndUserMapping() { c.installMapper(c.BestSiteFor) }

// installMapper answers ECS queries for the service name with the steering
// address of the site pick chooses for the client network's node.
func (c *CDN) installMapper(pick func(client topology.NodeID) *Site) {
	topo := c.net.Topology()
	clients := iptrie.New[topology.NodeID]()
	for _, n := range topo.Nodes {
		if n.Prefix.IsValid() {
			clients.Insert(n.Prefix, n.ID)
		}
	}
	www := "www." + c.auth.Origin()
	c.auth.SetMapper(func(name string, client netip.Prefix) ([]netip.Addr, uint32, uint8, bool) {
		if name != www {
			return nil, 0, 0, false
		}
		_, node, ok := clients.Lookup(client.Addr())
		if !ok {
			return nil, 0, 0, false
		}
		site := pick(node)
		if site == nil {
			return nil, 0, 0, false
		}
		return []netip.Addr{c.technique.SteerAddr(c, site)}, c.DNSTTL, 24, true
	})
}

// BestSiteFor returns the lowest-latency healthy site that the active
// technique steers the client to, or — if none is steerable — the
// lowest-latency healthy site regardless. Returns nil with no technique
// deployed or no healthy sites.
func (c *CDN) BestSiteFor(client topology.NodeID) *Site {
	if c.technique == nil {
		return nil
	}
	var (
		bestSteer, bestAny   *Site
		steerDelay, anyDelay float64
	)
	for _, s := range c.HealthySites() {
		d := c.plane.StaticDelay(s.Node, client)
		if bestAny == nil || d < anyDelay {
			bestAny, anyDelay = s, d
		}
		if bestSteer == nil || d < steerDelay {
			if c.CanSteer(client, s) {
				bestSteer, steerDelay = s, d
			}
		}
	}
	if bestSteer != nil {
		return bestSteer
	}
	return bestAny
}
