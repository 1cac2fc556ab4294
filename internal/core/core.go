// Package core implements the paper's contribution: CDN client-to-site
// routing techniques that combine unicast's traffic control with anycast's
// fast failover, together with the CDN controller that orchestrates
// announcements, DNS records, failure detection, and reactive
// reconfiguration.
//
// Six techniques are provided (§2, §3, §4 and Figure 1):
//
//	unicast               per-site prefix + DNS redirection only
//	anycast               one shared prefix from every site
//	proactive-superprefix per-site prefix + covering prefix from all sites
//	reactive-anycast      per-site prefix; on failure all other sites
//	                      announce the failed site's prefix
//	proactive-prepending  per-site prefix announced un-prepended at its
//	                      site and prepended (×k) from all other sites
//	combined              reactive-anycast + proactive-superprefix (§4)
//
// Each site is a distinct BGP speaker sharing the CDN's origin ASN, holds a
// dedicated /24, and can be failed: the site withdraws all announcements
// and drops packets, after which the controller's health monitor fires the
// technique's reactive behavior (if any) and updates DNS.
package core

import (
	"fmt"
	"net/netip"
	"sort"

	"bestofboth/internal/bgp"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/dns"
	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// Default prefix plan, modeled on the paper's PEERING allocation
// (184.164.244.0/23): each site gets a /24 from a /21, the /21 itself is
// the covering superprefix, and a separate /24 serves pure anycast.
var (
	// SuperPrefix covers all per-site prefixes.
	SuperPrefix = netip.MustParsePrefix("184.164.240.0/21")
	// AnycastPrefix is the shared prefix for the pure-anycast technique.
	AnycastPrefix = netip.MustParsePrefix("184.164.248.0/24")
	// AnycastServiceAddr is the service address inside AnycastPrefix.
	AnycastServiceAddr = netip.MustParseAddr("184.164.248.10")
)

// SitePrefix returns the /24 assigned to the i-th site (i < 8 under the
// default /21 plan).
func SitePrefix(i int) netip.Prefix {
	a := SuperPrefix.Addr().As4()
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{a[0], a[1], a[2] + byte(i), 0}), 24)
}

// ServiceAddr returns the service address (.10) within a prefix.
func ServiceAddr(p netip.Prefix) netip.Addr {
	a := p.Addr().As4()
	return netip.AddrFrom4([4]byte{a[0], a[1], a[2], 10})
}

// Site is one CDN point of presence.
type Site struct {
	Code string
	Node topology.NodeID
	// Prefix is the site's dedicated unicast /24.
	Prefix netip.Prefix
	// Addr is the service address within Prefix that DNS hands out to
	// steer clients here.
	Addr netip.Addr
}

// announcement tracks one live origination for later withdrawal.
type announcement struct {
	node   topology.NodeID
	prefix netip.Prefix
}

// CDN is the controller: it owns the sites, drives announcements through
// the BGP layer per the active technique, maintains the authoritative DNS
// zone, and reacts to site failures.
type CDN struct {
	net    *bgp.Network     //cdnlint:nosnapshot wiring: the BGP layer snapshots itself (bgp.NetworkSnapshot)
	plane  *dataplane.Plane //cdnlint:nosnapshot wiring: the data plane snapshots itself (dataplane.Snapshot)
	sim    *netsim.Sim      //cdnlint:nosnapshot wiring: the kernel snapshots itself (netsim.Snapshot)
	auth   *dns.Authoritative
	sites  []*Site          //cdnlint:nosnapshot immutable site roster; restore requires an identically built CDN
	byCode map[string]*Site //cdnlint:nosnapshot index over sites, rebuilt at construction

	technique Technique
	announced []announcement
	failed    map[string]bool
	reacted   map[string]bool
	// episode numbers each site's failure episodes: failing and recovering
	// the site both move it on (Episode).
	episode map[string]uint64

	// Load state (nil unless the experiment config enables demand).
	// experiment.NewWorld rebuilds both from the world config; snapshots
	// carry the demand model's rates, the one part that moves afterwards.
	demand *traffic.Model
	load   *traffic.Accountant //cdnlint:nosnapshot measurement sink; reattached by NewWorld and refolded on demand

	// DNSTTL is the TTL on service A records (default 600 s, the ~10 min
	// median TTL of popular domains per Moura et al.).
	DNSTTL uint32

	// Metrics are nil until Instrument attaches a registry (nil-safe).
	m struct {
		transitions *obs.Counter
		byKind      [4]*obs.Counter
		reactions   *obs.Counter
	}
}

// DetectionDelay is the latency of the CDN's health monitoring between a
// site failing (FailSite) and the controller reacting (reactive
// announcements, DNS updates). CDNs deploy real-time monitoring [Odin, NEL];
// this models ~1 s detection plus actuation.
const DetectionDelay netsim.Seconds = 1

// New builds a CDN over every ClassCDN node in the topology, in site-code
// order of the generator's DefaultSiteCodes (stable ordering: by node id),
// serving the zone cdn.example.
func New(net *bgp.Network, plane *dataplane.Plane) (*CDN, error) {
	c := &CDN{
		net:     net,
		plane:   plane,
		sim:     net.Sim(),
		auth:    dns.NewAuthoritative("cdn.example."),
		byCode:  map[string]*Site{},
		failed:  map[string]bool{},
		reacted: map[string]bool{},
		episode: map[string]uint64{},
		DNSTTL:  600,
	}
	nodes := net.Topology().NodesOfClass(topology.ClassCDN)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: topology has no CDN sites")
	}
	if len(nodes) > 8 {
		return nil, fmt.Errorf("core: %d sites exceed the /21 prefix plan", len(nodes))
	}
	for i, n := range nodes {
		if n.Site == "" {
			return nil, fmt.Errorf("core: CDN node %s has no site code", n.Name)
		}
		p := SitePrefix(i)
		s := &Site{Code: n.Site, Node: n.ID, Prefix: p, Addr: ServiceAddr(p)}
		c.sites = append(c.sites, s)
		c.byCode[s.Code] = s
	}
	return c, nil
}

// Sites returns all sites in stable order.
func (c *CDN) Sites() []*Site { return c.sites }

// Site returns the site with the given code, or nil.
func (c *CDN) Site(code string) *Site { return c.byCode[code] }

// Authoritative exposes the CDN's DNS server.
func (c *CDN) Authoritative() *dns.Authoritative { return c.auth }

// Instrument attaches controller metrics to r — site transitions (total
// and per kind) and failure reactions — and instruments the authoritative
// DNS server. A nil registry detaches.
func (c *CDN) Instrument(r *obs.Registry) {
	c.m.transitions = r.Counter("cdn_site_transitions_total")
	for k := TransitionCrash; k <= TransitionRecover; k++ {
		c.m.byKind[k] = r.Counter("cdn_site_transitions_" + k.String() + "_total")
	}
	c.m.reactions = r.Counter("cdn_failure_reactions_total")
	c.auth.Instrument(r)
	if c.load != nil {
		c.load.Instrument(r)
	}
}

// Technique returns the active technique, or nil before Deploy.
func (c *CDN) Technique() Technique { return c.technique }

// Plane returns the data plane (for catchment queries in examples/tools).
func (c *CDN) Plane() *dataplane.Plane { return c.plane }

// announce originates prefix at node and records it for cleanup.
func (c *CDN) announce(node topology.NodeID, prefix netip.Prefix, pol *bgp.OriginPolicy) error {
	if err := c.net.Originate(node, prefix, pol); err != nil {
		return err
	}
	c.announced = append(c.announced, announcement{node, prefix})
	return nil
}

// announcePlan makes a plan's announcements in order.
func (c *CDN) announcePlan(plan []Announcement) error {
	for _, a := range plan {
		if err := c.announce(a.Site.Node, a.Prefix, a.Policy); err != nil {
			return err
		}
	}
	return nil
}

// withdraw removes one origination and forgets it.
func (c *CDN) withdraw(node topology.NodeID, prefix netip.Prefix) {
	c.net.Withdraw(node, prefix)
	c.forget(node, prefix)
}

// withdrawAll withdraws every live announcement made by node.
func (c *CDN) withdrawAll(node topology.NodeID) {
	kept := c.announced[:0]
	for _, a := range c.announced {
		if a.node == node {
			c.net.Withdraw(a.node, a.prefix)
		} else {
			kept = append(kept, a)
		}
	}
	c.announced = kept
}

// Deploy activates a technique: it announces the technique's plan and
// publishes DNS records. Deploy must be called once per CDN instance.
func (c *CDN) Deploy(t Technique) error {
	_, err := c.deploy(t, true)
	return err
}

// DeployInstalled is Deploy for a network whose routing the caller installs
// itself (bgp.Network.Install of a solve of the returned plan): the
// controller records the technique and the plan's announcements and
// publishes the DNS zone exactly as Deploy does, but originates nothing, so
// no UPDATE is scheduled.
func (c *CDN) DeployInstalled(t Technique) ([]Announcement, error) {
	return c.deploy(t, false)
}

func (c *CDN) deploy(t Technique, announce bool) ([]Announcement, error) {
	if c.technique != nil {
		return nil, fmt.Errorf("core: technique %s already deployed", c.technique.Name())
	}
	c.technique = t
	if c.load != nil {
		if sh, ok := t.(Shedder); ok {
			c.load.SetShedding(sh.ShedsOverload())
		}
	}
	plan := t.Plan(c)
	if announce {
		if err := c.announcePlan(plan); err != nil {
			return nil, fmt.Errorf("core: deploying %s: %w", t.Name(), err)
		}
	} else {
		for _, a := range plan {
			c.announced = append(c.announced, announcement{a.Site.Node, a.Prefix})
		}
	}
	// Publish per-site service names and the main service name. The main
	// name initially maps every client to the technique's default: for
	// anycast the shared address, otherwise the first site (per-client
	// steering is applied by the harness via SteerAddr).
	for _, s := range c.sites {
		if err := c.auth.SetA(s.Code, c.DNSTTL, t.SteerAddr(c, s)); err != nil {
			return nil, err
		}
	}
	return plan, c.auth.SetA("www", c.DNSTTL, t.SteerAddr(c, c.sites[0]))
}

// Failed reports whether the site is currently failed.
func (c *CDN) Failed(code string) bool { return c.failed[code] }

// Episode identifies the site's current failure episode: every transition
// that fails or recovers the site changes it. Work scheduled for one
// episode, such as a drain's grace timer, compares it to tell that the site
// has moved on since.
func (c *CDN) Episode(code string) uint64 { return c.episode[code] }

// AnnouncementsAt returns the number of live originations the controller
// currently holds at the site (0 for unknown sites).
func (c *CDN) AnnouncementsAt(code string) int {
	s := c.byCode[code]
	if s == nil {
		return 0
	}
	n := 0
	for _, a := range c.announced {
		if a.node == s.Node {
			n++
		}
	}
	return n
}

// HealthySites returns all non-failed sites.
func (c *CDN) HealthySites() []*Site {
	var out []*Site
	for _, s := range c.sites {
		if !c.failed[s.Code] {
			out = append(out, s)
		}
	}
	return out
}

// CatchmentOf returns the site currently attracting traffic from the
// client node toward addr, or nil if unreachable or delivered to a
// non-site node.
func (c *CDN) CatchmentOf(client topology.NodeID, addr netip.Addr) *Site {
	dest, ok := c.plane.Catchment(client, addr)
	if !ok {
		return nil
	}
	for _, s := range c.sites {
		if s.Node == dest {
			return s
		}
	}
	return nil
}

// CanSteer reports whether the active technique routes the client to the
// intended site when DNS hands out the steering address for that site —
// the paper's traffic-control metric (§5.4.2).
func (c *CDN) CanSteer(client topology.NodeID, site *Site) bool {
	got := c.CatchmentOf(client, c.technique.SteerAddr(c, site))
	return got != nil && got.Node == site.Node
}
