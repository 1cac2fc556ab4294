package core

import (
	"net/netip"

	"bestofboth/internal/bgp"
	"bestofboth/internal/topology"
)

// Rating is a qualitative level used in the paper's Table 2.
type Rating string

// Ratings used by Table 2.
const (
	Low    Rating = "low"
	Medium Rating = "medium"
	High   Rating = "high"
)

// Tradeoffs summarizes a technique's qualitative properties (Table 2).
type Tradeoffs struct {
	Control      Rating
	Availability Rating
	Risk         Rating
}

// Announcement is one entry of a technique's announcement plan: Site
// originates Prefix under Policy (nil is a plain announcement).
type Announcement struct {
	Site   *Site
	Prefix netip.Prefix
	Policy *bgp.OriginPolicy
}

// Technique is a CDN client-to-site routing strategy (Figure 1): what each
// site announces in normal operation and which address DNS returns to
// steer a client to a given site. A technique whose other sites add
// announcements once a site fails also implements Reactor.
type Technique interface {
	// Name returns the technique's identifier as used in the paper.
	Name() string
	// Plan returns every site's normal-operation announcements (Figure 1,
	// left column) in the order Deploy makes them. Recovery is derived
	// from it: see CDN.RecoverSite.
	Plan(c *CDN) []Announcement
	// SteerAddr returns the address DNS hands to clients the CDN wants at
	// the given site.
	SteerAddr(c *CDN, s *Site) netip.Addr
	// Tradeoffs returns the Table 2 qualitative ratings.
	Tradeoffs() Tradeoffs
}

// Reactor is implemented by techniques that react to a site failure
// (Figure 1, right column): the controller makes React's announcements
// once it detects the failure, and recovery withdraws them again.
type Reactor interface {
	React(c *CDN, failed *Site) []Announcement
}

// backupPlan announces every site's prefix plainly from its own site and
// under backup from every other site, owner by owner: the proactive
// techniques' plan. With scoped, each backup reaches only the neighbors
// the announcing site shares with the prefix's own site, so every network
// hearing the backup also hears the primary and the policy decides; a site
// sharing no neighbor with the owner announces no backup.
func backupPlan(c *CDN, backup bgp.OriginPolicy, scoped bool) []Announcement {
	var plan []Announcement
	for _, owner := range c.sites {
		for _, s := range c.sites {
			if s == owner {
				plan = append(plan, Announcement{s, owner.Prefix, nil})
				continue
			}
			pol := backup
			if scoped {
				pol.PerNeighbor = sharedNeighbors(c, owner, s, backup.Prepend)
				if pol.PerNeighbor == nil {
					continue
				}
			}
			plan = append(plan, Announcement{s, owner.Prefix, &pol})
		}
	}
	return plan
}

// sharedNeighbors is the per-neighbor export policy at site s that admits,
// with the given prepend, only neighbors whose ASN also has a session with
// the owner site. It returns nil if s shares no neighbor with the owner.
func sharedNeighbors(c *CDN, owner, s *Site, prepend int) map[topology.NodeID]bgp.NeighborPolicy {
	topo := c.net.Topology()
	ownerASNs := map[topology.ASN]bool{}
	for _, adj := range topo.Node(owner.Node).Adj {
		ownerASNs[topo.Node(adj.To).ASN] = true
	}
	per := map[topology.NodeID]bgp.NeighborPolicy{}
	shared := false
	for _, adj := range topo.Node(s.Node).Adj {
		if ownerASNs[topo.Node(adj.To).ASN] {
			per[adj.To] = bgp.NeighborPolicy{Export: true, Prepend: prepend}
			shared = true
		} else {
			per[adj.To] = bgp.NeighborPolicy{Export: false}
		}
	}
	if !shared {
		return nil
	}
	return per
}

// --- unicast ---------------------------------------------------------------

// Unicast is DNS-based redirection over per-site prefixes (§2): full
// control, but failover gated entirely by DNS caching.
type Unicast struct{}

// Name implements Technique.
func (Unicast) Name() string { return "unicast" }

// Plan announces each site's own /24 from that site only.
func (Unicast) Plan(c *CDN) []Announcement {
	plan := make([]Announcement, 0, len(c.sites))
	for _, s := range c.sites {
		plan = append(plan, Announcement{s, s.Prefix, nil})
	}
	return plan
}

// SteerAddr returns the site's unicast service address.
func (Unicast) SteerAddr(_ *CDN, s *Site) netip.Addr { return s.Addr }

// Tradeoffs implements Table 2: high control, low availability, low risk.
func (Unicast) Tradeoffs() Tradeoffs { return Tradeoffs{High, Low, Low} }

// --- anycast ---------------------------------------------------------------

// Anycast announces one shared prefix from every site (§2): no per-client
// control, fast failover via BGP reconvergence.
type Anycast struct{}

// Name implements Technique.
func (Anycast) Name() string { return "anycast" }

// Plan announces the shared prefix everywhere.
func (Anycast) Plan(c *CDN) []Announcement {
	plan := make([]Announcement, 0, len(c.sites))
	for _, s := range c.sites {
		plan = append(plan, Announcement{s, AnycastPrefix, nil})
	}
	return plan
}

// SteerAddr returns the shared anycast address regardless of site: BGP, not
// the CDN, picks the site.
func (Anycast) SteerAddr(_ *CDN, _ *Site) netip.Addr { return AnycastServiceAddr }

// Tradeoffs implements Table 2: low control, high availability, low risk.
func (Anycast) Tradeoffs() Tradeoffs { return Tradeoffs{Low, High, Low} }

// --- proactive-superprefix ---------------------------------------------------

// ProactiveSuperprefix is the hybrid non-solution of §3: per-site /24 plus
// a covering prefix announced from every site. Control equals unicast, but
// failover waits out the /24's withdrawal convergence (~100 s median,
// minutes at the tail — Appendix A) because longest-prefix match keeps
// using invalid /24 routes over the valid covering routes.
type ProactiveSuperprefix struct{}

// Name implements Technique.
func (ProactiveSuperprefix) Name() string { return "proactive-superprefix" }

// Plan announces each site's /24 at that site and the covering superprefix
// everywhere.
func (ProactiveSuperprefix) Plan(c *CDN) []Announcement {
	plan := make([]Announcement, 0, 2*len(c.sites))
	for _, s := range c.sites {
		plan = append(plan, Announcement{s, s.Prefix, nil}, Announcement{s, SuperPrefix, nil})
	}
	return plan
}

// SteerAddr returns the site's unicast service address.
func (ProactiveSuperprefix) SteerAddr(_ *CDN, s *Site) netip.Addr { return s.Addr }

// Tradeoffs implements Table 2: high control, medium availability, low risk.
func (ProactiveSuperprefix) Tradeoffs() Tradeoffs { return Tradeoffs{High, Medium, Low} }

// --- reactive-anycast --------------------------------------------------------

// ReactiveAnycast is the paper's first technique (§4): unicast in normal
// operation; upon failure, every other site immediately announces the
// failed site's prefix, injecting valid replacement routes that converge at
// anycast speed. Control is full; the cost is a global routing
// reconfiguration at failure time (high operational risk, §7).
type ReactiveAnycast struct{}

// Name implements Technique.
func (ReactiveAnycast) Name() string { return "reactive-anycast" }

// Plan is unicast's.
func (ReactiveAnycast) Plan(c *CDN) []Announcement { return Unicast{}.Plan(c) }

// React makes every healthy site announce the failed site's prefix.
func (ReactiveAnycast) React(c *CDN, failed *Site) []Announcement {
	var plan []Announcement
	for _, s := range c.HealthySites() {
		plan = append(plan, Announcement{s, failed.Prefix, nil})
	}
	return plan
}

// SteerAddr returns the site's unicast service address.
func (ReactiveAnycast) SteerAddr(_ *CDN, s *Site) netip.Addr { return s.Addr }

// Tradeoffs implements Table 2: high control, high availability, high risk.
func (ReactiveAnycast) Tradeoffs() Tradeoffs { return Tradeoffs{High, High, High} }

// --- proactive-prepending ------------------------------------------------------

// ProactivePrepending is the paper's second technique (§4): every site's
// prefix is announced un-prepended at that site and prepended k times from
// every other site, so backup routes pre-exist failure and no
// reconfiguration is needed. Control is partial — LOCAL_PREF can override
// path length — and deeper prepending trades failover speed for control
// (Appendix C.2).
type ProactivePrepending struct {
	// Prepends is the number of extra origin-ASN copies at backup sites
	// (the paper evaluates 3 and 5).
	Prepends int
	// Scoped, when true, announces backup routes only to neighbors that
	// also connect to the prefix's primary site, the paper's
	// recommendation (§4) for retaining control.
	Scoped bool
}

// Name implements Technique.
func (t ProactivePrepending) Name() string {
	if t.Scoped {
		return "proactive-prepending-scoped"
	}
	return "proactive-prepending"
}

// Plan announces every site prefix from every site: un-prepended at its
// own site, prepended elsewhere.
func (t ProactivePrepending) Plan(c *CDN) []Announcement {
	k := t.Prepends
	if k <= 0 {
		k = 3
	}
	return backupPlan(c, bgp.OriginPolicy{Prepend: k}, t.Scoped)
}

// SteerAddr returns the site's service address (its prefix is globally
// announced; the un-prepended origin should win path-length ties).
func (ProactivePrepending) SteerAddr(_ *CDN, s *Site) netip.Addr { return s.Addr }

// Tradeoffs implements Table 2: medium control, high availability, low risk.
func (ProactivePrepending) Tradeoffs() Tradeoffs { return Tradeoffs{Medium, High, Low} }

// --- combined (reactive-anycast + superprefix, §4) -----------------------------

// Combined layers proactive-superprefix under reactive-anycast. The paper
// implemented it and found it faster only for the fastest ~20% of
// failovers and much worse in the tail — an undesirable tradeoff kept here
// for the ablation bench.
type Combined struct{}

// Name implements Technique.
func (Combined) Name() string { return "combined" }

// Plan is proactive-superprefix's.
func (Combined) Plan(c *CDN) []Announcement { return ProactiveSuperprefix{}.Plan(c) }

// React is reactive-anycast's reaction.
func (Combined) React(c *CDN, failed *Site) []Announcement {
	return ReactiveAnycast{}.React(c, failed)
}

// SteerAddr returns the site's unicast service address.
func (Combined) SteerAddr(_ *CDN, s *Site) netip.Addr { return s.Addr }

// Tradeoffs: as reactive-anycast (high control, high risk); availability
// measured medium-high (tail-heavy).
func (Combined) Tradeoffs() Tradeoffs { return Tradeoffs{High, Medium, High} }

// forget drops a tracked announcement without withdrawing (used after a
// direct net.Withdraw).
func (c *CDN) forget(node topology.NodeID, prefix netip.Prefix) {
	kept := c.announced[:0]
	for _, a := range c.announced {
		if a.node == node && a.prefix == prefix {
			continue
		}
		kept = append(kept, a)
	}
	c.announced = kept
}

// AllTechniques returns one instance of every technique at its paper
// defaults, in the order used throughout the evaluation.
func AllTechniques() []Technique {
	return []Technique{
		ProactiveSuperprefix{},
		ReactiveAnycast{},
		ProactivePrepending{Prepends: 3},
		Anycast{},
		Unicast{},
		Combined{},
	}
}
