package core

import (
	"fmt"
	"net/netip"

	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// This file implements the two Sinha et al. distributed load-management
// algorithms ("Distributed Load Management in Anycast-based CDNs" and its
// journal successor) as first-class techniques beside the paper's five:
//
//	load-shift  prefix-granularity anycast load shifting — demand hashes
//	            into /27 buckets carved from the anycast /24, every bucket
//	            is announced everywhere, and the controller iteratively
//	            withdraws the most-loaded bucket from the most-overloaded
//	            site until no healthy site exceeds capacity. Withdrawals
//	            are the only move, so the announcement set descends a
//	            finite lattice: the iteration reaches a fixed point in at
//	            most sites×buckets steps and cannot oscillate — the
//	            papers' stability argument, made literal.
//	load-shed   overload-triggered shedding — plain anycast announcements;
//	            an overloaded site serves up to capacity and sheds the
//	            excess (the accountant's shedding policy).
//
// Load state (a traffic.Model plus traffic.Accountant) attaches to the CDN
// via AttachLoad; it is derived deterministically from the world config,
// so snapshots regenerate rather than serialize it.

// LoadBuckets is the number of /27 load-shift buckets carved from
// AnycastPrefix (a /24 splits into exactly eight /27s).
const LoadBuckets = traffic.MaxBuckets

// MaxRebalanceRounds bounds the load-shift control loop. The lattice
// argument gives sites×buckets as the true bound; 128 covers the full
// 8×8 plan with slack.
const MaxRebalanceRounds = 128

// LoadBucketPrefix returns the i-th /27 load-shift bucket inside
// AnycastPrefix (i < LoadBuckets).
func LoadBucketPrefix(i int) netip.Prefix {
	a := AnycastPrefix.Addr().As4()
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{a[0], a[1], a[2], byte(i * 32)}), 27)
}

// LoadBucketAddr returns the service address (.10 within the bucket) that
// demand hashed into bucket i targets.
func LoadBucketAddr(i int) netip.Addr {
	a := AnycastPrefix.Addr().As4()
	return netip.AddrFrom4([4]byte{a[0], a[1], a[2], byte(i*32 + 10)})
}

// DemandAddresser is implemented by techniques whose user demand targets a
// per-target address (rather than the main service record): load-shift
// demand goes to the target's bucket address.
type DemandAddresser interface {
	DemandAddr(c *CDN, target topology.NodeID) netip.Addr
}

// Rebalancer is implemented by techniques with a post-convergence control
// loop. The experiment harness alternates Rebalance with BGP convergence
// until Rebalance reports no change (the fixed point) or
// MaxRebalanceRounds elapses.
type Rebalancer interface {
	// Rebalance performs one control-loop step against converged routing
	// state, returning whether it changed any announcement.
	Rebalance(c *CDN) (changed bool, err error)
}

// Shedder is implemented by techniques that shed overload instead of
// serving it degraded; Deploy switches the accountant's policy from it.
type Shedder interface {
	ShedsOverload() bool
}

// AttachLoad wires a demand model and its accountant into the controller.
// Call before Deploy; the experiment layer does this for every world whose
// config enables demand.
func (c *CDN) AttachLoad(m *traffic.Model, a *traffic.Accountant) {
	c.demand = m
	c.load = a
}

// Demand returns the attached demand model, or nil.
func (c *CDN) Demand() *traffic.Model { return c.demand }

// Load returns the attached load accountant, or nil.
func (c *CDN) Load() *traffic.Accountant { return c.load }

// siteIndexOf maps a dataplane destination node to its index in the
// stable site order, or -1.
func (c *CDN) siteIndexOf(node topology.NodeID) int {
	for i, s := range c.sites {
		if s.Node == node {
			return i
		}
	}
	return -1
}

// demandAddr is the address a target's user demand flows toward under the
// active technique: the technique's per-target address when it implements
// DemandAddresser (load-shift buckets), otherwise the main service
// record's address — the same default Deploy publishes as "www", modeling
// un-steered resolution.
func (c *CDN) demandAddr(target topology.NodeID) netip.Addr {
	if da, ok := c.technique.(DemandAddresser); ok {
		return da.DemandAddr(c, target)
	}
	return c.technique.SteerAddr(c, c.sites[0])
}

// RefreshLoad re-folds current catchments into the load accountant: each
// target's demand is attributed to the site whose catchment it is in at
// this instant (unserved if none). Every lifecycle transition triggers a
// refresh, so failed or drained sites cannot retain stale offered/shed
// counters — the fold's Begin zeroes every site before re-attribution.
// No-op without attached load state or before Deploy.
func (c *CDN) RefreshLoad() {
	if c.load == nil || c.demand == nil || c.technique == nil {
		return
	}
	c.load.Fold(c.demand, func(id topology.NodeID) int {
		dest, ok := c.plane.Catchment(id, c.demandAddr(id))
		if !ok {
			return -1
		}
		return c.siteIndexOf(dest)
	})
}

// DemandSiteOf returns the site currently catching the target's user
// demand (the catchment of its demand address), or nil. Scenario events
// (flash crowds) use it to find the population whose demand a site's
// catchment carries.
func (c *CDN) DemandSiteOf(target topology.NodeID) *Site {
	if c.technique == nil {
		return nil
	}
	return c.CatchmentOf(target, c.demandAddr(target))
}

// announcedAt reports whether node currently originates prefix.
func (c *CDN) announcedAt(node topology.NodeID, prefix netip.Prefix) bool {
	for _, a := range c.announced {
		if a.node == node && a.prefix == prefix {
			return true
		}
	}
	return false
}

// --- load-shift (Sinha et al. prefix-granularity anycast shifting) ----------

// LoadShift is the Sinha et al. prefix-granularity load-shifting
// technique. Demand hashes into /27 buckets of the anycast /24; every
// healthy site announces the covering /24 plus every bucket, and the
// rebalance loop withdraws the most-loaded bucket from the most-overloaded
// site until no healthy site exceeds capacity. The covering /24 keeps
// every bucket reachable even if a bucket's last announcement disappears
// with a failed site.
//
// Base optionally layers the bucket overlay on another announcement
// technique (its per-site prefixes and reactions run unchanged beside the
// buckets); nil is the pure anycast-bucket form.
type LoadShift struct {
	Base Technique
}

// Name implements Technique.
func (t LoadShift) Name() string {
	if t.Base != nil {
		return "load-shift+" + t.Base.Name()
	}
	return "load-shift"
}

// Plan is the base technique's plan (if any) followed by the covering
// anycast /24 and every bucket /27 from every site. A recovered site gets
// the full bucket set back; a fresh rebalance pass re-derives any shifts
// the failure episode invalidated.
func (t LoadShift) Plan(c *CDN) []Announcement {
	var plan []Announcement
	if t.Base != nil {
		plan = t.Base.Plan(c)
	}
	_, baseIsAnycast := t.Base.(Anycast)
	for _, s := range c.sites {
		if !baseIsAnycast { // Anycast base already announces the /24
			plan = append(plan, Announcement{s, AnycastPrefix, nil})
		}
		for b := 0; b < LoadBuckets; b++ {
			plan = append(plan, Announcement{s, LoadBucketPrefix(b), nil})
		}
	}
	return plan
}

// React is the base technique's reaction; for the bucket overlay the
// failed site's withdrawal suffices (anycast semantics).
func (t LoadShift) React(c *CDN, failed *Site) []Announcement {
	if r, ok := t.Base.(Reactor); ok {
		return r.React(c, failed)
	}
	return nil
}

// SteerAddr returns the base technique's steering address, or the shared
// anycast address in the pure form (BGP, not the CDN, picks the site).
func (t LoadShift) SteerAddr(c *CDN, s *Site) netip.Addr {
	if t.Base != nil {
		return t.Base.SteerAddr(c, s)
	}
	return AnycastServiceAddr
}

// DemandAddr implements DemandAddresser: demand targets its bucket's
// service address.
func (t LoadShift) DemandAddr(c *CDN, target topology.NodeID) netip.Addr {
	if c.demand != nil {
		if b := c.demand.Bucket(target); b >= 0 {
			return LoadBucketAddr(b)
		}
	}
	return AnycastServiceAddr
}

// Rebalance implements Rebalancer: one step of the Sinha et al.
// algorithm. It folds per-⟨site, bucket⟩ offered load from converged
// catchments; if no healthy site is over capacity it reports the fixed
// point, otherwise it withdraws the most-loaded bucket (lowest index on
// ties) still announced elsewhere from the most-overloaded site (lowest
// index on ties). Because the only move is a withdrawal, repeated steps
// strictly shrink the announcement set and must reach a fixed point —
// the papers' provable-stability property.
func (t LoadShift) Rebalance(c *CDN) (bool, error) {
	m := c.demand
	if m == nil || c.load == nil {
		return false, nil
	}
	if m.NumSites() != len(c.sites) {
		return false, fmt.Errorf("core: demand model has %d sites, CDN has %d", m.NumSites(), len(c.sites))
	}
	nb := m.NumBuckets()
	load := make([][]int64, len(c.sites))
	for i := range load {
		load[i] = make([]int64, nb)
	}
	m.Each(func(id topology.NodeID, micro int64, bucket int) {
		dest, ok := c.plane.Catchment(id, LoadBucketAddr(bucket))
		if !ok {
			return
		}
		if si := c.siteIndexOf(dest); si >= 0 {
			load[si][bucket] += micro
		}
	})
	worst, worstExcess := -1, int64(0)
	for i, s := range c.sites {
		if c.failed[s.Code] {
			continue
		}
		var off int64
		for _, v := range load[i] {
			off += v
		}
		if excess := off - m.Capacity(i); excess > worstExcess {
			worst, worstExcess = i, excess
		}
	}
	if worst < 0 {
		return false, nil // fixed point: no healthy site above capacity
	}
	// The heaviest bucket at the overloaded site that is announced there
	// and still announced at at least one other healthy site, so the
	// withdrawal moves load instead of stranding it.
	best, bestLoad := -1, int64(0)
	for b := 0; b < nb; b++ {
		if load[worst][b] <= bestLoad {
			continue
		}
		if !c.announcedAt(c.sites[worst].Node, LoadBucketPrefix(b)) {
			continue
		}
		elsewhere := false
		for i, s := range c.sites {
			if i != worst && !c.failed[s.Code] && c.announcedAt(s.Node, LoadBucketPrefix(b)) {
				elsewhere = true
				break
			}
		}
		if elsewhere {
			best, bestLoad = b, load[worst][b]
		}
	}
	if best < 0 {
		return false, nil // stable: overload persists but no movable bucket remains
	}
	c.withdraw(c.sites[worst].Node, LoadBucketPrefix(best))
	return true, nil
}

// Tradeoffs: prefix-granularity movement retains partial control, anycast
// buckets keep availability high, and announcement churn at overload time
// carries medium risk.
func (LoadShift) Tradeoffs() Tradeoffs { return Tradeoffs{Medium, High, Medium} }

// --- load-shed (Sinha et al. overload-triggered shedding) -------------------

// LoadShed is overload-triggered shedding over plain anycast: BGP places
// clients, and a site offered more than its capacity serves exactly its
// capacity and sheds the excess. Announcement behavior is identical to
// Anycast; the policy lives in the load accountant.
type LoadShed struct{}

// Name implements Technique.
func (LoadShed) Name() string { return "load-shed" }

// Plan is anycast's.
func (LoadShed) Plan(c *CDN) []Announcement { return Anycast{}.Plan(c) }

// SteerAddr returns the shared anycast address.
func (LoadShed) SteerAddr(_ *CDN, _ *Site) netip.Addr { return AnycastServiceAddr }

// ShedsOverload implements Shedder.
func (LoadShed) ShedsOverload() bool { return true }

// Tradeoffs: anycast's low control and high availability; shedding bounds
// site load so operational risk stays low.
func (LoadShed) Tradeoffs() Tradeoffs { return Tradeoffs{Low, High, Low} }

// SevenTechniques returns the paper's five announcement techniques plus
// the two load-management techniques — the set the user-weighted
// evaluation compares.
func SevenTechniques() []Technique {
	return []Technique{
		ProactiveSuperprefix{},
		ReactiveAnycast{},
		ProactivePrepending{Prepends: 3},
		Anycast{},
		Unicast{},
		LoadShift{},
		LoadShed{},
	}
}
