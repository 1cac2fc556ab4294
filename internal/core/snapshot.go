package core

import (
	"fmt"
	"maps"
	"slices"

	"bestofboth/internal/dns"
)

// Snapshot is a deep copy of the controller's mutable state: the deployed
// technique, the live announcement ledger, failure/reaction bookkeeping,
// the DNS zone contents, and the demand model's current per-target rates
// (nil without a demand model). Together with the BGP and kernel snapshots
// it lets a converged deployment be rebuilt without re-running Deploy and
// the convergence phase.
//
// Techniques are stateless value types (their configuration, e.g. prepend
// depth, is immutable after construction), so the snapshot shares the
// technique itself.
type Snapshot struct {
	technique   Technique
	announced   []announcement
	failed      map[string]bool
	reacted     map[string]bool
	dualStack   bool
	dnsTTL      uint32
	zone        dns.ZoneSnapshot
	demandRates []int64
}

// Snapshot deep-copies the controller state.
func (c *CDN) Snapshot() *Snapshot {
	var rates []int64
	if c.demand != nil {
		rates = c.demand.Rates()
	}
	return &Snapshot{
		technique:   c.technique,
		announced:   slices.Clone(c.announced),
		failed:      maps.Clone(c.failed),
		reacted:     maps.Clone(c.reacted),
		dualStack:   c.dualStack,
		dnsTTL:      c.DNSTTL,
		zone:        c.auth.SnapshotZone(),
		demandRates: rates,
	}
}

// Restore installs a snapshot into a freshly built CDN over the same
// topology. The receiver must not have deployed a technique yet: Restore
// replaces Deploy (the announcements the snapshot records are already in the
// restored BGP state, so the plan must not be announced again).
func (c *CDN) Restore(snap *Snapshot) error {
	if c.technique != nil {
		return fmt.Errorf("core: cannot restore over deployed technique %s", c.technique.Name())
	}
	if len(c.sites) == 0 {
		return fmt.Errorf("core: cannot restore into a CDN with no sites")
	}
	// The demand model was rebuilt from config by whoever built this CDN;
	// only its rates move afterwards, so overwrite those.
	if c.demand != nil {
		if err := c.demand.SetRates(snap.demandRates); err != nil {
			return fmt.Errorf("core: restoring demand: %w", err)
		}
	}
	c.technique = snap.technique
	if c.load != nil {
		// Restore replaces Deploy, so the accountant's overload policy must
		// be re-derived from the restored technique here.
		if sh, ok := snap.technique.(Shedder); ok {
			c.load.SetShedding(sh.ShedsOverload())
		}
	}
	c.announced = slices.Clone(snap.announced)
	c.failed = maps.Clone(snap.failed)
	c.reacted = maps.Clone(snap.reacted)
	c.DNSTTL = snap.dnsTTL
	if snap.dualStack {
		c.dualStack = true
		for i, s := range c.sites {
			s.Prefix6 = SitePrefix6(i)
			s.Addr6 = ServiceAddr6(s.Prefix6)
		}
	}
	c.auth.RestoreZone(snap.zone)
	return nil
}
