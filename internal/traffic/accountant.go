package traffic

import (
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// Accountant folds live catchments into per-site offered/served/shed load.
// One fold is a full pass over the demand model at an instant of virtual
// time: Begin zeroes the per-site aggregates (all sites, including failed
// ones — a site that lost its catchment must also lose its counters, see
// the drain-during-overload regression in internal/experiment), Record
// attributes each target's rate to the site currently catching it, and
// Finish applies the shedding policy and streams the fold into obs.
//
// Offered/served/shed are instantaneous micro-rps for the latest fold;
// CumServed/CumShed integrate per-fold totals monotonically. All
// arithmetic is int64, so totals are bit-identical across worker and shard
// counts.
type Accountant struct {
	sites    []string
	capacity []int64
	offered  []int64
	served   []int64
	shed     []int64
	unserved int64 // demand whose catchment is no healthy site
	shedding bool
	cumServe int64
	cumShed  int64

	// Metrics are nil until Instrument attaches a registry (nil-safe).
	// Shared-registry writes use only commutative operations (Counter.Add,
	// Gauge.SetMax), so concurrent worlds stay deterministic.
	m struct {
		folds    *obs.Counter
		offered  *obs.Counter
		served   *obs.Counter
		shed     *obs.Counter
		unserved *obs.Counter
		utilMax  []*obs.Gauge
	}
}

// NewAccountant builds an accountant over the model's sites and
// capacities.
func NewAccountant(m *Model) *Accountant {
	n := m.NumSites()
	return &Accountant{
		sites:    m.Sites(),
		capacity: append([]int64(nil), m.capacity...),
		offered:  make([]int64, n),
		served:   make([]int64, n),
		shed:     make([]int64, n),
	}
}

// Instrument attaches fold metrics to r; a nil registry detaches.
func (a *Accountant) Instrument(r *obs.Registry) {
	a.m.folds = r.Counter("traffic_folds_total")
	a.m.offered = r.Counter("traffic_offered_microrps_total")
	a.m.served = r.Counter("traffic_served_microrps_total")
	a.m.shed = r.Counter("traffic_shed_microrps_total")
	a.m.unserved = r.Counter("traffic_unserved_microrps_total")
	if r == nil {
		a.m.utilMax = nil
		return
	}
	a.m.utilMax = make([]*obs.Gauge, len(a.sites))
	for i, code := range a.sites {
		a.m.utilMax[i] = r.Gauge("traffic_site_utilization_max_" + code)
	}
}

// SetShedding switches the overload policy: when true (the load-shed
// technique), a site serves at most its capacity and sheds the excess;
// when false, overload is served (degraded) and only utilization records
// it.
func (a *Accountant) SetShedding(on bool) { a.shedding = on }

// Shedding reports the active overload policy.
func (a *Accountant) Shedding() bool { return a.shedding }

// Begin starts a fold: every per-site aggregate is zeroed, including sites
// that will receive no Record this fold.
func (a *Accountant) Begin() {
	for i := range a.offered {
		a.offered[i] = 0
		a.served[i] = 0
		a.shed[i] = 0
	}
	a.unserved = 0
}

// Record attributes micro rps of demand to site (an index into the CDN's
// stable site order); a negative site means the demand reached no healthy
// site and is counted unserved. This is the per-probe hot path.
//
//cdnlint:allocfree
func (a *Accountant) Record(site int, micro int64) {
	if site < 0 || site >= len(a.offered) {
		a.unserved += micro
		return
	}
	a.offered[site] += micro
}

// Finish closes a fold: the shedding policy splits offered into
// served/shed, cumulative integrals advance, and the fold streams into
// obs.
func (a *Accountant) Finish() {
	var served, shed int64
	for i, off := range a.offered {
		if a.shedding && off > a.capacity[i] {
			a.served[i] = a.capacity[i]
			a.shed[i] = off - a.capacity[i]
		} else {
			a.served[i] = off
			a.shed[i] = 0
		}
		served += a.served[i]
		shed += a.shed[i]
	}
	a.cumServe += served
	a.cumShed += shed
	a.m.folds.Inc()
	a.m.served.Add(uint64(served))
	a.m.shed.Add(uint64(shed))
	a.m.offered.Add(uint64(served + shed))
	a.m.unserved.Add(uint64(a.unserved))
	for i, g := range a.m.utilMax {
		g.SetMax(a.Utilization(i))
	}
}

// Fold runs one complete fold: catch maps a target to its current site
// index (negative for none).
func (a *Accountant) Fold(m *Model, catch func(id topology.NodeID) int) {
	a.Begin()
	for i, id := range m.ids {
		a.Record(catch(id), m.rates[i])
	}
	a.Finish()
}

// NumSites returns the number of accounted sites.
func (a *Accountant) NumSites() int { return len(a.sites) }

// SiteCode returns site i's code.
func (a *Accountant) SiteCode(i int) string { return a.sites[i] }

// Capacity returns site i's capacity in micro-rps.
func (a *Accountant) Capacity(i int) int64 { return a.capacity[i] }

// Offered returns site i's offered load from the latest fold (micro-rps).
func (a *Accountant) Offered(i int) int64 { return a.offered[i] }

// Served returns site i's served load from the latest fold (micro-rps).
func (a *Accountant) Served(i int) int64 { return a.served[i] }

// Shed returns site i's shed load from the latest fold (micro-rps).
func (a *Accountant) Shed(i int) int64 { return a.shed[i] }

// Unserved returns the latest fold's demand that reached no site.
func (a *Accountant) Unserved() int64 { return a.unserved }

// Utilization returns offered/capacity for site i.
func (a *Accountant) Utilization(i int) float64 {
	if a.capacity[i] == 0 {
		return 0
	}
	return float64(a.offered[i]) / float64(a.capacity[i])
}

// Totals returns the latest fold's aggregate offered/served/shed
// (micro-rps).
func (a *Accountant) Totals() (offered, served, shed int64) {
	for i := range a.offered {
		offered += a.offered[i]
		served += a.served[i]
		shed += a.shed[i]
	}
	return
}

// Cumulative returns the monotone served/shed integrals (micro-rps summed
// over folds).
func (a *Accountant) Cumulative() (served, shed int64) { return a.cumServe, a.cumShed }

// Overloaded reports whether any site's latest-fold offered load exceeds
// its capacity.
func (a *Accountant) Overloaded() bool {
	for i, off := range a.offered {
		if off > a.capacity[i] {
			return true
		}
	}
	return false
}
