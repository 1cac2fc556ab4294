// Package traffic models user demand and site capacity for the load-
// management evaluation: a seeded heavy-tailed request-rate model over the
// experiment's client targets, per-site serving capacity, and an accountant
// that folds live dataplane catchments into per-site offered/served/shed
// load. It supplies the substrate for the two Sinha et al. distributed
// load-management algorithms (prefix-granularity anycast load shifting and
// overload-triggered shedding) implemented as techniques in internal/core.
//
// All rates are fixed-point int64 micro-requests-per-second (Micro units
// per rps), so folds, totals, and the rebalancing fixed point are
// bit-identical across worker and shard counts: no float accumulation
// order can perturb them.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"bestofboth/internal/topology"
)

// Micro is the fixed-point scale: rates are stored in micro-rps
// (1 rps == 1e6 micro-rps).
const Micro = 1_000_000

// MaxBuckets caps the anycast load-shift bucket count: the /24 anycast
// prefix splits into at most eight /27 buckets (see core.LoadBucketPrefix).
const MaxBuckets = 8

// The demand model's parameters. Every product path runs this one model,
// so they are constants rather than configuration: Pareto rates with tail
// index alpha (heavy-tailed, matching CDN demand skew), totalRPS aggregate
// demand, and capacity headroom× that demand split evenly over the sites.
// Demand hashes into MaxBuckets anycast load-shift buckets.
const (
	alpha    = 1.2
	totalRPS = 120000
	headroom = 1.25
)

// Config selects the demand model. It is a flat comparable struct so it can
// participate verbatim in experiment cache keys and the manifest's sha-256
// config digest via %+v formatting.
type Config struct {
	// Enabled turns demand modeling on; the zero value leaves every world
	// demand-free (the paper's original target-weighted evaluation).
	Enabled bool
}

// Model is the materialized demand model: a rate per target, a capacity
// per site, and a stable hash of each target into an anycast load-shift
// bucket. Everything but the rates is a pure function of (seed,
// topology), so a world restored from a snapshot rebuilds the model and
// then overwrites the one mutable part — the rates SetRate/ScaleRate move
// (scenario events such as flash crowds) — from the snapshot via
// Rates/SetRates.
type Model struct {
	ids   []topology.NodeID // ascending
	rates []int64           // micro-rps, aligned with ids
	index map[topology.NodeID]int
	bkt   []uint8 // bucket per target, aligned with ids

	sites    []string
	capacity []int64 // micro-rps, aligned with sites
	total    int64   // Σ rates, maintained by SetRate
}

// NewModel draws a demand model: one Pareto rate per target, normalized so
// the rates sum to exactly round(totalRPS·Micro); capacity =
// totalRPS·headroom·Micro split evenly over the sites (remainder to the
// earliest sites). Targets are processed in ascending node-ID order from
// the model's own seeded generator, so equal (seed, topology) inputs
// reproduce the model bit-for-bit. cfg only says the model is wanted; the
// caller decides whether to build one.
func NewModel(cfg Config, seed int64, targets []*topology.Node, sites []string) (*Model, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("traffic: no targets to assign demand to")
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("traffic: no sites to assign capacity to")
	}
	m := &Model{
		ids:   make([]topology.NodeID, 0, len(targets)),
		rates: make([]int64, len(targets)),
		index: make(map[topology.NodeID]int, len(targets)),
		bkt:   make([]uint8, len(targets)),
		sites: append([]string(nil), sites...),
	}
	for _, n := range targets {
		m.ids = append(m.ids, n.ID)
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	rng := rand.New(rand.NewSource(seed ^ 0x7472616666696331)) // "traffic1"
	weights := make([]float64, len(m.ids))
	var sum float64
	for i, id := range m.ids {
		// Pareto with x_m = 1; 1-Float64() is in (0, 1], keeping the draw
		// finite.
		w := math.Pow(1-rng.Float64(), -1/alpha)
		weights[i] = w
		sum += w
		m.index[id] = i
		m.bkt[i] = uint8((uint64(id) * 0x9E3779B97F4A7C15 >> 32) % MaxBuckets)
	}
	totalMicro := int64(math.Round(totalRPS * Micro))
	var assigned int64
	maxIdx := 0
	for i, w := range weights {
		r := int64(w / sum * float64(totalMicro))
		m.rates[i] = r
		assigned += r
		if r > m.rates[maxIdx] {
			maxIdx = i
		}
	}
	// Rounding remainder goes to the heaviest target so Σ rates is exact.
	m.rates[maxIdx] += totalMicro - assigned
	m.total = totalMicro

	capMicro := int64(math.Round(totalRPS * headroom * Micro))
	m.capacity = make([]int64, len(sites))
	per := capMicro / int64(len(sites))
	rem := capMicro % int64(len(sites))
	for i := range m.capacity {
		m.capacity[i] = per
		if int64(i) < rem {
			m.capacity[i]++
		}
	}
	return m, nil
}

// NumTargets returns the number of demand-bearing targets.
func (m *Model) NumTargets() int { return len(m.ids) }

// NumBuckets returns the anycast load-shift bucket count.
func (m *Model) NumBuckets() int { return MaxBuckets }

// Rate returns the target's demand in micro-rps (0 for unknown targets).
func (m *Model) Rate(id topology.NodeID) int64 {
	if i, ok := m.index[id]; ok {
		return m.rates[i]
	}
	return 0
}

// SetRate replaces a target's demand, maintaining the aggregate. It
// reports whether the target exists.
func (m *Model) SetRate(id topology.NodeID, micro int64) bool {
	i, ok := m.index[id]
	if !ok {
		return false
	}
	if micro < 0 {
		micro = 0
	}
	m.total += micro - m.rates[i]
	m.rates[i] = micro
	return true
}

// ScaleRate multiplies a target's demand by num/den in integer arithmetic
// (deterministic across platforms) and reports whether the target exists.
// Scenario flash crowds use it to spike and later restore demand.
func (m *Model) ScaleRate(id topology.NodeID, num, den int64) bool {
	i, ok := m.index[id]
	if !ok || den <= 0 {
		return false
	}
	return m.SetRate(id, m.rates[i]/den*num+m.rates[i]%den*num/den)
}

// Rates returns a copy of every target's current rate in ascending node-ID
// order: the model's whole mutable state, as snapshots carry it.
func (m *Model) Rates() []int64 { return slices.Clone(m.rates) }

// SetRates reinstates rates captured by Rates on a model built from the
// same (seed, topology). A length mismatch means the two models
// cover different target sets and is an error.
func (m *Model) SetRates(rates []int64) error {
	if len(rates) != len(m.rates) {
		return fmt.Errorf("traffic: restoring %d rates into a model of %d targets", len(rates), len(m.rates))
	}
	m.total = 0
	for i, r := range rates {
		m.rates[i] = r
		m.total += r
	}
	return nil
}

// Bucket returns the target's anycast load-shift bucket (stable hash of
// the node ID; -1 for unknown targets).
func (m *Model) Bucket(id topology.NodeID) int {
	if i, ok := m.index[id]; ok {
		return int(m.bkt[i])
	}
	return -1
}

// Each visits every target in ascending node-ID order with its current
// rate and bucket — the iteration order every fold and rebalance step
// uses, so results are independent of map order.
func (m *Model) Each(f func(id topology.NodeID, micro int64, bucket int)) {
	for i, id := range m.ids {
		f(id, m.rates[i], int(m.bkt[i]))
	}
}

// Sites returns the site codes in capacity order (the CDN's stable site
// order).
func (m *Model) Sites() []string { return m.sites }

// NumSites returns the number of capacity-bearing sites.
func (m *Model) NumSites() int { return len(m.sites) }

// Capacity returns site i's serving capacity in micro-rps.
func (m *Model) Capacity(i int) int64 { return m.capacity[i] }

// TotalRate returns the aggregate demand in micro-rps.
func (m *Model) TotalRate() int64 { return m.total }

// TotalCapacity returns the aggregate capacity in micro-rps.
func (m *Model) TotalCapacity() int64 {
	var t int64
	for _, c := range m.capacity {
		t += c
	}
	return t
}

// Summary condenses the demand model for the per-run manifest: aggregate
// demand and capacity, the Gini coefficient of the rate distribution, and
// the share of demand carried by the top decile of targets.
type Summary struct {
	Targets        int     `json:"targets"`
	TotalRPS       float64 `json:"totalRPS"`
	CapacityRPS    float64 `json:"capacityRPS"`
	Gini           float64 `json:"gini"`
	TopDecileShare float64 `json:"topDecileShare"`
	Distribution   string  `json:"distribution"`
}

// Summary computes the manifest block from the current rates.
func (m *Model) Summary() Summary {
	sorted := append([]int64(nil), m.rates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	var total float64
	var weighted float64 // Σ (i+1)·x_i over ascending x
	for i, r := range sorted {
		total += float64(r)
		weighted += float64(i+1) * float64(r)
	}
	s := Summary{
		Targets:      n,
		TotalRPS:     total / Micro,
		CapacityRPS:  float64(m.TotalCapacity()) / Micro,
		Distribution: "pareto",
	}
	if total > 0 && n > 0 {
		s.Gini = 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
		top := (n + 9) / 10
		var topSum float64
		for i := n - top; i < n; i++ {
			topSum += float64(sorted[i])
		}
		s.TopDecileShare = topSum / total
	}
	return s
}
