package traffic

import (
	"math"
	"testing"

	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

func testTargets(n int) []*topology.Node {
	out := make([]*topology.Node, 0, n)
	for i := 0; i < n; i++ {
		// Non-contiguous IDs exercise the bucket hash and index map.
		out = append(out, &topology.Node{ID: topology.NodeID(3*i + 7)})
	}
	return out
}

var testSites = []string{"ams", "ath", "bos", "atl"}

// TestModelReproducibility is the seeded-distribution gate: equal
// (seed, targets, sites) inputs must reproduce the model bit-for-bit, and a
// different seed must actually change the draw.
func TestModelReproducibility(t *testing.T) {
	cfg := Config{Enabled: true}
	a, err := NewModel(cfg, 42, testTargets(300), testSites)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel(cfg, 42, testTargets(300), testSites)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.ids {
		if a.Rate(id) != b.Rate(id) {
			t.Fatalf("seed 42 rates differ at node %d: %d vs %d", id, a.Rate(id), b.Rate(id))
		}
		if a.Bucket(id) != b.Bucket(id) {
			t.Fatalf("buckets differ at node %d", id)
		}
	}
	c, err := NewModel(cfg, 43, testTargets(300), testSites)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, id := range a.ids {
		if a.Rate(id) != c.Rate(id) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical models")
	}
}

// TestModelExactTotals checks the fixed-point bookkeeping: rates sum to
// exactly round(totalRPS·Micro) and capacities to exactly
// round(totalRPS·headroom·Micro), with no float residue.
func TestModelExactTotals(t *testing.T) {
	m, err := NewModel(Config{Enabled: true}, 7, testTargets(501), testSites)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	m.Each(func(_ topology.NodeID, micro int64, _ int) { sum += micro })
	want := int64(math.Round(120000 * Micro))
	if sum != want || m.TotalRate() != want {
		t.Fatalf("rate sum %d, TotalRate %d, want exactly %d", sum, m.TotalRate(), want)
	}
	wantCap := int64(math.Round(120000 * 1.25 * Micro))
	if m.TotalCapacity() != wantCap {
		t.Fatalf("TotalCapacity %d, want exactly %d", m.TotalCapacity(), wantCap)
	}
	// Even split with remainder to the earliest sites: max-min ≤ 1.
	lo, hi := m.Capacity(0), m.Capacity(0)
	for i := 0; i < m.NumSites(); i++ {
		if c := m.Capacity(i); c < lo {
			lo = c
		} else if c > hi {
			hi = c
		}
	}
	if hi-lo > 1 {
		t.Fatalf("capacity split uneven: min %d max %d", lo, hi)
	}
}

func TestModelMutation(t *testing.T) {
	m, err := NewModel(Config{Enabled: true}, 1, testTargets(50), testSites)
	if err != nil {
		t.Fatal(err)
	}
	id := m.ids[10]
	before := m.TotalRate()
	old := m.Rate(id)
	if !m.SetRate(id, old+5*Micro) {
		t.Fatal("SetRate rejected a known target")
	}
	if got := m.TotalRate(); got != before+5*Micro {
		t.Fatalf("TotalRate %d after SetRate, want %d", got, before+5*Micro)
	}
	if !m.ScaleRate(id, 3, 2) {
		t.Fatal("ScaleRate rejected a known target")
	}
	want := (old+5*Micro)/2*3 + (old+5*Micro)%2*3/2
	if got := m.Rate(id); got != want {
		t.Fatalf("ScaleRate(3/2) gave %d, want %d", got, want)
	}
	if m.SetRate(topology.NodeID(1<<30), 1) {
		t.Fatal("SetRate accepted an unknown target")
	}

	// Rates/SetRates carry the mutated rates into a freshly built twin
	// (what a snapshot restore does) and refuse a different target set.
	twin, err := NewModel(Config{Enabled: true}, 1, testTargets(50), testSites)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.SetRates(m.Rates()); err != nil {
		t.Fatal(err)
	}
	if twin.Rate(id) != want || twin.TotalRate() != m.TotalRate() {
		t.Fatalf("twin after SetRates: rate %d total %d, want %d / %d", twin.Rate(id), twin.TotalRate(), want, m.TotalRate())
	}
	if err := twin.SetRates(m.Rates()[:49]); err == nil {
		t.Fatal("SetRates accepted 49 rates for 50 targets")
	}
}

func TestModelSummary(t *testing.T) {
	m, err := NewModel(Config{Enabled: true}, 42, testTargets(400), testSites)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	if s.Targets != 400 || s.Distribution != "pareto" {
		t.Fatalf("summary identity wrong: %+v", s)
	}
	if math.Abs(s.TotalRPS-120000) > 1e-6 {
		t.Fatalf("summary total %.3f, want 120000", s.TotalRPS)
	}
	if s.Gini <= 0 || s.Gini >= 1 {
		t.Fatalf("Gini %.3f outside (0,1)", s.Gini)
	}
	// A Pareto(α=1.2) top decile must carry far more than its even share.
	if s.TopDecileShare < 0.2 {
		t.Fatalf("top decile share %.3f implausibly flat for a heavy tail", s.TopDecileShare)
	}
}

// TestAccountantFold exercises the fold lifecycle with and without the
// shedding policy, including the unserved path and Begin's full zeroing.
func TestAccountantFold(t *testing.T) {
	m, err := NewModel(Config{Enabled: true}, 9, testTargets(40), testSites)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAccountant(m)

	// Everything to site 0: offered = total, no shedding → served = offered.
	a.Fold(m, func(topology.NodeID) int { return 0 })
	if a.Offered(0) != m.TotalRate() || a.Shed(0) != 0 || a.Served(0) != m.TotalRate() {
		t.Fatalf("non-shedding fold wrong: offered %d served %d shed %d", a.Offered(0), a.Served(0), a.Shed(0))
	}
	if !a.Overloaded() {
		t.Fatal("site 0 holds all demand but Overloaded() is false")
	}

	// Same fold with shedding: serve capacity, shed the rest.
	a.SetShedding(true)
	a.Fold(m, func(topology.NodeID) int { return 0 })
	if a.Served(0) != a.Capacity(0) || a.Shed(0) != m.TotalRate()-a.Capacity(0) {
		t.Fatalf("shedding fold wrong: served %d shed %d cap %d", a.Served(0), a.Shed(0), a.Capacity(0))
	}

	// No healthy site: everything unserved, per-site slices fully zeroed.
	a.Fold(m, func(topology.NodeID) int { return -1 })
	if a.Unserved() != m.TotalRate() {
		t.Fatalf("unserved %d, want %d", a.Unserved(), m.TotalRate())
	}
	for i := 0; i < a.NumSites(); i++ {
		if a.Offered(i) != 0 || a.Served(i) != 0 || a.Shed(i) != 0 {
			t.Fatalf("site %d retains load after an empty fold", i)
		}
	}
	if a.Folds() != 3 {
		t.Fatalf("folds %d, want 3", a.Folds())
	}
	served, shed := a.Cumulative()
	wantServed := int64(m.TotalRate()) + a.Capacity(0)
	wantShed := m.TotalRate() - a.Capacity(0)
	if served != wantServed || shed != wantShed {
		t.Fatalf("cumulative served %d shed %d, want %d %d", served, shed, wantServed, wantShed)
	}

	// The fold is the per-probe hot path (BenchmarkLoadAccounting): Begin,
	// Record and Finish allocate nothing, even while streaming into obs.
	a.Instrument(obs.NewRegistry())
	spread := func(id topology.NodeID) int { return int(id) % a.NumSites() }
	if n := testing.AllocsPerRun(20, func() { a.Fold(m, spread) }); n != 0 {
		t.Fatalf("one fold allocates %.0f times, want 0", n)
	}
}
