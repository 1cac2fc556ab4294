package experiment

import (
	"reflect"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/topology"
)

// demandConfig is tinyConfig with the default heavy-tailed demand model
// attached, so worlds carry a live load accountant.
func demandConfig(seed int64) WorldConfig {
	cfg := tinyConfig(seed)
	WithDefaultDemand()(&cfg)
	return cfg
}

// TestUserWeightedCDFDeterminismAcrossWorkers is the worker-count gate for
// the user-weighted evaluation: for all seven techniques, the Figure-2
// pairs — including the demand-weighted reconnection and failover CDFs —
// must be deeply equal between runs on fresh worlds, one at a time, and an
// 8-worker run restoring converged snapshots.
func TestUserWeightedCDFDeterminismAcrossWorkers(t *testing.T) {
	cfg := demandConfig(25)
	sel := mustSelect(t, cfg, 15)
	fc := quickFailover()
	techs := core.SevenTechniques()
	sites := []string{"atl", "msn"}

	_, freshPairs := freshFigure2(t, cfg, sel, techs, sites, fc)
	parPairs, err := (&Runner{Workers: 8}).Figure2(cfg, sel, techs, sites, fc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freshPairs, parPairs) {
		t.Fatal("Figure2 pairs (incl. user-weighted CDFs) differ between workers=1 and workers=8")
	}
	for _, p := range freshPairs {
		if p.UserFailover == nil || p.UserReconnection == nil {
			t.Fatalf("technique %s: demand model attached but user-weighted CDFs are nil", p.Technique)
		}
		if p.UserFailover.TotalWeight() <= 0 {
			t.Fatalf("technique %s: user-weighted failover CDF carries no demand weight", p.Technique)
		}
	}
}

// TestLoadStateShardEquivalence is the shard-count gate for the load
// accountant: the converged per-site offered/served/shed state — derived
// from converged FIBs, which the digest gates prove shard-invariant —
// must be bit-identical (exact int64s) across shards {1,2,8}, for both
// load-management techniques and a plain announcement technique.
func TestLoadStateShardEquivalence(t *testing.T) {
	techs := []core.Technique{core.LoadShift{}, core.LoadShed{}, core.ReactiveAnycast{}}
	for _, tech := range techs {
		tech := tech
		t.Run(tech.Name(), func(t *testing.T) {
			t.Parallel()
			type siteState struct {
				offered, served, shed int64
			}
			var want []siteState
			var wantUnserved, wantServedCum, wantShedCum int64
			for _, shards := range shardCounts {
				cfg := demandConfig(29)
				cfg.Shards = shards
				w, err := NewConvergedWorld(cfg, tech, 3600)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				acct := w.CDN.Load()
				if acct == nil {
					t.Fatalf("shards=%d: demand enabled but no accountant attached", shards)
				}
				got := make([]siteState, acct.NumSites())
				for i := range got {
					got[i] = siteState{acct.Offered(i), acct.Served(i), acct.Shed(i)}
				}
				servedCum, shedCum := acct.Cumulative()
				if shards == shardCounts[0] {
					want, wantUnserved = got, acct.Unserved()
					wantServedCum, wantShedCum = servedCum, shedCum
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: per-site offered/served/shed differ from shards=%d:\n got %+v\nwant %+v",
						shards, shardCounts[0], got, want)
				}
				if acct.Unserved() != wantUnserved || servedCum != wantServedCum || shedCum != wantShedCum {
					t.Fatalf("shards=%d: unserved/cumulative totals differ from shards=%d", shards, shardCounts[0])
				}
			}
		})
	}
}

// checkShedInvariant asserts the accounting identity on every site: shed
// is exactly the over-capacity excess when shedding is on (zero below
// capacity), and offered always splits into served + shed.
func checkShedInvariant(t *testing.T, acct interface {
	NumSites() int
	SiteCode(int) string
	Capacity(int) int64
	Offered(int) int64
	Served(int) int64
	Shed(int) int64
	Shedding() bool
}) {
	t.Helper()
	for i := 0; i < acct.NumSites(); i++ {
		off, srv, shd, cap := acct.Offered(i), acct.Served(i), acct.Shed(i), acct.Capacity(i)
		if srv+shd != off {
			t.Fatalf("site %s: served %d + shed %d != offered %d", acct.SiteCode(i), srv, shd, off)
		}
		wantShed := int64(0)
		if acct.Shedding() && off > cap {
			wantShed = off - cap
		}
		if shd != wantShed {
			t.Fatalf("site %s: shed %d, want %d (offered %d, capacity %d, shedding %v)",
				acct.SiteCode(i), shd, wantShed, off, cap, acct.Shedding())
		}
	}
}

// TestDrainDuringOverloadClearsShed is the satellite regression test for
// the DrainSite/RecoverSite ↔ load-state audit: a site drained while it
// is actively shedding must not report stale non-zero shed (or offered)
// after it recovers — every fold rebuilds the split from live catchments,
// so shed may only be non-zero where offered currently exceeds capacity.
func TestDrainDuringOverloadClearsShed(t *testing.T) {
	cfg := demandConfig(31)
	w, err := NewConvergedWorld(cfg, core.LoadShed{}, 3600)
	if err != nil {
		t.Fatal(err)
	}
	acct := w.CDN.Load()
	if !acct.Shedding() {
		t.Fatal("load-shed deployed but shedding policy is off")
	}
	total := w.CDN.Demand().TotalRate()

	// Concentrate all demand on one survivor so it is overloaded and
	// actively shedding: drain every other site.
	survivor := acct.SiteCode(0)
	for i := 1; i < acct.NumSites(); i++ {
		if _, err := w.CDN.DrainSite(acct.SiteCode(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Converge(3600)
	w.CDN.RefreshLoad()
	if acct.Offered(0) != total {
		t.Fatalf("survivor %s offered %d, want all demand %d", survivor, acct.Offered(0), total)
	}
	if acct.Shed(0) <= 0 {
		t.Fatalf("survivor %s is over capacity (offered %d, capacity %d) but sheds nothing",
			survivor, acct.Offered(0), acct.Capacity(0))
	}

	// Drain the overloaded site mid-shed: no healthy announcer remains,
	// so all demand is unserved and the survivor's counters must zero.
	if _, err := w.CDN.DrainSite(survivor); err != nil {
		t.Fatal(err)
	}
	w.Converge(3600)
	w.CDN.RefreshLoad()
	if acct.Offered(0) != 0 || acct.Shed(0) != 0 {
		t.Fatalf("drained site %s retains offered %d / shed %d", survivor, acct.Offered(0), acct.Shed(0))
	}
	if acct.Unserved() != total {
		t.Fatalf("all sites drained but unserved is %d, want %d", acct.Unserved(), total)
	}

	// Recover everything: counters must reflect the live post-recovery
	// catchments only — no residue from the overload episode.
	for i := 0; i < acct.NumSites(); i++ {
		if _, err := w.CDN.RecoverSite(acct.SiteCode(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Converge(3600)
	w.CDN.RefreshLoad()
	if acct.Unserved() != 0 {
		t.Fatalf("post-recovery unserved %d, want 0", acct.Unserved())
	}
	off, srv, shd := acct.Totals()
	if off != total || srv+shd != total {
		t.Fatalf("post-recovery totals offered %d served %d shed %d, want offered == served+shed == %d",
			off, srv, shd, total)
	}
	checkShedInvariant(t, acct)

	// Technique switch mid-accounting: SwitchTechnique must itself re-fold
	// load under the new technique and its shedding policy — before any
	// explicit Converge/RefreshLoad — so the accountant never carries shed
	// counters from the load-shed era into a non-shedding technique.
	if err := w.CDN.SwitchTechnique(core.Unicast{}); err != nil {
		t.Fatal(err)
	}
	if acct.Shedding() {
		t.Fatal("switched to unicast but shedding policy is still on")
	}
	if _, _, shd := acct.Totals(); shd != 0 {
		t.Fatalf("switched to unicast (no shedding) but total shed is %d, want 0", shd)
	}
	checkShedInvariant(t, acct)
	w.Converge(3600)
	w.CDN.RefreshLoad()
	checkShedInvariant(t, acct)

	// Switching back with an open failure episode must replay the failure
	// under the new technique and refresh again: the drained site's
	// counters are zero immediately after the switch.
	if _, err := w.CDN.DrainSite(acct.SiteCode(0)); err != nil {
		t.Fatal(err)
	}
	w.Converge(3600)
	if err := w.CDN.SwitchTechnique(core.LoadShed{}); err != nil {
		t.Fatal(err)
	}
	if !acct.Shedding() {
		t.Fatal("switched back to load-shed but shedding policy is off")
	}
	if acct.Offered(0) != 0 || acct.Shed(0) != 0 {
		t.Fatalf("drained site %s retains offered %d / shed %d across a technique switch",
			acct.SiteCode(0), acct.Offered(0), acct.Shed(0))
	}
	w.Converge(3600)
	w.CDN.RefreshLoad()
	if acct.Offered(0) != 0 {
		t.Fatalf("drained site %s attracts offered %d under the switched technique, want 0",
			acct.SiteCode(0), acct.Offered(0))
	}
	if acct.Unserved() != 0 {
		t.Fatalf("healthy sites announce anycast but unserved is %d, want 0", acct.Unserved())
	}
	checkShedInvariant(t, acct)
}

// TestPaperScaleLoadShiftFixedPoint is the acceptance gate for the
// Sinha et al. shifting algorithm at paper scale: with aggregate demand
// under aggregate capacity, the converged deployment must reach a stable
// fixed point with no site above capacity, and one further Rebalance must
// be a no-op (oscillation-free stability).
func TestPaperScaleLoadShiftFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world; skipped in -short")
	}
	cfg := DefaultWorldConfig(WithSeed(42), WithPaperScale(), WithDefaultDemand())
	tech := core.LoadShift{}
	w, err := NewConvergedWorld(cfg, tech, 3600)
	if err != nil {
		t.Fatal(err)
	}
	acct := w.CDN.Load()
	for i := 0; i < acct.NumSites(); i++ {
		if acct.Offered(i) > acct.Capacity(i) {
			t.Errorf("site %s above capacity at the fixed point: offered %d, capacity %d (util %.2f)",
				acct.SiteCode(i), acct.Offered(i), acct.Capacity(i), acct.Utilization(i))
		}
	}
	changed, err := tech.Rebalance(w.CDN)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("rebalance found a further move after the deployment loop reported convergence")
	}
}

// TestSnapshotCarriesDemand pins snapshot completeness for the one mutable
// part of the demand model: after every rate doubles (a flash crowd, or a
// demand-scale ChangeSet), a world restored from a snapshot must offer the
// doubled demand, not the as-configured rates NewWorld rebuilds.
func TestSnapshotCarriesDemand(t *testing.T) {
	w, err := NewConvergedWorld(demandConfig(7), core.LoadShed{}, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m := w.CDN.Demand()
	before := m.TotalRate()
	m.Each(func(id topology.NodeID, _ int64, _ int) { m.ScaleRate(id, 2, 1) })
	w.CDN.RefreshLoad()
	if m.TotalRate() != 2*before {
		t.Fatalf("scaled total %d, want %d", m.TotalRate(), 2*before)
	}

	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.CDN.Demand().TotalRate(); got != m.TotalRate() {
		t.Fatalf("restored world offers %d micro-rps, live world %d", got, m.TotalRate())
	}
	live, restored := w.CDN.Load(), r.CDN.Load()
	for i := 0; i < live.NumSites(); i++ {
		if live.Offered(i) != restored.Offered(i) || live.Served(i) != restored.Served(i) || live.Shed(i) != restored.Shed(i) {
			t.Errorf("site %s: restored offered/served/shed %d/%d/%d, live %d/%d/%d", live.SiteCode(i),
				restored.Offered(i), restored.Served(i), restored.Shed(i),
				live.Offered(i), live.Served(i), live.Shed(i))
		}
	}

	// The restore is a copy: moving the restored world's demand leaves the
	// live world and the snapshot alone.
	r.CDN.Demand().Each(func(id topology.NodeID, _ int64, _ int) { r.CDN.Demand().SetRate(id, 0) })
	if m.TotalRate() != 2*before {
		t.Fatalf("mutating the restored world moved the live world's demand to %d", m.TotalRate())
	}
	if r2, err := RestoreWorld(snap); err != nil || r2.CDN.Demand().TotalRate() != 2*before {
		t.Fatalf("second restore: err %v, total %d, want %d", err, r2.CDN.Demand().TotalRate(), 2*before)
	}
}
