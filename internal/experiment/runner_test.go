package experiment

import (
	"reflect"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/memo"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// freshFigure2 is the reference the Runner's restored runs must equal:
// every ⟨technique, site⟩ failover run once on its own fresh world
// (RunFailover), strictly in order, each technique's runs pooled as Figure2
// pools them. It returns the runs [technique][site] and the pooled pairs.
func freshFigure2(t *testing.T, cfg WorldConfig, sel *Selection, techs []core.Technique, sites []string, fc FailoverConfig) ([][]*RunResult, []CDFPair) {
	t.Helper()
	matrix := make([][]*RunResult, len(techs))
	var pairs []CDFPair
	for ti, tech := range techs {
		for _, site := range sites {
			res, err := RunFailover(cfg, sel, tech, site, fc)
			if err != nil {
				t.Fatal(err)
			}
			matrix[ti] = append(matrix[ti], res)
		}
		pairs = append(pairs, poolRuns(tech.Name(), matrix[ti], fc.ProbeDuration))
	}
	return matrix, pairs
}

// TestRunnerDeterminismAcrossWorkers is the regression gate for the
// parallel runner: the same seed must produce deeply equal CDFs and
// per-target outcomes whether each run has a fresh world of its own, one at
// a time, or the matrix runs on 8 workers restoring converged snapshots.
func TestRunnerDeterminismAcrossWorkers(t *testing.T) {
	cfg := tinyConfig(21)
	sel := mustSelect(t, cfg, 20)
	fc := quickFailover()
	techs := []core.Technique{core.ReactiveAnycast{}, core.Anycast{}}
	sites := []string{"atl", "msn"}

	par := &Runner{Workers: 8}
	freshM, freshPairs := freshFigure2(t, cfg, sel, techs, sites, fc)
	parM, err := par.RunMatrix(cfg, sel, techs, sites, fc)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range techs {
		for si := range sites {
			a, b := freshM[ti][si], parM[ti][si]
			if a.Technique != b.Technique || a.FailedSite != b.FailedSite ||
				a.Controllable != b.Controllable {
				t.Fatalf("run [%d][%d] headers differ: %+v vs %+v", ti, si, a, b)
			}
			if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
				t.Fatalf("run [%d][%d] (%s/%s): outcomes differ between fresh worlds and workers=8",
					ti, si, a.Technique, a.FailedSite)
			}
		}
	}

	parPairs, err := par.Figure2(cfg, sel, techs, sites, fc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freshPairs, parPairs) {
		t.Fatal("Figure2 CDF pairs differ between fresh worlds and workers=8")
	}
}

// TestWorldSnapshotIsolation materializes sibling worlds from one converged
// snapshot and checks that failing a site in one leaves the others (and the
// snapshot) untouched.
func TestWorldSnapshotIsolation(t *testing.T) {
	cfg := tinyConfig(22)
	snap, err := buildSnapshot(cfg, core.ReactiveAnycast{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := a.CDN.FailSite("atl"); err != nil {
		t.Fatal(err)
	}
	a.Sim.RunFor(120)

	if b.CDN.Failed("atl") {
		t.Fatal("site failure leaked into a sibling restored world")
	}
	if b.Sim.Pending() != 0 {
		t.Fatalf("sibling world has %d pending events it never scheduled", b.Sim.Pending())
	}
	atl := b.CDN.Site("atl")
	if atl == nil {
		t.Fatal("restored world lost its sites")
	}
	if got := b.CDN.CatchmentOf(b.Targets()[0].ID, atl.Addr); got == nil {
		// The first target may legitimately be uncontrollable; what must
		// hold is that atl's own prefix is still routed somewhere.
		res := b.Plane.Forward(b.Targets()[0].ID, atl.Addr)
		if !res.Delivered {
			t.Fatal("sibling world lost routes to the failed-in-a site")
		}
	}

	c, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}
	if c.CDN.Failed("atl") {
		t.Fatal("site failure leaked back into the snapshot")
	}
}

// TestSnapKeyDistinguishesConfigs pins the converged-snapshot cache key:
// changed topology or protocol parameters (damping included) must miss, an
// explicit default must hit the elided one, and techniques of the same type
// but different parameters must miss.
func TestSnapKeyDistinguishesConfigs(t *testing.T) {
	base := tinyConfig(23)
	k := func(cfg WorldConfig, tech core.Technique) string {
		return snapKey(cfg, tech)
	}

	cfg2 := base
	cfg2.Topology.NumStub++
	if k(base, core.Anycast{}) == k(cfg2, core.Anycast{}) {
		t.Fatal("changed GenConfig did not change the key")
	}

	cfg3 := base
	cfg3.BGP = bgp.DefaultConfig()
	cfg3.BGP.MRAI = 5
	if k(base, core.Anycast{}) == k(cfg3, core.Anycast{}) {
		t.Fatal("changed bgp.Config did not change the key")
	}

	cfg4 := base
	WithDamping()(&cfg4)
	if k(base, core.Anycast{}) == k(cfg4, core.Anycast{}) {
		t.Fatal("enabling damping did not change the key")
	}
	cfg5 := base
	cfg5.BGP = bgp.DefaultConfig()
	if k(base, core.Anycast{}) != k(cfg5, core.Anycast{}) {
		t.Fatal("an explicit default bgp.Config changed the key")
	}

	if k(base, core.ProactivePrepending{Prepends: 3}) == k(base, core.ProactivePrepending{Prepends: 5}) {
		t.Fatal("prepend depth did not change the key")
	}
	if k(base, core.Anycast{}) == k(base, core.ReactiveAnycast{}) {
		t.Fatal("technique type did not change the key")
	}
}

// TestRunFailoverMatchesRunnerReuse pins the core reuse guarantee: one run
// materialized from a converged snapshot is outcome-identical to the same
// run performed from scratch.
func TestRunFailoverMatchesRunnerReuse(t *testing.T) {
	cfg := tinyConfig(24)
	sel := mustSelect(t, cfg, 15)
	fc := quickFailover()
	tech := core.ReactiveAnycast{}

	fresh, err := RunFailover(cfg, sel, tech, "msn", fc)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := buildSnapshot(cfg, tech)
	if err != nil {
		t.Fatal(err)
	}
	w, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := failoverOn(w, sel, tech, "msn", fc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Outcomes, reused.Outcomes) {
		t.Fatal("reused-world outcomes differ from a fresh run")
	}
	if fresh.Controllable != reused.Controllable {
		t.Fatal("reused-world target sets differ from a fresh run")
	}
}

// TestRestoreHoldsSnapshotTopology pins that a snapshot carries its
// topology: a world built once the topology cache is full, snapshotted, and
// restored after memo.Cap newer configurations evicted its graph restores
// over the snapshot's *Topology, not a regenerated one.
func TestRestoreHoldsSnapshotTopology(t *testing.T) {
	fill := func(base int64) {
		gen := tinyConfig(0).Topology
		for i := int64(0); i < memo.Cap; i++ {
			gen.Seed = base + i
			if _, err := topology.Cached(gen); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(5000)
	w, err := NewConvergedWorld(tinyConfig(26), core.Anycast{}, ConvergeTime)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fill(6000)
	rw, err := RestoreWorld(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Topo != w.Topo {
		t.Fatal("the restored world does not hold its snapshot's topology")
	}
}

// TestRunnerHitsPastSnapshotCap pins that the snapshot cache keeps
// memoizing once full: a matrix repeated after memo.Cap other snapshot
// keys hits the snapshot its first run built, and the insert that made room
// for it counts one eviction.
func TestRunnerHitsPastSnapshotCap(t *testing.T) {
	cfg := tinyConfig(27)
	for i := 0; i < memo.Cap; i++ {
		other := cfg
		other.CollectorPeers = 100 + i
		if _, err := (&Runner{}).convergedSnapshot(other, core.Anycast{}); err != nil {
			t.Fatal(err)
		}
	}
	sel := mustSelect(t, cfg, 10)
	reg := obs.NewRegistry()
	r := &Runner{Workers: 2, Obs: reg}
	for i := 0; i < 2; i++ {
		if _, err := r.RunMatrix(cfg, sel, []core.Technique{core.Anycast{}}, []string{"atl"}, quickFailover()); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]uint64{
		"experiment_snapshot_builds_total":     1,
		"experiment_snapshot_cache_hits_total": 1,
		"experiment_snapshot_evictions_total":  1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
