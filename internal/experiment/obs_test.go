package experiment

import (
	"errors"
	"reflect"
	"regexp"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/obs"
	"bestofboth/pkg/bestofboth/api"
)

// TestMetricsDeterministicAcrossWorkers is the observability determinism
// gate: with the converged-snapshot cache prewarmed (template builds count
// into whichever registry triggers them, so comparable runs must share a
// warm cache), the same seed must produce byte-equal deterministic metric
// snapshots at any worker count — and instrumented results must equal bare
// ones. The world carries a demand model so every layer registers,
// including the per-site and per-transition-kind families whose names are
// built at run time: every name in the registry must be Prometheus-valid
// and owned by one metric kind.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	cfg := tinyConfig(31)
	WithDefaultDemand()(&cfg)
	sel := mustSelect(t, cfg, 20)
	fc := quickFailover()
	techs := []core.Technique{core.ReactiveAnycast{}, core.Anycast{}}
	sites := []string{"atl", "msn"}

	bare, err := (&Runner{}).RunMatrix(cfg, sel, techs, sites, fc)
	if err != nil {
		t.Fatal(err)
	}

	validName := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	run := func(workers int) ([][]*RunResult, []api.MetricSample) {
		reg := obs.NewRegistry()
		r := &Runner{Workers: workers, Obs: reg}
		m, err := r.RunMatrix(cfg, sel, techs, sites, fc)
		if err != nil {
			t.Fatal(err)
		}
		kindOf := map[string]string{}
		for _, ms := range reg.Snapshot() {
			if !validName.MatchString(ms.Name) {
				t.Errorf("metric name %q is not a valid Prometheus name", ms.Name)
			}
			if prev, dup := kindOf[ms.Name]; dup {
				t.Errorf("metric name %q registered as both %s and %s", ms.Name, prev, ms.Kind)
			}
			kindOf[ms.Name] = ms.Kind
		}
		for _, family := range []string{"traffic_site_utilization_max_atl", "cdn_site_transitions_crash_total"} {
			if kindOf[family] == "" {
				t.Errorf("run-time-named metric %q not registered: the name check does not cover its family", family)
			}
		}
		return m, reg.DeterministicSnapshot()
	}
	seqM, seqSnap := run(1)
	parM, parSnap := run(8)

	if len(seqSnap) == 0 {
		t.Fatal("deterministic snapshot is empty: no layer was instrumented")
	}
	if !reflect.DeepEqual(seqSnap, parSnap) {
		for i := range seqSnap {
			if i < len(parSnap) && !reflect.DeepEqual(seqSnap[i], parSnap[i]) {
				t.Errorf("metric %s: workers=1 %+v vs workers=8 %+v",
					seqSnap[i].Name, seqSnap[i], parSnap[i])
			}
		}
		t.Fatal("deterministic metric snapshots differ between workers=1 and workers=8")
	}

	// Instrumentation must not perturb results: instrumented matrices equal
	// the bare one run outcome for outcome.
	for ti := range techs {
		for si := range sites {
			if !reflect.DeepEqual(bare[ti][si].Outcomes, seqM[ti][si].Outcomes) ||
				!reflect.DeepEqual(bare[ti][si].Outcomes, parM[ti][si].Outcomes) {
				t.Fatalf("run [%d][%d]: outcomes differ between bare and instrumented matrices", ti, si)
			}
		}
	}
}

// TestRunnerProgress checks the progress callback: monotone, serialized,
// ending exactly at total.
func TestRunnerProgress(t *testing.T) {
	cfg := tinyConfig(32)
	sel := mustSelect(t, cfg, 15)
	fc := quickFailover()
	sites := []string{"atl", "msn"}

	var calls []int
	r := &Runner{Workers: 4}
	r.Progress = func(done, total int) {
		if total != 2 {
			t.Errorf("total = %d, want 2", total)
		}
		calls = append(calls, done)
	}
	if _, err := r.RunMatrix(cfg, sel, []core.Technique{core.Anycast{}}, sites, fc); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Fatalf("progress calls = %v, want [1 2]", calls)
	}
}

// TestRunnerRecordsVolatileMetrics checks the runner's own instruments:
// run counts, snapshot restores, and cache hits show up as volatile metrics
// (excluded from the deterministic snapshot).
func TestRunnerRecordsVolatileMetrics(t *testing.T) {
	cfg := tinyConfig(33)
	sel := mustSelect(t, cfg, 15)
	fc := quickFailover()
	sites := []string{"atl", "msn"}

	reg := obs.NewRegistry()
	r := &Runner{Workers: 2, Obs: reg}
	for i := 0; i < 2; i++ {
		if _, err := r.RunMatrix(cfg, sel, []core.Technique{core.Anycast{}}, sites, fc); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("experiment_runs_total").Value(); got != 4 {
		t.Fatalf("experiment_runs_total = %d, want 4", got)
	}
	if got := reg.Counter("experiment_snapshot_restores_total").Value(); got != 4 {
		t.Fatalf("experiment_snapshot_restores_total = %d, want 4", got)
	}
	if got := reg.Counter("experiment_snapshot_cache_hits_total").Value(); got < 1 {
		t.Fatalf("experiment_snapshot_cache_hits_total = %d, want >= 1", got)
	}
	for _, m := range reg.DeterministicSnapshot() {
		if m.Name == "experiment_runs_total" {
			t.Fatal("runner metrics leaked into the deterministic snapshot")
		}
	}
}

// TestSentinelErrors pins the experiment package's typed failures.
func TestSentinelErrors(t *testing.T) {
	cfg := tinyConfig(34)
	sel := mustSelect(t, cfg, 10)
	fc := quickFailover()

	_, err := RunFailover(cfg, sel, core.ReactiveAnycast{}, "zzz", fc)
	if !errors.Is(err, core.ErrUnknownSite) {
		t.Fatalf("unknown site: got %v, want errors.Is ErrUnknownSite", err)
	}
	_, err = RunFailover(cfg, &Selection{}, core.ReactiveAnycast{}, "atl", fc)
	if !errors.Is(err, ErrNoTargets) {
		t.Fatalf("empty selection: got %v, want errors.Is ErrNoTargets", err)
	}
}

// TestWorldConfigOptions pins DefaultWorldConfig and the functional options.
func TestWorldConfigOptions(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultWorldConfig(
		WithSeed(7),
		WithDamping(),
		WithObs(reg),
		WithScale(0.1),
	)
	if cfg.Seed != 7 || cfg.Obs != reg {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if !cfg.BGP.Damping {
		t.Fatal("WithDamping left damping off")
	}
	if cfg.BGP.MRAI != bgp.DefaultConfig().MRAI {
		t.Fatal("WithDamping did not fill BGP defaults first")
	}
	// Scale floors keep tiny topologies connected.
	if cfg.Topology.NumTransit != 20 || cfg.Topology.NumStub != 60 {
		t.Fatalf("WithScale(0.1) = %+v", cfg.Topology)
	}
	if got := DefaultWorldConfig(); got.Seed != 42 {
		t.Fatalf("baseline config = %+v", got)
	}
	if got := DefaultWorldConfig(WithScale(1.0)); !reflect.DeepEqual(got.Topology, DefaultWorldConfig().Topology) {
		t.Fatal("WithScale(1) must leave generator defaults untouched")
	}
}

// TestManifestDigest pins the config fingerprint: identical simulation
// identity ⇒ identical digest, regardless of Obs; any identity field
// change ⇒ different digest.
func TestManifestDigest(t *testing.T) {
	a := tinyConfig(35)
	b := tinyConfig(35)
	b.Obs = obs.NewRegistry()
	if a.Digest() != b.Digest() {
		t.Fatal("Obs changed the digest")
	}
	c := tinyConfig(36)
	if a.Digest() == c.Digest() {
		t.Fatal("seed change did not change the digest")
	}
	d := tinyConfig(35)
	d.Topology.NumStub++
	if a.Digest() == d.Digest() {
		t.Fatal("topology change did not change the digest")
	}

	man := NewManifest("fig2", a, 4, nil)
	if man.Seed != 35 || man.ConfigDigest != a.Digest() || man.Command != "fig2" || man.Workers != 4 {
		t.Fatalf("manifest = %+v", man)
	}
	if got := ManifestPath("out/results.json"); got != "out/results.manifest.json" {
		t.Fatalf("ManifestPath = %q", got)
	}
	if got := ManifestPath("results"); got != "results.manifest.json" {
		t.Fatalf("ManifestPath = %q", got)
	}
}
