package experiment

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/topology"
)

// TestInterningDigestEquivalence is the observable-equivalence gate for the
// zero-copy kernel: AS-path interning and copy-on-write restores must not
// change a single byte of protocol or forwarding state. A freshly built
// converged world (the workers=1 code path) and eight worlds restored
// concurrently from one shared snapshot (the workers=8 code path) must all
// produce byte-identical RouteStateDigest and FIBDigest outputs.
// TestPaperScaleDeterminism reruns the -scale paper Figure 2 regime at
// workers=1 and workers=8 and requires deeply equal results. It takes tens
// of seconds at full scale, so it only runs when PAPER_SCALE_TEST is set
// (the committed reference manifest in EXPERIMENTS.md was produced by the
// equivalent cdnsim invocations).
func TestPaperScaleDeterminism(t *testing.T) {
	if os.Getenv("PAPER_SCALE_TEST") == "" {
		t.Skip("set PAPER_SCALE_TEST=1 to run the paper-scale determinism check")
	}
	cfg := DefaultWorldConfig(WithSeed(42), WithPaperScale())
	sel, err := SelectTargets(cfg, PaperTargetsPerSite)
	if err != nil {
		t.Fatal(err)
	}
	fc := DefaultFailoverConfig()
	fc.MaxTargets = 60
	techs := []core.Technique{core.ReactiveAnycast{}, core.Anycast{}}
	sites := topology.DefaultSiteCodes

	seq, err := (&Runner{Workers: 1}).Figure2(cfg, sel, techs, sites, fc)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Runner{Workers: 8}).Figure2(cfg, sel, techs, sites, fc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("paper-scale Figure 2 differs between workers=1 and workers=8")
	}
}

func TestInterningDigestEquivalence(t *testing.T) {
	cfg := tinyConfig(27)
	tech := core.ReactiveAnycast{}
	const converge = 3600

	fresh, err := NewConvergedWorld(cfg, tech, converge)
	if err != nil {
		t.Fatal(err)
	}
	wantRoutes := fresh.Net.RouteStateDigest()
	wantFIB := fresh.Plane.FIBDigest()
	if wantRoutes == "" || wantFIB == "" {
		t.Fatal("fresh world produced empty digests")
	}

	snap, err := buildSnapshot(cfg, tech)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	type digests struct {
		routes, fib string
		err         error
	}
	got := make([]digests, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := RestoreWorld(snap)
			if err != nil {
				got[i].err = err
				return
			}
			got[i].routes = w.Net.RouteStateDigest()
			got[i].fib = w.Plane.FIBDigest()
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d.err != nil {
			t.Fatalf("worker %d: restore failed: %v", i, d.err)
		}
		if d.routes != wantRoutes {
			t.Fatalf("worker %d: RouteStateDigest differs from fresh build", i)
		}
		if d.fib != wantFIB {
			t.Fatalf("worker %d: FIBDigest differs from fresh build", i)
		}
	}
}
