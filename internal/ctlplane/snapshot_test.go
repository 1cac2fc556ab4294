package ctlplane

import (
	"encoding/json"
	"net/http"
	"regexp"
	"runtime"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/pkg/bestofboth/api"
)

// changeSetID matches a ChangeSet body's id field, the one field two
// servers that took different request paths to one state number apart.
var changeSetID = regexp.MustCompile(`"id": "cs-[0-9]+"`)

func withoutID(body string) string { return changeSetID.ReplaceAllString(body, `"id": ""`) }

// TestDryRunAfterExecuteSeesTheExecutedWorld: a server whose standing
// snapshot predates an executed ChangeSet predicts its next dry run from
// the executed world. Its body equals that of a fresh server that executed
// the same ChangeSet and then ran the same dry run, and its prediction
// equals the state of a world that applied both batches with no snapshot
// in between — the half that a snapshot kept across the execute fails
// even when both servers kept theirs.
func TestDryRunAfterExecuteSeesTheExecutedWorld(t *testing.T) {
	cfg := testConfig(41, true)
	tech := core.LoadShed{}
	w, err := experiment.NewConvergedWorld(cfg, tech, DefaultConvergeBound)
	if err != nil {
		t.Fatal(err)
	}
	drain := []api.Mutation{{Kind: "drain", Site: StateOf(w).Sites[1].Code, DrainFor: 30}}
	probe := []api.Mutation{{Kind: "demand-scale", Fraction: 1.25}}

	post := func(s *Server, path string, muts []api.Mutation) string {
		t.Helper()
		cs, rec := postChangeSet(t, s, path, muts)
		if rec.Code != http.StatusOK || (cs.Receipt != nil && !cs.Receipt.Pass) {
			t.Fatalf("%s %s: %d %s", path, muts[0].Kind, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	warm := newTestServer(t, tech, true)
	post(warm, "/v1/changesets", probe) // the standing snapshot is now the pre-drain world
	post(warm, "/v1/changesets?execute=true", drain)
	got := post(warm, "/v1/changesets", probe)

	fresh := newTestServer(t, tech, true)
	post(fresh, "/v1/changesets?execute=true", drain)
	if want := post(fresh, "/v1/changesets", probe); withoutID(got) != withoutID(want) {
		t.Fatal("a dry run after an execute differs from a fresh server's that executed the same ChangeSet")
	}

	for _, muts := range [][]api.Mutation{drain, probe} {
		if err := apply(w, muts); err != nil {
			t.Fatal(err)
		}
	}
	var cs api.ChangeSet
	if err := json.Unmarshal([]byte(got), &cs); err != nil {
		t.Fatal(err)
	}
	if want := StateOf(w); !statesEqual(cs.Predicted, want) || cs.Predicted.Digests != want.Digests {
		t.Fatalf("the dry run after an execute did not predict from the executed world: %v", diffStates(cs.Predicted, want))
	}
}

// TestDryRunAfterRollbackSeesThePreState: an execute that panics and rolls
// back leaves the standing snapshot describing the live world, so the next
// dry run predicts exactly what the one before the execute did.
func TestDryRunAfterRollbackSeesThePreState(t *testing.T) {
	s, err := NewServer(Config{
		World:     testConfig(41, true),
		Technique: core.LoadShed{},
		Now:       fixedClock,
		Sabotage: func(w *experiment.World) {
			downFirstHealthy(w)
			panic("injected failure after a site went down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	drain := []api.Mutation{{Kind: "drain", Site: StateOf(s.World()).Sites[1].Code, DrainFor: 30}}
	probe := []api.Mutation{{Kind: "demand-scale", Fraction: 1.25}}

	before, rec := postChangeSet(t, s, "/v1/changesets", probe)
	if rec.Code != http.StatusOK {
		t.Fatalf("dry run: %d %s", rec.Code, rec.Body.String())
	}
	if _, rec := postChangeSet(t, s, "/v1/changesets?execute=true&sabotage=true", drain); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking execute: code %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	after, rec := postChangeSet(t, s, "/v1/changesets", probe)
	if rec.Code != http.StatusOK {
		t.Fatalf("dry run after the rollback: %d %s", rec.Code, rec.Body.String())
	}
	if !statesEqual(after.Pre, before.Pre) || !statesEqual(after.Predicted, before.Predicted) ||
		after.Predicted.Digests != before.Predicted.Digests {
		t.Fatalf("the dry run after a rollback moved: %v", diffStates(before.Predicted, after.Predicted))
	}
}

// TestRepeatedDryRunReusesTheSnapshot: the first dry run on a live version
// snapshots the world; the next ones restore from that snapshot and
// allocate less than half as much. The world is the benchmark daemon's
// (default scale and demand, prepending at depth three), where the
// snapshot is most of a dry run's bytes. An execute first makes the
// measured runs the dry runs of a version NewServer did not build, with
// every lazily built encoder table already warm.
func TestRepeatedDryRunReusesTheSnapshot(t *testing.T) {
	s, err := NewServer(Config{
		World:     experiment.DefaultWorldConfig(experiment.WithSeed(42), experiment.WithDefaultDemand()),
		Technique: core.ProactivePrepending{Prepends: 3},
		Now:       fixedClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	site := StateOf(s.World()).Sites[1].Code
	if cs, rec := postChangeSet(t, s, "/v1/changesets?execute=true", []api.Mutation{{Kind: "drain", Site: site, DrainFor: 30}}); rec.Code != http.StatusOK || !cs.Receipt.Pass {
		t.Fatalf("execute: %d %s", rec.Code, rec.Body.String())
	}
	body, err := json.Marshal(map[string]any{"mutations": []api.Mutation{{Kind: "recover", Site: site}}})
	if err != nil {
		t.Fatal(err)
	}
	dryRun := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec := serve(s, "POST", "/v1/changesets", body)
		runtime.ReadMemStats(&m1)
		if rec.Code != http.StatusOK {
			t.Fatalf("dry run: %d %s", rec.Code, rec.Body.String())
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	first := dryRun()
	for i := 0; i < 3; i++ {
		if again := dryRun(); again*2 >= first {
			t.Fatalf("dry run %d on one live version allocated %d B, the first %d B: want under half", i+2, again, first)
		}
	}
}
