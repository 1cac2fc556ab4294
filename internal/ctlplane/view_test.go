package ctlplane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/obs"
	"bestofboth/pkg/bestofboth/api"
)

// viewRoutes are the GET routes served from the published view.
var viewRoutes = []string{"/v1/world", "/v1/state", "/v1/digests", "/v1/load", "/v1/dns", "/v1/catchments"}

// liveDocs derives every viewRoutes document from the live world the way
// the handlers did when each GET recomputed it: the reference the published
// view is held to.
func liveDocs(s *Server) map[string]any {
	w := s.world
	load := api.LoadReport{APIVersion: api.Version, Sites: sitesOf(w), Availability: availabilityOf(w)}
	if acct := w.CDN.Load(); acct != nil {
		load.Shedding = acct.Shedding()
	}
	return map[string]any{
		"/v1/world": api.WorldInfo{
			APIVersion:    api.Version,
			Seed:          w.Cfg.Seed,
			ConfigDigest:  w.Cfg.Digest(),
			Shards:        w.Cfg.Shards,
			DemandEnabled: w.Cfg.Demand.Enabled,
			State:         StateOf(w),
		},
		"/v1/state":      StateOf(w),
		"/v1/digests":    digestsOf(w),
		"/v1/load":       load,
		"/v1/dns":        zoneDumpOf(w.CDN.Authoritative()),
		"/v1/catchments": catchmentsOf(w),
	}
}

// rendered is doc as a 200 response body.
func rendered(doc any) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, doc)
	return rec.Body.String()
}

// downFirstHealthy is the -test-sabotage divergence: it silently stops the
// first healthy site's forwarding and reports which site that was.
func downFirstHealthy(w *experiment.World) string {
	for _, site := range w.CDN.Sites() {
		if !w.CDN.Failed(site.Code) {
			w.Plane.SetDown(site.Node, true)
			w.CDN.RefreshLoad()
			return site.Code
		}
	}
	return ""
}

// TestPublishedViewMatchesLive: through a session that takes every path a
// ChangeSet can take — dry run, execute, sabotaged execute, 422 rejection,
// execute rolled back from a panic — every view-served GET stays
// byte-equal to the document derived from the live world at that moment.
func TestPublishedViewMatchesLive(t *testing.T) {
	var hook func(*experiment.World)
	s, err := NewServer(Config{
		World:     testConfig(41, true),
		Technique: core.LoadShed{},
		Now:       fixedClock,
		Sabotage:  func(w *experiment.World) { hook(w) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := StateOf(s.world).Sites
	a, c := sites[1].Code, sites[2].Code

	check := func(after string) {
		t.Helper()
		for path, doc := range liveDocs(s) {
			if got, want := do(t, s, "GET", path, nil, nil).Body.String(), rendered(doc); got != want {
				t.Fatalf("after %s: GET %s serves a view that differs from the live world", after, path)
			}
		}
	}
	check("NewServer")

	const execute = "/v1/changesets?execute=true"
	steps := []struct {
		name, path string
		muts       []api.Mutation
		hook       func(*experiment.World)
		code       int
	}{
		{"drain dry run", "/v1/changesets", []api.Mutation{{Kind: "drain", Site: a, DrainFor: 30}}, nil, http.StatusOK},
		{"demand-scale execute", execute, []api.Mutation{{Kind: "demand-scale", Fraction: 1.5}}, nil, http.StatusOK},
		{"sabotaged execute", execute + "&sabotage=true", []api.Mutation{{Kind: "drain", Site: a, DrainFor: 30}},
			func(w *experiment.World) { downFirstHealthy(w) }, http.StatusOK},
		{"rejection", execute, []api.Mutation{{Kind: "recover", Site: c}}, nil, http.StatusUnprocessableEntity},
		{"panicking execute", execute + "&sabotage=true", []api.Mutation{{Kind: "drain", Site: c, DrainFor: 30}},
			func(w *experiment.World) { downFirstHealthy(w); panic("injected") }, http.StatusInternalServerError},
		{"recover execute", execute, []api.Mutation{{Kind: "recover", Site: a}}, nil, http.StatusOK},
	}
	for _, st := range steps {
		hook = st.hook
		if _, rec := postChangeSet(t, s, st.path, st.muts); rec.Code != st.code {
			t.Fatalf("%s: code %d, want %d (%s)", st.name, rec.Code, st.code, rec.Body.String())
		}
		check(st.name)
	}
}

// TestExecuteRollsBack: a live execution that panics halfway — here in the
// sabotage hook, after it downed a site — answers 500 with the uniform
// error document, is recorded rejected under its id, and leaves the live
// world and the published view exactly at the pre-state; the daemon then
// executes the next ChangeSet with a passing receipt.
func TestExecuteRollsBack(t *testing.T) {
	var downed string
	s, err := NewServer(Config{
		World:     testConfig(41, true),
		Technique: core.LoadShed{},
		Now:       fixedClock,
		Sabotage: func(w *experiment.World) {
			downed = downFirstHealthy(w)
			panic("injected failure after a site went down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pre := StateOf(s.World())
	preBody := do(t, s, "GET", "/v1/state", nil, nil).Body.String()
	drain := []api.Mutation{{Kind: "drain", Site: pre.Sites[1].Code, DrainFor: 30}}

	_, rec := postChangeSet(t, s, "/v1/changesets?execute=true&sabotage=true", drain)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking execute: code %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.APIVersion != api.Version || e.Error == "" {
		t.Fatalf("not the uniform error document: %q (%v)", rec.Body.String(), err)
	}
	if downed == "" {
		t.Fatal("the sabotage hook never ran")
	}
	var rejected api.ChangeSet
	if rec := do(t, s, "GET", "/v1/changesets/cs-000001", nil, &rejected); rec.Code != http.StatusOK || rejected.Status != api.StatusRejected {
		t.Fatalf("record cs-000001: code %d status %q, want 200 rejected", rec.Code, rejected.Status)
	}
	if got := StateOf(s.World()); !statesEqual(got, pre) || got.Digests != pre.Digests {
		t.Fatalf("the live world was not rolled back (%s stays down)", downed)
	}
	if got := do(t, s, "GET", "/v1/state", nil, nil).Body.String(); got != preBody {
		t.Fatal("GET /v1/state moved across a rolled-back execute")
	}

	s.cfg.Sabotage = nil
	cs, rec := postChangeSet(t, s, "/v1/changesets?execute=true", drain)
	if rec.Code != http.StatusOK || cs.ID != "cs-000002" || cs.Status != api.StatusExecuted || !cs.Receipt.Pass {
		t.Fatalf("execute after the rollback: code %d id %q status %q (%s)", rec.Code, cs.ID, cs.Status, rec.Body.String())
	}

	// A panic outside the execute section is one 500 too.
	rec = httptest.NewRecorder()
	recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") })).
		ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Fatalf("panicking handler: code %d body %q, want 500 and the error document", rec.Code, rec.Body.String())
	}
}

// TestReadsDoNotWaitForMutation: while an execute is held inside its
// mutation (the sabotage hook blocks), every GET answers at once with the
// pre-state, and a second ChangeSet is refused with 503 + Retry-After
// without consuming an id; once the execute finishes, the GETs show it.
func TestReadsDoNotWaitForMutation(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })
	s, err := NewServer(Config{
		World:     testConfig(41, true),
		Technique: core.LoadShed{},
		Obs:       obs.NewRegistry(),
		Now:       fixedClock,
		Sabotage:  func(*experiment.World) { close(entered); <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	site := StateOf(s.world).Sites[1].Code
	body, err := json.Marshal(changeSetRequest{Mutations: []api.Mutation{{Kind: "drain", Site: site, DrainFor: 30}}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(s, "POST", "/v1/changesets", body); rec.Code != http.StatusOK {
		t.Fatalf("dry run: %d %s", rec.Code, rec.Body.String())
	}
	routes := append(viewRoutes, "/v1/changesets", "/v1/changesets/cs-000001", "/metrics", "/healthz")
	before := map[string]string{}
	for _, path := range routes {
		before[path] = serve(s, "GET", path, nil).Body.String()
	}

	executed := make(chan *httptest.ResponseRecorder, 1)
	go func() { executed <- serve(s, "POST", "/v1/changesets?execute=true&sabotage=true", body) }()
	select {
	case <-entered:
	case rec := <-executed:
		t.Fatalf("execute finished without reaching the hook: %d %s", rec.Code, rec.Body.String())
	}

	for _, path := range routes {
		got := make(chan *httptest.ResponseRecorder, 1)
		go func() { got <- serve(s, "GET", path, nil) }()
		select {
		case rec := <-got:
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s during an execute: code %d", path, rec.Code)
			}
			if path != "/metrics" && rec.Body.String() != before[path] {
				t.Fatalf("GET %s during an execute does not serve the pre-state", path)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("GET %s waited for an in-flight execute", path)
		}
	}
	busy := serve(s, "POST", "/v1/changesets", body)
	var e errorBody
	if err := json.Unmarshal(busy.Body.Bytes(), &e); busy.Code != http.StatusServiceUnavailable || busy.Header().Get("Retry-After") != "1" || err != nil || e.Error == "" {
		t.Fatalf("POST during an execute: code %d Retry-After %q body %q, want 503, 1 and the error document",
			busy.Code, busy.Header().Get("Retry-After"), busy.Body.String())
	}

	unblock.Do(func() { close(release) })
	rec := <-executed
	var cs api.ChangeSet
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); rec.Code != http.StatusOK || err != nil || cs.ID != "cs-000002" || cs.Actual == nil {
		t.Fatalf("the held execute: code %d %s", rec.Code, rec.Body.String())
	}
	if got := serve(s, "GET", "/v1/state", nil).Body.String(); got != rendered(*cs.Actual) || got == before["/v1/state"] {
		t.Fatal("GET /v1/state after the execute does not serve its actual post-state")
	}
	for path, doc := range liveDocs(s) {
		if serve(s, "GET", path, nil).Body.String() != rendered(doc) {
			t.Fatalf("GET %s after the execute does not serve the executed world", path)
		}
	}
	if next, rec := postChangeSet(t, s, "/v1/changesets", []api.Mutation{{Kind: "recover", Site: site}}); next.ID != "cs-000003" {
		t.Fatalf("next ChangeSet: code %d id %q, want cs-000003 (the refused POST consumed an id)", rec.Code, next.ID)
	}
}
