package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
	"bestofboth/pkg/bestofboth/api"
)

// fixedClock pins the wall clock so responses are byte-identical across
// runs (CreatedAt/ExecutedAt are the only nondeterministic fields).
func fixedClock() time.Time { return time.Unix(1700000000, 0).UTC() }

func testConfig(seed int64, demand bool) experiment.WorldConfig {
	cfg := experiment.WorldConfig{
		Seed: seed,
		Topology: topology.GenConfig{
			NumStub:       120,
			NumEyeball:    60,
			NumUniversity: 16,
			NumRegional:   24,
		},
		CollectorPeers: 25,
	}
	if demand {
		cfg.Demand = traffic.Config{Enabled: true}
	}
	return cfg
}

func newTestServer(t *testing.T, tech core.Technique, demand bool) *Server {
	t.Helper()
	s, err := NewServer(Config{
		World:     testConfig(41, demand),
		Technique: tech,
		Now:       fixedClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serve runs one request through s's handler. It never touches a
// testing.T, so goroutines other than the test's may call it.
func serve(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// do performs a request against the server's handler and decodes into out.
func do(t *testing.T, s *Server, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := serve(s, method, path, b)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func postChangeSet(t *testing.T, s *Server, path string, muts []api.Mutation) (*api.ChangeSet, *httptest.ResponseRecorder) {
	t.Helper()
	var cs api.ChangeSet
	rec := do(t, s, "POST", path, map[string]any{"mutations": muts}, &cs)
	return &cs, rec
}

// TestQueryEndpoints exercises every read endpoint against a demand world.
func TestQueryEndpoints(t *testing.T) {
	s := newTestServer(t, core.LoadShed{}, true)

	var info api.WorldInfo
	if rec := do(t, s, "GET", "/v1/world", nil, &info); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/world: %d %s", rec.Code, rec.Body.String())
	}
	if info.APIVersion != api.Version || info.Seed != 41 || !info.DemandEnabled {
		t.Fatalf("world info: %+v", info)
	}
	if info.State.Technique != "load-shed" || len(info.State.Sites) == 0 {
		t.Fatalf("world state: %+v", info.State)
	}
	if info.State.Availability.Reachable == 0 || info.State.Availability.ReachableShare <= 0 {
		t.Fatalf("no reachable targets in a healthy world: %+v", info.State.Availability)
	}

	var digests api.Digests
	do(t, s, "GET", "/v1/digests", nil, &digests)
	if len(digests.RouteStateSHA256) != 64 || len(digests.FIBSHA256) != 64 || len(digests.DNSZoneSHA256) != 64 {
		t.Fatalf("digests not sha256 hex: %+v", digests)
	}
	if digests != info.State.Digests {
		t.Fatal("digests endpoint disagrees with world state")
	}

	var zone api.ZoneDump
	do(t, s, "GET", "/v1/dns", nil, &zone)
	if zone.Origin == "" || len(zone.Records) == 0 {
		t.Fatalf("zone dump: %+v", zone)
	}
	for i := 1; i < len(zone.Records); i++ {
		if zone.Records[i-1].Name > zone.Records[i].Name {
			t.Fatal("zone records not sorted by name")
		}
	}

	var load api.LoadReport
	do(t, s, "GET", "/v1/load", nil, &load)
	if !load.Shedding {
		t.Fatal("load-shed world reports shedding off")
	}
	var offered int64
	for _, site := range load.Sites {
		if site.Load == nil {
			t.Fatalf("site %s has no load row in a demand world", site.Code)
		}
		offered += site.Load.OfferedMicroRPS
	}
	if offered == 0 {
		t.Fatal("no offered load in a demand world")
	}
	if !reflect.DeepEqual(load.Sites, info.State.Sites) || load.Availability != info.State.Availability {
		t.Fatal("load endpoint disagrees with world state")
	}

	var cm api.Catchments
	do(t, s, "GET", "/v1/catchments", nil, &cm)
	total := cm.Unreachable
	for _, sc := range cm.Sites {
		total += sc.Targets
	}
	if total != info.State.Availability.Targets {
		t.Fatalf("catchments cover %d targets, availability says %d", total, info.State.Availability.Targets)
	}

	if rec := do(t, s, "GET", "/v1/changesets/cs-000001", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown changeset: %d", rec.Code)
	}
}

// TestChangeSetDrainLifecycle is the tentpole's core contract: a drain
// ChangeSet dry-run leaves the live world untouched and predicts exactly
// the post-state the execute path then produces — pass receipt, no diffs,
// bit-identical digests.
func TestChangeSetDrainLifecycle(t *testing.T) {
	s := newTestServer(t, core.LoadShed{}, true)
	pre := StateOf(s.world)
	site := pre.Sites[0].Code

	muts := []api.Mutation{{Kind: "drain", Site: site, DrainFor: 30}}

	// Dry run: prediction without side effects.
	cs, rec := postChangeSet(t, s, "/v1/changesets", muts)
	if rec.Code != http.StatusOK {
		t.Fatalf("dry-run: %d %s", rec.Code, rec.Body.String())
	}
	if cs.Status != api.StatusDryRun || cs.Receipt != nil || cs.Actual != nil {
		t.Fatalf("dry-run record: status %q receipt %v", cs.Status, cs.Receipt)
	}
	if got := StateOf(s.world); !statesEqual(got, pre) {
		t.Fatal("dry run mutated the live world")
	}
	var predictedFailed bool
	for _, ss := range cs.Predicted.Sites {
		if ss.Code == site {
			predictedFailed = ss.Failed
		}
	}
	if !predictedFailed {
		t.Fatalf("prediction does not fail the drained site %s", site)
	}
	var sawDelta bool
	for _, sd := range cs.Delta.Sites {
		if sd.Site == site && sd.Transition == "failed" && sd.OfferedMicroRPS < 0 {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Fatalf("delta does not show %s losing its offered load: %+v", site, cs.Delta.Sites)
	}

	// Execute: actual must re-derive the prediction exactly.
	cs2, rec2 := postChangeSet(t, s, "/v1/changesets?execute=true", muts)
	if rec2.Code != http.StatusOK {
		t.Fatalf("execute: %d %s", rec2.Code, rec2.Body.String())
	}
	if cs2.Status != api.StatusExecuted || cs2.Receipt == nil || !cs2.Receipt.Pass {
		t.Fatalf("execute: status %q receipt %+v", cs2.Status, cs2.Receipt)
	}
	if len(cs2.Receipt.Diffs) != 0 {
		t.Fatalf("pass receipt carries diffs: %+v", cs2.Receipt.Diffs)
	}
	if cs2.Actual == nil || cs2.Actual.Digests != cs2.Predicted.Digests {
		t.Fatal("executed digests are not bit-identical to the prediction")
	}
	if !statesEqual(*cs2.Actual, cs2.Predicted) {
		t.Fatal("actual post-state differs from prediction")
	}

	// Recover and verify again; the records accumulate in order.
	cs3, rec3 := postChangeSet(t, s, "/v1/changesets?execute=true",
		[]api.Mutation{{Kind: "recover", Site: site}})
	if rec3.Code != http.StatusOK || cs3.Status != api.StatusExecuted || !cs3.Receipt.Pass {
		t.Fatalf("recover: %d status %q", rec3.Code, cs3.Status)
	}
	var list struct {
		APIVersion string           `json:"apiVersion"`
		ChangeSets []*api.ChangeSet `json:"changesets"`
	}
	do(t, s, "GET", "/v1/changesets", nil, &list)
	if len(list.ChangeSets) != 3 {
		t.Fatalf("%d recorded changesets, want 3", len(list.ChangeSets))
	}
	if list.ChangeSets[0].ID != "cs-000001" || list.ChangeSets[2].ID != "cs-000003" {
		t.Fatalf("changeset IDs out of order: %s, %s", list.ChangeSets[0].ID, list.ChangeSets[2].ID)
	}
	var one api.ChangeSet
	if rec := do(t, s, "GET", "/v1/changesets/cs-000002", nil, &one); rec.Code != http.StatusOK || one.ID != "cs-000002" {
		t.Fatalf("GET by id: %d %s", rec.Code, one.ID)
	}
}

// statesEqual compares WorldStates through the receipt differ, so tests
// and verification agree on what "equal" means.
func statesEqual(a, b api.WorldState) bool {
	return len(diffStates(a, b)) == 0
}

// TestChangeSetCompound executes a multi-mutation ChangeSet — technique
// switch, announcement policy, demand scale, link fault — and requires a
// pass receipt for each, plus prediction fidelity across the accumulated
// demand-scale history (the replay path).
func TestChangeSetCompound(t *testing.T) {
	s := newTestServer(t, core.Anycast{}, true)

	// Demand scale first: this exercises the dry-run replay history on
	// every subsequent ChangeSet.
	cs, rec := postChangeSet(t, s, "/v1/changesets?execute=true",
		[]api.Mutation{{Kind: "demand-scale", Fraction: 1.5}})
	if rec.Code != http.StatusOK || !cs.Receipt.Pass {
		t.Fatalf("demand-scale: %d receipt %+v", rec.Code, cs.Receipt)
	}

	// Switch to a per-site-prefix technique, then repolicy a site and drop
	// a link, all in one ordered batch.
	site := StateOf(s.world).Sites[1].Code
	cs2, rec2 := postChangeSet(t, s, "/v1/changesets?execute=true", []api.Mutation{
		{Kind: "switch-technique", Technique: "reactive-anycast"},
		{Kind: "announce-policy", Site: site, Count: 3},
	})
	if rec2.Code != http.StatusOK {
		t.Fatalf("compound: %d %s", rec2.Code, rec2.Body.String())
	}
	if cs2.Status != api.StatusExecuted || !cs2.Receipt.Pass {
		t.Fatalf("compound: status %q diffs %+v", cs2.Status, cs2.Receipt.Diffs)
	}
	if cs2.Actual.Technique != "reactive-anycast" {
		t.Fatalf("technique after switch: %q", cs2.Actual.Technique)
	}

	// A third ChangeSet after both a demand scale and a switch still
	// predicts exactly (fail + detection-delay reaction path).
	cs3, rec3 := postChangeSet(t, s, "/v1/changesets?execute=true",
		[]api.Mutation{{Kind: "fail", Site: site}})
	if rec3.Code != http.StatusOK || !cs3.Receipt.Pass {
		t.Fatalf("fail after history: %d diffs %+v", rec3.Code, cs3.Receipt.Diffs)
	}
}

// TestChangeSetRejected covers the validation path: bad mutations are
// rejected with 422, recorded as rejected, and leave the live world
// untouched.
func TestChangeSetRejected(t *testing.T) {
	s := newTestServer(t, core.Anycast{}, false)
	pre := StateOf(s.world)

	cases := [][]api.Mutation{
		{{Kind: "drain"}},                              // missing site
		{{Kind: "warp-core-breach", Site: "atl"}},      // unknown kind
		{{Kind: "switch-technique", Technique: "nah"}}, // unknown technique
		{{Kind: "recover", Site: "atl"}},               // site not failed
		{{Kind: "demand-scale", Fraction: 2}},          // no demand model
		// Counts that size an allocation: 2*count overflows makeslice, the
		// next asks for gigabytes of actions, the last for a 10⁸-ASN path.
		{{Kind: "flap", Site: "atl", Period: 1, Count: 1 << 62}},
		{{Kind: "flap", Site: "atl", Period: 0.001, Count: 50_000_000}},
		{{Kind: "announce-policy", Site: "atl", Count: 100_000_000}},
	}
	for i, muts := range cases {
		_, rec := postChangeSet(t, s, "/v1/changesets?execute=true", muts)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("case %d: code %d, want 422 (%s)", i, rec.Code, rec.Body.String())
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.APIVersion != api.Version || e.Error == "" {
			t.Fatalf("case %d: not the uniform error document: %q (%v)", i, rec.Body.String(), err)
		}
		// The daemon keeps serving, on the world it had.
		var got api.WorldState
		if rec := do(t, s, "GET", "/v1/state", nil, &got); rec.Code != http.StatusOK || got.Digests != pre.Digests {
			t.Fatalf("case %d: GET /v1/state after the rejection: code %d, digests %+v, want 200 and %+v", i, rec.Code, got.Digests, pre.Digests)
		}
	}
	if got := StateOf(s.world); !statesEqual(got, pre) {
		t.Fatal("rejected changesets mutated the live world")
	}
	var list struct {
		ChangeSets []*api.ChangeSet `json:"changesets"`
	}
	do(t, s, "GET", "/v1/changesets", nil, &list)
	if len(list.ChangeSets) != len(cases) {
		t.Fatalf("%d records, want %d", len(list.ChangeSets), len(cases))
	}
	for _, cs := range list.ChangeSets {
		if cs.Status != api.StatusRejected {
			t.Fatalf("changeset %s status %q, want rejected", cs.ID, cs.Status)
		}
	}

	if _, rec := postChangeSet(t, s, "/v1/changesets", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty mutation list: %d, want 400", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/changesets?sabotage=true", map[string]any{
		"mutations": []api.Mutation{{Kind: "crash", Site: "atl"}},
	}, nil); rec.Code != http.StatusForbidden {
		t.Fatalf("sabotage without hook: %d, want 403", rec.Code)
	}
}

// TestChangeSetAuditTrailBounded: the audit trail keeps only the last
// maxChangeSetRecords records. Three more ChangeSets than it holds evict
// the three oldest: the list starts at cs-000004 in id order, an evicted id
// answers 404 with the uniform error document, and ids stay monotonic.
func TestChangeSetAuditTrailBounded(t *testing.T) {
	s := newTestServer(t, core.Anycast{}, false)
	// One cycle over the flap bound: Validate refuses it before anything
	// settles, so each post is cheap and recorded as rejected.
	refused := []api.Mutation{{Kind: "flap", Site: "atl", Period: 1, Count: 1001}}
	for i := 0; i < maxChangeSetRecords+3; i++ {
		if _, rec := postChangeSet(t, s, "/v1/changesets", refused); rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("post %d: code %d, want 422 (%s)", i, rec.Code, rec.Body.String())
		}
	}

	var list struct {
		ChangeSets []*api.ChangeSet `json:"changesets"`
	}
	do(t, s, "GET", "/v1/changesets", nil, &list)
	if len(list.ChangeSets) != maxChangeSetRecords {
		t.Fatalf("%d records retained, want %d", len(list.ChangeSets), maxChangeSetRecords)
	}
	for i, cs := range list.ChangeSets {
		if want := fmt.Sprintf("cs-%06d", i+4); cs.ID != want || cs.Status != api.StatusRejected {
			t.Fatalf("record %d: %s %q, want %s rejected", i, cs.ID, cs.Status, want)
		}
	}

	rec := do(t, s, "GET", "/v1/changesets/cs-000001", nil, nil)
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusNotFound || err != nil || e.APIVersion != api.Version || e.Error == "" {
		t.Fatalf("evicted cs-000001: code %d, body %q, want 404 and the uniform error document", rec.Code, rec.Body.String())
	}
	var cs api.ChangeSet
	if rec := do(t, s, "GET", "/v1/changesets/cs-000004", nil, &cs); rec.Code != http.StatusOK || cs.ID != "cs-000004" {
		t.Fatalf("oldest retained cs-000004: code %d, id %q", rec.Code, cs.ID)
	}

	next, rec := postChangeSet(t, s, "/v1/changesets", []api.Mutation{{Kind: "drain", Site: "atl", DrainFor: 30}})
	if rec.Code != http.StatusOK || next.ID != "cs-000260" {
		t.Fatalf("next changeset: code %d, id %q, want 200 and cs-000260 (%s)", rec.Code, next.ID, rec.Body.String())
	}
}

// TestChangeSetBodyCap: a request body over the 1 MiB cap is refused with
// 413 and the uniform error document before anything is recorded — no
// ChangeSet id consumed, live world untouched — however the excess arrives.
// The same holds (as a 400) for a mutation carrying the shared vocabulary
// struct's scenario-only "at": ChangeSets act now.
func TestChangeSetBodyCap(t *testing.T) {
	s := newTestServer(t, core.Anycast{}, false)
	pre := StateOf(s.world)

	pad := strings.Repeat(" ", maxChangeSetBody)
	mut := `{"kind":"drain","site":"atl","drainFor":30}`
	cases := []struct {
		name, body string
		code       int
	}{
		{"oversized mutation list", `{"mutations":[` + strings.Repeat(mut+",", maxChangeSetBody/len(mut)+1) + mut + `]}`, http.StatusRequestEntityTooLarge},
		{"valid document after oversized padding", pad + `{"mutations":[` + mut + `]}`, http.StatusRequestEntityTooLarge},
		{"oversized garbage", strings.Repeat("x", maxChangeSetBody+1), http.StatusBadRequest}, // malformed at byte 0, never reaches the cap
		{"malformed at exactly the cap", pad, http.StatusBadRequest},
		{"mutation scheduled for later", `{"mutations":[` + mut + `,{"at":10,"kind":"recover","site":"atl"}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", "/v1/changesets?execute=true", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != c.code {
			t.Errorf("%s: code %d, want %d", c.name, rec.Code, c.code)
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.APIVersion != api.Version || e.Error == "" {
			t.Errorf("%s: not the uniform error document: %q (%v)", c.name, rec.Body.String(), err)
		}
	}

	var list struct {
		ChangeSets []*api.ChangeSet `json:"changesets"`
	}
	do(t, s, "GET", "/v1/changesets", nil, &list)
	if len(list.ChangeSets) != 0 {
		t.Fatalf("%d changesets recorded by refused requests", len(list.ChangeSets))
	}
	if got := StateOf(s.world); !statesEqual(got, pre) {
		t.Fatal("refused requests moved the live world")
	}
	cs, rec := postChangeSet(t, s, "/v1/changesets", []api.Mutation{{Kind: "drain", Site: "atl", DrainFor: 30}})
	if rec.Code != http.StatusOK || cs.ID != "cs-000001" {
		t.Fatalf("first accepted changeset: code %d id %q, want 200 cs-000001", rec.Code, cs.ID)
	}
}

// TestPostRejectsTrailingData: a ChangeSet request is one JSON document. A
// second document or garbage after it answers 400 with the uniform error
// document instead of running the first and dropping the rest; nothing is
// recorded, no id is consumed, and the live world does not move.
// Trailing whitespace is still fine.
func TestPostRejectsTrailingData(t *testing.T) {
	s := newTestServer(t, core.Anycast{}, false)
	pre := StateOf(s.world)

	drain := `{"mutations":[{"kind":"drain","site":"atl","drainFor":30}]}`
	for _, body := range []string{
		drain + ` {"mutations":[{"kind":"fail","site":"msn"}]}`,
		drain + ` garbage`,
	} {
		rec := serve(s, "POST", "/v1/changesets?execute=true", []byte(body))
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusBadRequest || err != nil || e.APIVersion != api.Version || e.Error == "" {
			t.Fatalf("%q: code %d, error %q, want 400 and the uniform error document", body, rec.Code, e.Error)
		}
	}

	var list struct {
		ChangeSets []*api.ChangeSet `json:"changesets"`
	}
	do(t, s, "GET", "/v1/changesets", nil, &list)
	if len(list.ChangeSets) != 0 {
		t.Fatalf("%d changesets recorded by refused requests", len(list.ChangeSets))
	}
	if got := StateOf(s.world); !statesEqual(got, pre) {
		t.Fatal("refused requests moved the live world")
	}
	rec := serve(s, "POST", "/v1/changesets", []byte(drain+"\n\t "))
	var cs api.ChangeSet
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); rec.Code != http.StatusOK || err != nil || cs.ID != "cs-000001" {
		t.Fatalf("next changeset: code %d, id %q, want 200 and cs-000001 (%s)", rec.Code, cs.ID, rec.Body.String())
	}
}

// TestDryRunDeterminism: the same dry-run against two independently built
// servers produces byte-identical response bodies (the golden-file
// property the API's determinism contract promises).
func TestDryRunDeterminism(t *testing.T) {
	muts := []api.Mutation{
		{Kind: "drain", Site: "atl", DrainFor: 30},
		{Kind: "demand-scale", Fraction: 1.25},
	}
	var bodies []string
	for i := 0; i < 2; i++ {
		s := newTestServer(t, core.LoadShed{}, true)
		_, rec := postChangeSet(t, s, "/v1/changesets", muts)
		if rec.Code != http.StatusOK {
			t.Fatalf("dry-run %d: %d %s", i, rec.Code, rec.Body.String())
		}
		bodies = append(bodies, rec.Body.String())
	}
	if bodies[0] != bodies[1] {
		t.Fatal("dry-run response bodies differ between identical servers")
	}
	if !strings.Contains(bodies[0], `"apiVersion": "v1"`) {
		t.Fatal("response carries no apiVersion")
	}
}

// TestCachedTopologyStaysPristine is the evidence behind sharing one
// *Topology across every world (topology.Cached hands out the memoized
// instance, no copy): a Figure 2 matrix and a drain/recover ChangeSet pair
// — restores, failures, withdrawals, dry runs, live execution — leave the
// shared graph deep-equal to a fresh Generate.
func TestCachedTopologyStaysPristine(t *testing.T) {
	cfg := testConfig(43, true)
	sel, err := experiment.SelectTargets(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	fc := experiment.FailoverConfig{ProbeDuration: 300, MaxTargets: 12}
	techs := []core.Technique{core.ReactiveAnycast{}, core.ProactiveSuperprefix{}}
	if _, err := (&experiment.Runner{Workers: 2}).Figure2(cfg, sel, techs, []string{"atl", "msn"}, fc); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Config{World: cfg, Technique: core.LoadShed{}, Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	site := StateOf(s.world).Sites[0].Code
	for _, muts := range [][]api.Mutation{
		{{Kind: "drain", Site: site, DrainFor: 30}},
		{{Kind: "recover", Site: site}},
	} {
		if cs, rec := postChangeSet(t, s, "/v1/changesets?execute=true", muts); rec.Code != http.StatusOK || !cs.Receipt.Pass {
			t.Fatalf("%s: %d %s", muts[0].Kind, rec.Code, rec.Body.String())
		}
	}

	shared, err := topology.Cached(s.world.Cfg.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if shared != s.world.Topo {
		t.Fatal("the live world does not hold the cached topology instance")
	}
	fresh, err := topology.Generate(s.world.Cfg.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Fatal("the shared cached topology was mutated: it no longer equals a fresh Generate")
	}
}
