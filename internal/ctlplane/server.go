package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/obs"
	"bestofboth/internal/scenario"
	"bestofboth/pkg/bestofboth/api"
)

// DefaultConvergeBound is the virtual-seconds convergence deadline applied
// after every mutation batch — the harness analogue of the paper's "wait
// one hour to ensure convergence".
const DefaultConvergeBound = 3600

// Config parameterizes a Server.
type Config struct {
	// World is the world configuration the daemon owns.
	World experiment.WorldConfig
	// Technique is deployed at startup.
	Technique core.Technique
	// Obs, when non-nil, instruments the world and backs GET /metrics.
	Obs *obs.Registry
	// Now overrides the wall clock stamped into ChangeSet.CreatedAt /
	// ExecutedAt. Nil means time.Now; tests pin it for byte-identical
	// responses.
	Now func() time.Time
	// Sabotage, when non-nil, enables the ?sabotage=true query parameter
	// on execution: the hook runs against the live world after the
	// mutations applied but before the actual post-state is derived,
	// injecting the prediction/execution divergence the verification
	// receipt exists to catch. Test-only; never set in production daemons
	// without an explicit opt-in flag.
	Sabotage func(w *experiment.World)
}

// Server owns one live deployed world and serves the versioned control
// plane over it. The world changes only when a ChangeSet executes, so reads
// never touch it: every execute publishes one immutable, already rendered
// view of the world, and GETs write its bodies without a lock. mu is the
// mutation lock — the simulator is single-threaded state, so ChangeSets run
// one at a time — and logMu guards the audit trail, held only to append or
// copy.
type Server struct {
	mu    sync.Mutex // held by POST /v1/changesets; guards world, snap and nextID
	world *experiment.World
	// snap is the live world's standing snapshot: the first dry run after
	// a publish takes it, every dry run restores from it, and execute drops
	// it before the live world moves. nil until then.
	snap   *experiment.WorldSnapshot
	nextID int

	view atomic.Pointer[view]
	cfg  Config
	now  func() time.Time

	logMu sync.Mutex
	sets  []*api.ChangeSet
	byID  map[string]*api.ChangeSet
}

// view is what the GET routes serve: the live world observed once, when it
// last changed, with each route's reply rendered then. Nothing in it is
// written after it is published. A GET encodes nothing, so what it
// allocates does not depend on whether encoding/json's per-P buffer pool
// happens to hold a warm buffer on the P the request runs on.
type view struct {
	state api.WorldState // the next ChangeSet's Pre

	world, stateReply, digests, zone, load, catchments reply
}

// NewServer builds the world, deploys the technique, converges, and
// returns a serving control plane.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Technique == nil {
		return nil, fmt.Errorf("ctlplane: no technique configured")
	}
	wc := cfg.World
	wc.Obs = cfg.Obs
	w, err := experiment.NewConvergedWorld(wc, cfg.Technique, DefaultConvergeBound)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: building world: %w", err)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		world: w,
		cfg:   cfg,
		now:   now,
		byID:  map[string]*api.ChangeSet{},
	}
	s.publish(StateOf(w))
	return s, nil
}

// World exposes the live world (for tests that inspect or sabotage it). A
// failed execute replaces it, so it must not be called while a ChangeSet
// runs. The live world changes only through a ChangeSet: dry runs restore
// from a snapshot of it taken once per live version, so a caller that
// mutated it here would be predicted from the world as it was.
func (s *Server) World() *experiment.World { return s.world }

// publish derives the view of the live world whose api.WorldState is st and
// makes it the one every GET serves. Only NewServer and execute call it.
func (s *Server) publish(st api.WorldState) {
	w := s.world
	load := api.LoadReport{APIVersion: api.Version, Sites: st.Sites, Availability: st.Availability}
	if acct := w.CDN.Load(); acct != nil {
		load.Shedding = acct.Shedding()
	}
	s.view.Store(&view{
		state: st,
		world: renderJSON(api.WorldInfo{
			APIVersion:    api.Version,
			Seed:          w.Cfg.Seed,
			ConfigDigest:  w.Cfg.Digest(),
			Shards:        w.Cfg.Shards,
			DemandEnabled: w.Cfg.Demand.Enabled,
			State:         st,
		}),
		stateReply: renderJSON(st),
		digests:    renderJSON(st.Digests),
		zone:       renderJSON(zoneDumpOf(w.CDN.Authoritative())),
		load:       renderJSON(load),
		catchments: renderJSON(catchmentsOf(w)),
	})
}

// Handler returns the HTTP handler serving the v1 API:
//
//	GET  /v1/world            world identity + full state
//	GET  /v1/state            world state alone
//	GET  /v1/digests          routing/forwarding/DNS fingerprints
//	GET  /v1/dns              authoritative zone dump
//	GET  /v1/load             per-site load + availability
//	GET  /v1/catchments       per-site client/demand catchments
//	GET  /v1/changesets       the retained ChangeSet records, oldest first
//	POST /v1/changesets       dry-run (default) or ?execute=true
//	GET  /v1/changesets/{id}  one ChangeSet record
//	GET  /metrics             Prometheus exposition
//	GET  /healthz             liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/world", s.handleWorld)
	mux.HandleFunc("GET /v1/state", s.handleState)
	mux.HandleFunc("GET /v1/digests", s.handleDigests)
	mux.HandleFunc("GET /v1/dns", s.handleDNS)
	mux.HandleFunc("GET /v1/load", s.handleLoad)
	mux.HandleFunc("GET /v1/catchments", s.handleCatchments)
	mux.HandleFunc("GET /v1/changesets", s.handleChangeSets)
	mux.HandleFunc("GET /v1/changesets/{id}", s.handleChangeSet)
	mux.HandleFunc("POST /v1/changesets", s.handlePostChangeSet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return recovered(mux)
}

// recovered answers a panicking handler with one 500 and the uniform error
// document instead of a dropped connection.
func recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				writeError(w, http.StatusInternalServerError, "internal error: %v", p)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// writeJSON emits a response document as indented JSON. Every document is
// deterministic given the world state (struct order, sorted slices).
func writeJSON(w http.ResponseWriter, status int, v any) {
	renderJSON(v).write(w, status)
}

// reply is one response document rendered ahead of the write: its body,
// or the error encoding it failed with.
type reply struct {
	body []byte
	err  error
}

func renderJSON(v any) reply {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return reply{err: err}
	}
	return reply{body: append(b, '\n')}
}

func (r reply) write(w http.ResponseWriter, status int) {
	if r.err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", r.err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(r.body)
}

// errorBody is the uniform error document.
type errorBody struct {
	APIVersion string `json:"apiVersion"`
	Error      string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{APIVersion: api.Version, Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleWorld(w http.ResponseWriter, _ *http.Request) {
	s.view.Load().world.write(w, http.StatusOK)
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	s.view.Load().stateReply.write(w, http.StatusOK)
}

func (s *Server) handleDigests(w http.ResponseWriter, _ *http.Request) {
	s.view.Load().digests.write(w, http.StatusOK)
}

func (s *Server) handleDNS(w http.ResponseWriter, _ *http.Request) {
	s.view.Load().zone.write(w, http.StatusOK)
}

func (s *Server) handleLoad(w http.ResponseWriter, _ *http.Request) {
	s.view.Load().load.write(w, http.StatusOK)
}

func (s *Server) handleCatchments(w http.ResponseWriter, _ *http.Request) {
	s.view.Load().catchments.write(w, http.StatusOK)
}

func (s *Server) handleChangeSets(w http.ResponseWriter, _ *http.Request) {
	s.logMu.Lock()
	sets := append([]*api.ChangeSet{}, s.sets...)
	s.logMu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		APIVersion string           `json:"apiVersion"`
		ChangeSets []*api.ChangeSet `json:"changesets"`
	}{APIVersion: api.Version, ChangeSets: sets})
}

func (s *Server) handleChangeSet(w http.ResponseWriter, r *http.Request) {
	s.logMu.Lock()
	cs, ok := s.byID[r.PathValue("id")]
	s.logMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown changeset %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, cs)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Obs == nil {
		writeError(w, http.StatusNotFound, "metrics not enabled (no registry attached)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Obs.WritePrometheus(w)
}

// changeSetRequest is the POST /v1/changesets body.
type changeSetRequest struct {
	Mutations []api.Mutation `json:"mutations"`
}

// apply runs a mutation batch on w and settles it. The dry run calls it on
// a scratch restore and execution on the live world, so prediction and
// execution are the same code.
func apply(w *experiment.World, muts []api.Mutation) error {
	if err := scenario.ApplyEvents(w.Env(), muts); err != nil {
		return err
	}
	return w.Settle(DefaultConvergeBound)
}

// maxChangeSetBody caps the POST /v1/changesets request body. A batch of
// mutations is a few hundred bytes each; 1 MiB is thousands of them.
const maxChangeSetBody = 1 << 20

// handlePostChangeSet is the mutation entry point: dry-run by default,
// execute-and-verify with ?execute=true.
func (s *Server) handlePostChangeSet(w http.ResponseWriter, r *http.Request) {
	var req changeSetRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxChangeSetBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// One document per request: what follows it is refused, not dropped.
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the changeset document")
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "decoding request: %v", err)
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, "changeset has no mutations")
		return
	}
	for i, m := range req.Mutations {
		if m.At != 0 {
			writeError(w, http.StatusBadRequest, "mutation %d: ChangeSets act now; \"at\" (%g) is for scenario timelines", i, m.At)
			return
		}
	}
	execute := r.URL.Query().Get("execute") == "true"
	sabotage := r.URL.Query().Get("sabotage") == "true"
	if sabotage && s.cfg.Sabotage == nil {
		writeError(w, http.StatusForbidden, "sabotage requested but the daemon has no sabotage hook (start with -test-sabotage)")
		return
	}

	if !s.mu.TryLock() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "another changeset is running; retry")
		return
	}
	defer s.mu.Unlock()

	s.nextID++
	cs := &api.ChangeSet{
		APIVersion: api.Version,
		ID:         fmt.Sprintf("cs-%06d", s.nextID),
		Status:     api.StatusDryRun,
		CreatedAt:  s.now().UTC().Format(time.RFC3339),
		Mutations:  req.Mutations,
		// Under mu the view is the live world's state: an execute either
		// publishes or rolls back before it lets mu go.
		Pre: s.view.Load().state,
	}

	// Dry run: apply to a copy-on-write restore of the live world.
	predicted, err := s.dryRun(req.Mutations)
	if err != nil {
		cs.Status = api.StatusRejected
		s.record(cs)
		writeError(w, http.StatusUnprocessableEntity, "changeset %s rejected: %v", cs.ID, err)
		return
	}
	cs.Predicted = predicted
	cs.Delta = deltaOf(cs.Pre, cs.Predicted)
	if !execute {
		s.record(cs)
		writeJSON(w, http.StatusOK, cs)
		return
	}

	// Execute: the same mutations against the live world, then verify by
	// re-diffing the actual post-state against the prediction.
	actual, err := s.execute(req.Mutations, sabotage)
	if err != nil {
		// The dry run accepted this batch, so a live failure means the two
		// worlds were not equivalent — surface loudly, keep the record.
		cs.Status = api.StatusRejected
		s.record(cs)
		writeError(w, http.StatusInternalServerError, "changeset %s: live execution diverged from accepted dry-run: %v", cs.ID, err)
		return
	}
	cs.Actual = &actual
	cs.ExecutedAt = s.now().UTC().Format(time.RFC3339)
	diffs := diffStates(cs.Predicted, actual)
	cs.Receipt = &api.Receipt{Pass: len(diffs) == 0, Diffs: diffs}
	if cs.Receipt.Pass {
		cs.Status = api.StatusExecuted
	} else {
		cs.Status = api.StatusDiverged
	}
	s.record(cs)
	writeJSON(w, http.StatusOK, cs)
}

// dryRun applies muts to a scratch restore of the live world's standing
// snapshot, taking that snapshot first when none stands (no dry run since
// the last publish), and returns the predicted post-state. The live world is never
// touched.
func (s *Server) dryRun(muts []api.Mutation) (api.WorldState, error) {
	if s.snap == nil {
		snap, err := s.world.Snapshot()
		if err != nil {
			return api.WorldState{}, fmt.Errorf("snapshotting live world: %w", err)
		}
		s.snap = snap
	}
	scratch, err := experiment.RestoreWorld(s.snap)
	if err != nil {
		return api.WorldState{}, fmt.Errorf("restoring scratch world: %w", err)
	}
	if err := apply(scratch, muts); err != nil {
		return api.WorldState{}, err
	}
	return StateOf(scratch), nil
}

// execute applies muts to the live world, runs the sabotage hook when asked,
// and publishes the actual post-state. It runs after a dry run, so the
// standing snapshot is the pre-state; execute drops it before the live
// world moves. It is all or nothing: on an apply error or a panic anywhere
// in it, the live world is replaced by a restore of that snapshot, which
// stands again, and the view is left as it was.
func (s *Server) execute(muts []api.Mutation, sabotage bool) (actual api.WorldState, err error) {
	snap := s.snap
	s.snap = nil
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err == nil {
			return
		}
		w, rerr := experiment.RestoreWorld(snap)
		if rerr != nil {
			// The dry run restored snap moments ago, so only a bug gets here.
			err = fmt.Errorf("%w; rollback failed: %v", err, rerr)
			return
		}
		w.Instrument(s.cfg.Obs) // restores carry no registry (Runner.materialize)
		s.world, s.snap = w, snap
		err = fmt.Errorf("%w; the live world was rolled back", err)
	}()
	if err := apply(s.world, muts); err != nil {
		return api.WorldState{}, err
	}
	if sabotage {
		s.cfg.Sabotage(s.world)
	}
	actual = StateOf(s.world)
	s.publish(actual)
	return actual, nil
}

// maxChangeSetRecords bounds the audit trail: a long-running daemon keeps
// the last this many ChangeSet records and forgets older ones, so an
// evicted id answers 404 like one never issued.
const maxChangeSetRecords = 256

// record appends cs to the audit trail, evicting the oldest record once the
// trail is full. Records arrive in id order (ids are issued under mu), so
// the trail stays in id order.
func (s *Server) record(cs *api.ChangeSet) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if len(s.sets) == maxChangeSetRecords {
		delete(s.byID, s.sets[0].ID)
		s.sets = append(s.sets[:0], s.sets[1:]...)
	}
	s.sets = append(s.sets, cs)
	s.byID[cs.ID] = cs
}
