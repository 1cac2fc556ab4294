package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
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
// plane over it. All handlers serialize on one mutex: the simulator is
// single-threaded state, and the control plane's semantics are a strict
// sequence of observations and ChangeSets.
type Server struct {
	mu    sync.Mutex
	world *experiment.World
	cfg   Config
	now   func() time.Time

	nextID int
	sets   []*api.ChangeSet
	byID   map[string]*api.ChangeSet
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
	return &Server{
		world: w,
		cfg:   cfg,
		now:   now,
		byID:  map[string]*api.ChangeSet{},
	}, nil
}

// World exposes the live world (for tests that inspect or sabotage it).
func (s *Server) World() *experiment.World { return s.world }

// Handler returns the HTTP handler serving the v1 API:
//
//	GET  /v1/world            world identity + full state
//	GET  /v1/state            world state alone
//	GET  /v1/digests          routing/forwarding/DNS fingerprints
//	GET  /v1/dns              authoritative zone dump
//	GET  /v1/load             per-site load + availability
//	GET  /v1/catchments       per-site client/demand catchments
//	GET  /v1/changesets       all recorded ChangeSets
//	POST /v1/changesets       dry-run (default) or ?execute=true
//	GET  /v1/changesets/{id}  one ChangeSet record
//	GET  /metrics             Prometheus exposition
//	GET  /healthz             liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/world", s.locked(s.handleWorld))
	mux.HandleFunc("GET /v1/state", s.locked(s.handleState))
	mux.HandleFunc("GET /v1/digests", s.locked(s.handleDigests))
	mux.HandleFunc("GET /v1/dns", s.locked(s.handleDNS))
	mux.HandleFunc("GET /v1/load", s.locked(s.handleLoad))
	mux.HandleFunc("GET /v1/catchments", s.locked(s.handleCatchments))
	mux.HandleFunc("GET /v1/changesets", s.locked(s.handleChangeSets))
	mux.HandleFunc("GET /v1/changesets/{id}", s.locked(s.handleChangeSet))
	mux.HandleFunc("POST /v1/changesets", s.locked(s.handlePostChangeSet))
	mux.HandleFunc("GET /metrics", s.locked(s.handleMetrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// locked serializes a handler on the server mutex.
func (s *Server) locked(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		h(w, r)
	}
}

// writeJSON emits a response document as indented JSON. Every document is
// deterministic given the world state (struct order, sorted slices).
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
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
	cfg := s.world.Cfg
	writeJSON(w, http.StatusOK, api.WorldInfo{
		APIVersion:    api.Version,
		Seed:          cfg.Seed,
		ConfigDigest:  cfg.Digest(),
		Shards:        cfg.Shards,
		DemandEnabled: cfg.Demand.Enabled,
		State:         StateOf(s.world),
	})
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StateOf(s.world))
}

func (s *Server) handleDigests(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, digestsOf(s.world))
}

func (s *Server) handleDNS(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, zoneDumpOf(s.world.CDN.Authoritative()))
}

func (s *Server) handleLoad(w http.ResponseWriter, _ *http.Request) {
	rep := api.LoadReport{
		APIVersion:   api.Version,
		Sites:        sitesOf(s.world),
		Availability: availabilityOf(s.world),
	}
	if acct := s.world.CDN.Load(); acct != nil {
		rep.Shedding = acct.Shedding()
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCatchments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, catchmentsOf(s.world))
}

func (s *Server) handleChangeSets(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		APIVersion string           `json:"apiVersion"`
		ChangeSets []*api.ChangeSet `json:"changesets"`
	}{APIVersion: api.Version, ChangeSets: s.sets}
	if out.ChangeSets == nil {
		out.ChangeSets = []*api.ChangeSet{}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleChangeSet(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.byID[r.PathValue("id")]
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
	if err := dec.Decode(&req); err != nil {
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

	s.nextID++
	cs := &api.ChangeSet{
		APIVersion: api.Version,
		ID:         fmt.Sprintf("cs-%06d", s.nextID),
		Status:     api.StatusDryRun,
		CreatedAt:  s.now().UTC().Format(time.RFC3339),
		Mutations:  req.Mutations,
		Pre:        StateOf(s.world),
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
	if err := apply(s.world, req.Mutations); err != nil {
		// The dry run accepted this batch, so a live failure means the two
		// worlds were not equivalent — surface loudly, keep the record.
		cs.Status = api.StatusRejected
		s.record(cs)
		writeError(w, http.StatusInternalServerError, "changeset %s: live execution diverged from accepted dry-run: %v", cs.ID, err)
		return
	}
	if sabotage {
		s.cfg.Sabotage(s.world)
	}
	actual := StateOf(s.world)
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

// dryRun applies muts to a scratch restore of the live world and returns
// the predicted post-state. The live world is never touched.
func (s *Server) dryRun(muts []api.Mutation) (api.WorldState, error) {
	snap, err := s.world.Snapshot()
	if err != nil {
		return api.WorldState{}, fmt.Errorf("snapshotting live world: %w", err)
	}
	scratch, err := experiment.RestoreWorld(snap)
	if err != nil {
		return api.WorldState{}, fmt.Errorf("restoring scratch world: %w", err)
	}
	if err := apply(scratch, muts); err != nil {
		return api.WorldState{}, err
	}
	return StateOf(scratch), nil
}

func (s *Server) record(cs *api.ChangeSet) {
	s.sets = append(s.sets, cs)
	s.byID[cs.ID] = cs
}
