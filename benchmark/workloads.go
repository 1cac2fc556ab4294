package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"

	"bestofboth/internal/core"
	"bestofboth/internal/ctlplane"
	"bestofboth/internal/experiment"
	"bestofboth/pkg/bestofboth/api"
)

// convergeBound is the paper's "wait one hour to ensure convergence" (§5.2),
// in virtual seconds.
const convergeBound = 3600

// technique is what the converge and ChangeSet workloads deploy: the
// paper's recommended proactive prepending at depth three.
var technique = core.ProactivePrepending{Prepends: 3}

// fig2Techniques are the four techniques of the paper's Figure 2, in the
// order cdnsim fig2 runs them.
var fig2Techniques = []core.Technique{
	core.ProactiveSuperprefix{},
	core.ReactiveAnycast{},
	core.ProactivePrepending{Prepends: 3},
	core.Anycast{},
}

// workloads is the benchmark's workload list and must match
// BENCHMARK.json's (TestBenchmarkJSONMatchesTables). Every workload is a
// closed loop of one client: a researcher waiting for a figure, or one
// operator talking to a one-mutex daemon, sends the next request only when
// the previous one has answered.
var workloads = []workload{
	{
		name: "converge-cold",
		why:  "paper-scale cold converge on one kernel: bgp and netsim do ~95% of the work, so a kernel or decision-process gain shows here and nowhere else",
		// The warm-ups' seeds, the probes' world and 28 operations fill the
		// 32-entry topology cache exactly.
		maxOps: 32 - 1 - convergeWarmups,
		slots:  convergeWarmups,
		new:    func(e *env) runner { return &converge{e: e, shards: 1} },
	},
	{
		name:   "converge-sharded",
		why:    "the same converge across two shard kernels: barriers, mailboxes and per-shard intern tables, so a gain for one kernel that costs the sharded path shows",
		maxOps: 32 - 1 - convergeWarmups,
		slots:  convergeWarmups,
		new:    func(e *env) runner { return &converge{e: e, shards: 2} },
	},
	{
		name:   "fig2-cold",
		why:    "the paper's headline matrix from nothing: four deploy+converge builds, 32 restores, probing and withdrawal path hunting; no layer dominates, so a trade between them shows",
		maxOps: fig2ColdSeeds,
		slots:  3,
		new:    func(e *env) runner { return &fig2{e: e, cold: true} },
	},
	{
		name: "fig2-warm",
		why:  "the same matrix on cached converged snapshots (what BenchmarkFigure2 measured): restore, dataplane probing and withdrawal only, bypassing the builds fig2-cold pays",
		// Four seeds' snapshots take half of experiment.worldSnaps.
		slots: 4,
		new:   func(e *env) runner { return &fig2{e: e} },
	},
	{
		name:  "changeset-dryrun",
		why:   "the operator's dry run over loopback HTTP: snapshot, restore, apply, settle and two state digests; digests dominate, and the live world must not move",
		slots: daemonSlots,
		new:   func(e *env) runner { return &daemon{e: e, kind: opDryRun} },
	},
	{
		name:  "changeset-execute",
		why:   "drain then recover executed on the live world with verification receipts: the dry run's path plus live apply, settle and a third digest",
		slots: daemonSlots,
		new:   func(e *env) runner { return &daemon{e: e, kind: opExecute} },
	},
	{
		name:  "state-read",
		why:   "GET /v1/state beside the mutation workloads: the read path alone, so work moved from reads into mutations (or back) shows on both sides",
		slots: daemonSlots,
		new:   func(e *env) runner { return &daemon{e: e, kind: opRead} },
	},
}

// convergeWarmups is how many untimed warm-up converges a converge run
// makes; their seeds come before the operations'.
const convergeWarmups = 3

// converge is the cold-converge workload: operation i builds a world from
// a seed no earlier operation used (topology generated inside the
// operation), deploys, and drains the control plane.
type converge struct {
	e       *env
	shards  int
	records int
}

// build is one cold converge with the given shard count.
func (c *converge) build(seed int64, shards int) (*experiment.World, error) {
	cfg := experiment.DefaultWorldConfig(experiment.WithSeed(seed),
		c.e.scale(experiment.PaperScale), experiment.WithShards(shards), experiment.WithObs(c.e.reg))
	var w *experiment.World
	var err error
	c.e.tr.span("experiment.NewWorld", func() { w, err = experiment.NewWorld(cfg) })
	if err != nil {
		return nil, err
	}
	c.e.tr.span("core.Deploy", func() { err = w.CDN.Deploy(technique) })
	if err != nil {
		return nil, err
	}
	c.e.tr.span("bgp.Converge", func() { w.Converge(convergeBound) })
	return w, nil
}

// checkConverged is the converge workloads' output check: nothing left to
// run, and every client target reaches some site on the first site's
// steering address.
func checkConverged(w *experiment.World) error {
	if n := w.Sim.Pending(); n != 0 {
		return fmt.Errorf("%d events pending after converge", n)
	}
	addr := w.CDN.Sites()[0].Addr
	for _, t := range w.Targets() {
		if w.CDN.CatchmentOf(t.ID, addr) == nil {
			return fmt.Errorf("target %s has no catchment for %s", t.Name, addr)
		}
	}
	return nil
}

// setUp is one untimed warm-up operation, so heap growth is not charged to
// the first timed one; the sharded workload also builds the same seed on
// one kernel and requires identical route-state and FIB digests.
func (c *converge) setUp(rep int) error {
	seed := c.e.seed + int64(rep)
	w, err := c.build(seed, c.shards)
	if err != nil {
		return err
	}
	if err := checkConverged(w); err != nil {
		return err
	}
	if c.shards == 1 {
		return nil
	}
	ref, err := c.build(seed, 1)
	if err != nil {
		return err
	}
	if w.Net.RouteStateDigest() != ref.Net.RouteStateDigest() {
		return errors.New("sharded route-state digest differs from the unsharded world's")
	}
	if w.Plane.FIBDigest() != ref.Plane.FIBDigest() {
		return errors.New("sharded FIB digest differs from the unsharded world's")
	}
	return nil
}

func (c *converge) op(i int) (func() error, error) {
	w, err := c.build(c.e.seed+convergeWarmups+int64(i), c.shards)
	if err != nil {
		return nil, err
	}
	return func() error {
		c.records += len(w.Collector.Records())
		return checkConverged(w)
	}, nil
}

func (c *converge) finish(int) error { return nil }

func (c *converge) collectorRecords() float64 { return float64(c.records) }

// fig2 is the Figure 2 matrix — four techniques × eight failed sites at
// default scale with cdnsim fig2's target caps. Cold, every operation has
// its own seed and pays the four deploy+converge builds; warm, operations
// repeat the seeds set-up built and must reproduce its result exactly.
type fig2 struct {
	e    *env
	cold bool
	// slots holds, cold, one entry per operation seed (selection only) and,
	// warm, one per set-up repetition (selection and the cold result).
	slots []fig2Slot
	// hits is the snapshot-cache hit count when set-up ended (traced only).
	hits uint64
}

type fig2Slot struct {
	cfg   experiment.WorldConfig
	sel   *experiment.Selection
	sites []string
	pairs []experiment.CDFPair
}

const snapshotCacheHits = "experiment_snapshot_cache_hits_total"

// fig2ColdSeeds is the cold workload's operation count: four snapshots per
// seed, so eight seeds fill experiment.worldSnaps.
const fig2ColdSeeds = 8

// Target caps of `cdnsim fig2`: -targets 200, -probe-targets 60.
const (
	fig2SelectPerSite = 200
	fig2ProbeTargets  = 60
)

func (f *fig2) selection(seed int64) (fig2Slot, error) {
	s := fig2Slot{cfg: experiment.DefaultWorldConfig(experiment.WithSeed(seed), f.e.scale(1))}
	var err error
	f.e.tr.span("experiment.SelectTargets", func() { s.sel, err = experiment.SelectTargets(s.cfg, fig2SelectPerSite) })
	if err != nil {
		return s, err
	}
	for _, st := range s.sel.Sites {
		s.sites = append(s.sites, st.Code)
	}
	return s, nil
}

func (f *fig2) figure(s fig2Slot) ([]experiment.CDFPair, error) {
	fc := experiment.DefaultFailoverConfig()
	fc.MaxTargets = fig2ProbeTargets
	r := &experiment.Runner{Workers: f.e.workers, Obs: f.e.reg}
	var pairs []experiment.CDFPair
	var err error
	f.e.tr.span("experiment.Figure2", func() { pairs, err = r.Figure2(s.cfg, s.sel, fig2Techniques, s.sites, fc) })
	return pairs, err
}

// checkFigure2 holds a result to the paper's central claim: every pooled
// CDF has samples, and reactive anycast fails over faster at the median
// than proactive superprefix.
func checkFigure2(pairs []experiment.CDFPair) error {
	p50 := map[string]float64{}
	for _, p := range pairs {
		if p.Failover.N() == 0 || p.Reconnection.N() == 0 {
			return fmt.Errorf("%s: empty pooled CDF", p.Technique)
		}
		p50[p.Technique] = p.Failover.Median()
	}
	ra, ps := p50[core.ReactiveAnycast{}.Name()], p50[core.ProactiveSuperprefix{}.Name()]
	if ra >= ps {
		return fmt.Errorf("reactive-anycast failover p50 %.2fs is not below proactive-superprefix's %.2fs", ra, ps)
	}
	return nil
}

// setUp, cold, selects targets for every operation's seed; warm, it selects
// for one seed and runs the cold matrix that fills the snapshot cache.
func (f *fig2) setUp(rep int) error {
	if f.cold {
		f.slots = f.slots[:0]
		n := fig2ColdSeeds
		if f.e.quick {
			n = 1
		}
		for i := 0; i < n; i++ {
			s, err := f.selection(f.e.seed + int64(i))
			if err != nil {
				return err
			}
			f.slots = append(f.slots, s)
		}
		return nil
	}
	s, err := f.selection(f.e.seed + int64(rep))
	if err != nil {
		return err
	}
	if s.pairs, err = f.figure(s); err != nil {
		return err
	}
	f.slots = append(f.slots, s)
	f.hits = f.cacheHits()
	return checkFigure2(s.pairs)
}

func (f *fig2) op(i int) (func() error, error) {
	s := f.slots[i%len(f.slots)]
	pairs, err := f.figure(s)
	if err != nil {
		return nil, err
	}
	return func() error {
		if !f.cold && !reflect.DeepEqual(pairs, s.pairs) {
			return errors.New("warm result differs from the cold result for the same seed")
		}
		return checkFigure2(pairs)
	}, nil
}

// cacheHits reads the Runner's snapshot-cache hit counter (0 untraced).
func (f *fig2) cacheHits() uint64 {
	return f.e.reg.VolatileCounter(snapshotCacheHits).Value()
}

// finish, traced and warm, requires every technique of every operation to
// have hit the snapshot cache.
func (f *fig2) finish(ops int) error {
	if f.cold || f.e.reg == nil {
		return nil
	}
	want := uint64(ops * len(fig2Techniques))
	if got := f.cacheHits() - f.hits; got != want {
		return fmt.Errorf("snapshot cache hits = %v, want %v", got, want)
	}
	return nil
}

// daemonSlots is how many servers, each over its own seed's world, a daemon
// workload's operations rotate over.
const daemonSlots = 6

// opKind selects which request the daemon workloads time.
type opKind int

const (
	opDryRun opKind = iota
	opExecute
	opRead
)

// daemon drives ctlplane servers (default scale, default demand) over
// loopback HTTP on one connection. Each set-up repetition starts one
// server; operations rotate over the servers and over the eight sites.
type daemon struct {
	e      *env
	kind   opKind
	client *http.Client
	slots  []*daemonSlot
	bytes  int // reply bytes of every ChangeSet posted (the probes' response_kb)
}

type daemonSlot struct {
	ts      *httptest.Server
	sites   []string
	digests api.Digests
}

func (d *daemon) setUp(rep int) error {
	if d.client == nil {
		d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	}
	slot, err := startDaemon(d.e, d.client, d.e.seed+int64(rep))
	if err != nil {
		return err
	}
	d.slots = append(d.slots, slot)
	return nil
}

// startDaemon builds a server and reads its initial state: the site roster
// operations cycle over and the digests a dry run must leave alone.
func startDaemon(e *env, client *http.Client, seed int64) (*daemonSlot, error) {
	var srv *ctlplane.Server
	var err error
	e.tr.span("ctlplane.NewServer", func() {
		srv, err = ctlplane.NewServer(ctlplane.Config{
			World:     experiment.DefaultWorldConfig(experiment.WithSeed(seed), e.scale(1), experiment.WithDefaultDemand()),
			Technique: technique,
			Obs:       e.reg,
		})
	})
	if err != nil {
		return nil, err
	}
	slot := &daemonSlot{ts: httptest.NewServer(srv.Handler())}
	var st api.WorldState
	if _, err := call(client, http.MethodGet, slot.ts.URL+"/v1/state", nil, &st); err != nil {
		slot.ts.Close()
		return nil, err
	}
	for _, s := range st.Sites {
		slot.sites = append(slot.sites, s.Code)
	}
	slot.digests = st.Digests
	return slot, nil
}

// call sends one request and decodes the JSON reply into out, returning the
// reply's size. Anything but 200 is an error carrying the body.
func call(client *http.Client, method, url string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return len(data), fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
	}
	return len(data), nil
}

// changeSet posts one single-mutation ChangeSet, timed from request sent to
// body decoded.
func (d *daemon) changeSet(slot *daemonSlot, kind, site string, execute bool) (*api.ChangeSet, error) {
	url := slot.ts.URL + "/v1/changesets"
	if execute {
		url += "?execute=true"
	}
	body := struct {
		Mutations []api.Mutation `json:"mutations"`
	}{[]api.Mutation{{Kind: kind, Site: site}}}
	var cs api.ChangeSet
	var err error
	var n int
	d.e.tr.span("ctlplane.POST", func() { n, err = call(d.client, http.MethodPost, url, body, &cs) })
	d.bytes += n
	return &cs, err
}

func checkExecuted(cs *api.ChangeSet) error {
	if cs.Status != api.StatusExecuted || cs.Receipt == nil || !cs.Receipt.Pass {
		return fmt.Errorf("changeset %s: status %q, receipt %+v", cs.ID, cs.Status, cs.Receipt)
	}
	return nil
}

func (d *daemon) op(i int) (func() error, error) {
	slot := d.slots[i%len(d.slots)]
	site := slot.sites[(i/len(d.slots))%len(slot.sites)]
	switch d.kind {
	case opDryRun:
		cs, err := d.changeSet(slot, "drain", site, false)
		return func() error {
			if cs.Status != api.StatusDryRun {
				return fmt.Errorf("changeset %s: status %q, want dry run", cs.ID, cs.Status)
			}
			// Pre is the live state this dry run started from: the dry
			// runs before it must not have moved it.
			if cs.Pre.Digests != slot.digests {
				return fmt.Errorf("changeset %s: live digests moved across a dry run", cs.ID)
			}
			return nil
		}, err
	case opExecute:
		drain, err := d.changeSet(slot, "drain", site, true)
		if err != nil {
			return nil, err
		}
		back, err := d.changeSet(slot, "recover", site, true)
		return func() error {
			return errors.Join(checkExecuted(drain), checkExecuted(back))
		}, err
	default:
		var st api.WorldState
		var err error
		d.e.tr.span("ctlplane.GET", func() { _, err = call(d.client, http.MethodGet, slot.ts.URL+"/v1/state", nil, &st) })
		return func() error {
			if len(st.Sites) != len(slot.sites) || st.Digests != slot.digests {
				return errors.New("GET /v1/state: state moved under a read-only workload")
			}
			return nil
		}, err
	}
}

// finish re-reads every server's digests — a dry run or a read must have
// left them as set-up found them — and stops the servers.
func (d *daemon) finish(int) error {
	var errs []error
	for _, slot := range d.slots {
		if d.kind != opExecute {
			var dg api.Digests
			if _, err := call(d.client, http.MethodGet, slot.ts.URL+"/v1/digests", nil, &dg); err != nil {
				errs = append(errs, err)
			} else if dg != slot.digests {
				errs = append(errs, errors.New("GET /v1/digests: live digests moved under a workload that only dry-runs or reads"))
			}
		}
		slot.ts.Close()
	}
	d.client.CloseIdleConnections()
	return errors.Join(errs...)
}
