package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bestofboth/internal/core"
	"bestofboth/internal/memo"
	"bestofboth/internal/obs"
)

// Runner executes failover experiment matrices across a worker pool with
// converged-world reuse.
//
// Every ⟨technique, failed site⟩ run is an independent simulation, so the
// matrix parallelizes perfectly across GOMAXPROCS workers. On top of that,
// all runs of one technique share the identical pre-failure trajectory —
// deploy, then converge — so the Runner pays that phase once per technique
// (on a template world), snapshots it, and materializes each per-site run
// from the snapshot, as the paper fails each site from the state an hour of
// convergence left (§5.2). Restored runs are bit-identical to runs on a
// fresh world (RunFailover), so results do not depend on Workers.
//
// The zero value is ready to use: Workers <= 0 runs GOMAXPROCS workers.
type Runner struct {
	// Workers bounds the number of concurrently executing runs. <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Obs, when non-nil, instruments every world the Runner materializes and
	// records runner-side metrics (run timings, snapshot cache traffic,
	// worker utilization). Runner metrics are wall-clock and cache-history
	// dependent, so they register as volatile: excluded from
	// obs.Registry.DeterministicSnapshot.
	Obs *obs.Registry
	// Progress, when non-nil, is invoked after each completed run of a
	// matrix with the number of finished runs and the matrix total. Calls
	// are serialized; done reaches total when the matrix finishes without
	// error.
	Progress func(done, total int)

	busy atomic.Int64 // runs currently holding a worker slot
}

func (r *Runner) workers() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// runnerMetrics bundles the Runner's volatile instruments. All methods are
// nil-safe: a Runner without a registry resolves every metric to nil and the
// recording calls no-op.
type runnerMetrics struct {
	runs       *obs.Counter
	runSeconds *obs.Histogram
	snapBuilds *obs.Counter
	snapHits   *obs.Counter
	snapEvicts *obs.Counter
	restores   *obs.Counter
	buildSecs  *obs.Histogram
	matSecs    *obs.Histogram
	busyMax    *obs.Gauge
}

func (r *Runner) metrics() runnerMetrics {
	var reg *obs.Registry
	if r != nil {
		reg = r.Obs
	}
	return runnerMetrics{
		runs:       reg.VolatileCounter("experiment_runs_total"),
		runSeconds: reg.VolatileHistogram("experiment_run_seconds", obs.DefaultDurationBuckets...),
		snapBuilds: reg.VolatileCounter("experiment_snapshot_builds_total"),
		snapHits:   reg.VolatileCounter("experiment_snapshot_cache_hits_total"),
		snapEvicts: reg.VolatileCounter("experiment_snapshot_evictions_total"),
		restores:   reg.VolatileCounter("experiment_snapshot_restores_total"),
		buildSecs:  reg.VolatileHistogram("experiment_snapshot_build_seconds", obs.DefaultDurationBuckets...),
		matSecs:    reg.VolatileHistogram("experiment_materialize_seconds", obs.DefaultDurationBuckets...),
		busyMax:    reg.VolatileGauge("experiment_workers_busy_max"),
	}
}

// worldSnaps caches converged-world snapshots per ⟨world configuration,
// technique⟩ across all Runner instances: repeated invocations (benchmark
// iterations, figure 2 followed by figure 5 in one process) reuse each
// other's converge work. A figure-2 matrix needs one entry per technique.
var worldSnaps memo.Cache[*WorldSnapshot]

// snapKey canonicalizes the full converged-world identity: the config's
// identity string plus technique. Techniques are flat value structs, so
// their type and formatted value identify them (including e.g. prepend
// depth).
func snapKey(cfg WorldConfig, tech core.Technique) string {
	return fmt.Sprintf("%s tech=%T%+v", cfg.identity(), tech, tech)
}

// buildSnapshot deploys and converges a template world and snapshots it. A
// world whose convergence left events pending cannot be snapshotted, and
// its technique's runs fail with that error rather than start from a world
// that has not settled.
func buildSnapshot(cfg WorldConfig, tech core.Technique) (*WorldSnapshot, error) {
	w, err := NewConvergedWorld(cfg, tech, ConvergeTime)
	if err != nil {
		return nil, err
	}
	snap, err := w.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("experiment: converged %s world: %w", tech.Name(), err)
	}
	return snap, nil
}

// convergedSnapshot returns the (possibly cached) converged snapshot for the
// key.
func (r *Runner) convergedSnapshot(cfg WorldConfig, tech core.Technique) (*WorldSnapshot, error) {
	m := r.metrics()
	snap, hit, evicted, err := worldSnaps.Get(snapKey(cfg, tech), func() (*WorldSnapshot, error) {
		m.snapBuilds.Inc()
		defer obs.StartTimer(m.buildSecs).Stop()
		return buildSnapshot(cfg, tech)
	})
	if hit {
		m.snapHits.Inc()
	}
	if evicted {
		m.snapEvicts.Inc()
	}
	return snap, err
}

// materialize restores a deployed, converged world from snap, ready for one
// run, and re-instruments it with the caller's registry (snapshots strip
// theirs).
func (r *Runner) materialize(cfg WorldConfig, snap *WorldSnapshot) (*World, error) {
	m := r.metrics()
	defer obs.StartTimer(m.matSecs).Stop()
	m.restores.Inc()
	w, err := RestoreWorld(snap)
	if err != nil {
		return nil, err
	}
	w.Instrument(cfg.Obs)
	return w, nil
}

// matrixPool is the bounded worker pool behind RunMatrix and
// RunScenarioMatrix: every task runs on its own goroutine but at most
// r.workers() hold a slot at a time, the first error wins, and each
// completed run reports progress.
type matrixPool struct {
	r     *Runner
	m     runnerMetrics
	sem   chan struct{}
	total int
	wg    sync.WaitGroup

	mu   sync.Mutex
	done int
	err  error
}

func (r *Runner) newPool(total int) *matrixPool {
	return &matrixPool{r: r, m: r.metrics(), sem: make(chan struct{}, r.workers()), total: total}
}

// spawn runs task under a worker slot. Tasks may spawn further tasks; the
// slot is held only while task itself executes.
func (p *matrixPool) spawn(task func() error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.sem <- struct{}{}
		if p.r != nil {
			p.m.busyMax.SetMax(float64(p.r.busy.Add(1)))
		}
		err := task()
		if p.r != nil {
			p.r.busy.Add(-1)
		}
		<-p.sem
		if err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
		}
	}()
}

// completed counts one finished run of the matrix and reports progress.
func (p *matrixPool) completed() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if p.r != nil && p.r.Progress != nil {
		p.r.Progress(p.done, p.total)
	}
}

// wait blocks until every spawned task has returned and yields the first
// error.
func (p *matrixPool) wait() error {
	p.wg.Wait()
	return p.err
}

// RunMatrix executes every ⟨technique, failed site⟩ failover experiment and
// returns results indexed [technique][site], matching the argument order.
// Runs execute concurrently up to the worker bound; each run is an
// independent deterministic simulation, so the results are identical for
// any worker count.
func (r *Runner) RunMatrix(cfg WorldConfig, sel *Selection, techs []core.Technique, sites []string, fc FailoverConfig) ([][]*RunResult, error) {
	if r != nil && r.Obs != nil {
		cfg.Obs = r.Obs
	}
	results := make([][]*RunResult, len(techs))
	for i := range results {
		results[i] = make([]*RunResult, len(sites))
	}
	p := r.newPool(len(techs) * len(sites))
	for ti, tech := range techs {
		// Build (or fetch) the technique's converged template under a
		// worker slot, then fan the per-site runs out across slots.
		p.spawn(func() error {
			snap, err := r.convergedSnapshot(cfg, tech)
			if err != nil {
				return err
			}
			for si, site := range sites {
				p.spawn(func() error {
					start := time.Now()
					w, err := r.materialize(cfg, snap)
					if err != nil {
						return err
					}
					res, err := failoverOn(w, sel, tech, site, fc)
					if err != nil {
						return err
					}
					p.m.runs.Inc()
					p.m.runSeconds.Observe(time.Since(start).Seconds())
					results[ti][si] = res
					p.completed()
					return nil
				})
			}
			return nil
		})
	}
	if err := p.wait(); err != nil {
		return nil, err
	}
	return results, nil
}

// Figure2 is the Runner-backed §5.2 matrix: it pools the matrix's outcomes
// into per-technique reconnection and failover CDFs in ⟨technique, site⟩
// index order — the exact aggregation order of the sequential
// implementation.
func (r *Runner) Figure2(cfg WorldConfig, sel *Selection, techs []core.Technique, sites []string, fc FailoverConfig) ([]CDFPair, error) {
	matrix, err := r.RunMatrix(cfg, sel, techs, sites, fc)
	if err != nil {
		return nil, err
	}
	out := make([]CDFPair, 0, len(techs))
	for ti, tech := range techs {
		out = append(out, poolRuns(tech.Name(), matrix[ti], fc.ProbeDuration))
	}
	return out, nil
}
