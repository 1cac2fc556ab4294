package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bestofboth/internal/experiment"
	"bestofboth/internal/obs"
)

const (
	// tracedOps is the fixed operation count of a traced run. It is a count
	// and not a time box so that every *_per_op count repeats exactly for a
	// given seed, whatever the machine's speed.
	tracedOps = 6
	// quickScale is the world size of -quick runs (the tier-1 smoke).
	quickScale = 0.25
)

// metricDef names one reported metric. bound is the share by which an
// end-to-end metric may worsen before compare flags it (all are
// lower-is-better); per-layer metrics carry none.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd is reported by every untraced run and must match
// BENCHMARK.json's end_to_end list (TestBenchmarkJSONMatchesTables).
//
// The bounds are three times the widest quartile spread ten differently
// seeded runs showed on the reference machine in a calm hour (README, Noise
// floor), capped at the 25% the acceptance contract allows: whole runs there
// shift by ±10% with the machine's state, whatever the seed.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"op_ms_p50", "ms", 0.25},
	{"alloc_mb_per_op", "MB", 0.10},
}

// env is what one run hands its workload: the seed inputs derive from, and
// the instruments a traced run attaches (nil on an untraced one).
type env struct {
	seed    int64
	quick   bool
	workers int
	reg     *obs.Registry
	tr      *tracer
}

// scale returns the option selecting a workload's world size: f times the
// default ~900-AS world (1 is what cdnsim and cdnsimd run by default,
// experiment.PaperScale the paper-scale preset), or quickScale on -quick
// runs.
func (e *env) scale(f float64) experiment.Option {
	if e.quick {
		f = quickScale
	}
	return experiment.WithScale(f)
}

// runner is one workload's state for one run.
type runner interface {
	// setUp builds fixture slot rep; the harness times it for setup_s.
	setUp(rep int) error
	// op runs timed operation i and returns the untimed check of its
	// output. An error from either counts the operation as failed.
	op(i int) (check func() error, err error)
	// finish runs the checks that need every operation done and releases
	// what setUp acquired.
	finish(ops int) error
}

// workload is one entry of the benchmark's workload list.
type workload struct {
	name, why string
	// maxOps caps timed operations so a run stays inside the process-global
	// 32-entry caches (experiment.worldSnaps, topology.genCache), which
	// never evict: past the cap a warm operation silently turns cold.
	// Zero means the time box alone bounds the run.
	maxOps int
	// slots is how many times a run repeats the workload's set-up, each
	// repetition building one fixture the operations rotate over. setup_s
	// is the median repetition, so one slow one does not move it, and a
	// run's operations sample that many seeds' worlds, so one unusually
	// large or small world does not move op_ms_p50.
	slots int
	new   func(e *env) runner
}

// record is everything one run reports: the contract's result keys plus
// what a reader needs to interpret and compare them.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Env      envInfo        `json:"env"`
	Samples  map[string]int `json:"samples"`
	// TailPct and TailMs are the operation latency's highest percentile
	// with at least ten samples beyond it. Closed-loop tails here are
	// scheduler noise, so they are recorded and not gated.
	TailPct float64 `json:"tailPct"`
	TailMs  float64 `json:"tailMs"`
	// OpMs and SetupS are every successful operation's latency and every
	// set-up repetition's time, in run order.
	OpMs      []float64         `json:"opMs"`
	SetupS    []float64         `json:"setupS"`
	Errors    []string          `json:"errors,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload: set-up repetitions, then timed operations
// until the time box closes (or, traced, for exactly tracedOps), each
// checked, with the garbage collector run between operations outside the
// timed region.
func run(w workload, e *env, seconds float64) *record {
	rec := &record{
		Workload: w.name, Seed: e.seed, Trace: e.tr != nil, Env: readEnv(),
		Samples: map[string]int{}, Metrics: map[string]metric{},
	}
	fail := func(format string, args ...any) {
		if len(rec.Errors) < 20 {
			rec.Errors = append(rec.Errors, fmt.Sprintf(format, args...))
		}
	}
	reps, maxOps := w.slots, w.maxOps
	if e.tr != nil {
		maxOps = tracedOps
	}
	if e.quick {
		reps, maxOps = 1, 1
	}

	r := w.new(e)
	var setupS []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		var err error
		e.tr.span("harness.setup", func() { err = r.setUp(rep) })
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			fail("set-up %d: %v", rep, err)
			if err := r.finish(0); err != nil {
				fail("finish: %v", err)
			}
			rec.Attempted, rec.Failed = 1, 1
			return rec
		}
	}
	base := counters(e.reg)

	var opMs, allocMB []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	mallocs0 := ms0.Mallocs
	loopStart := time.Now()
	// A traced run makes exactly maxOps operations; an untraced one stops
	// at its cap or when the time box closes, after at least one.
	more := func(i int) bool {
		if maxOps > 0 && i >= maxOps {
			return false
		}
		return e.tr != nil || i == 0 || time.Since(loopStart).Seconds() < seconds
	}
	for i := 0; more(i); i++ {
		e.tr.setOp(i)
		var check func() error
		var err error
		start := time.Now()
		e.tr.span("harness.op", func() { check, err = r.op(i) })
		d := msSince(start)
		runtime.ReadMemStats(&ms1)
		rec.Attempted++
		if err == nil {
			err = check()
		}
		if err != nil {
			rec.Failed++
			fail("op %d: %v", i, err)
		} else {
			opMs = append(opMs, d)
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
	}
	e.tr.setOp(-1)
	mallocs := ms1.Mallocs - mallocs0
	if err := r.finish(rec.Attempted); err != nil {
		rec.Failed++
		fail("finish: %v", err)
	}
	if len(opMs) == 0 {
		return rec // every operation failed: there is nothing to report
	}
	rec.Correct = rec.Failed == 0
	rec.TailPct, rec.TailMs = tailOf(opMs)
	rec.OpMs, rec.SetupS = opMs, setupS

	if e.tr == nil {
		vals := map[string]float64{
			"setup_s":         median(setupS),
			"op_ms_p50":       median(opMs),
			"alloc_mb_per_op": median(allocMB),
		}
		rec.Samples["setup_s"] = len(setupS)
		rec.Samples["op_ms_p50"] = len(opMs)
		rec.Samples["alloc_mb_per_op"] = len(allocMB)
		for _, d := range endToEnd {
			rec.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return rec
	}

	after := counters(e.reg)
	vals, err := runProbes(e)
	if err != nil {
		rec.Correct = false
		rec.Failed++
		fail("probes: %v", err)
	}
	opCounts(vals, after, base, float64(rec.Attempted), sum(opMs)/1e3, float64(mallocs))
	if cr, ok := r.(interface{ collectorRecords() float64 }); ok {
		vals["collector.records_per_op"] = cr.collectorRecords() / float64(rec.Attempted)
	}
	vals["trace.op_ms_p50"] = median(opMs)
	vals["process.peak_rss_mb"] = peakRSSMB()
	vals["process.gc_cpu_share"] = ms1.GCCPUFraction
	vals["process.mallocs_per_op"] = float64(mallocs) / float64(rec.Attempted)
	for _, d := range perLayer {
		rec.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	rec.Samples["trace.op_ms_p50"] = len(opMs)
	return rec
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// counterSet is a registry snapshot keyed by metric name: counter and
// gauge values, and each histogram's sum under name and count under
// name+"#".
type counterSet map[string]float64

func counters(reg *obs.Registry) counterSet {
	out := counterSet{}
	for _, m := range reg.Snapshot() {
		if m.Kind == "histogram" {
			out[m.Name] = m.Sum
			out[m.Name+"#"] = float64(m.Count)
			continue
		}
		out[m.Name] = m.Value
	}
	return out
}

// opCounts derives the per-layer metrics that come from the registry's
// counters over the timed operations (after minus base), per operation.
func opCounts(vals map[string]float64, after, base counterSet, ops, opSeconds, mallocs float64) {
	delta := func(name string) float64 { return after[name] - base[name] }
	perOp := func(name string) float64 { return delta(name) / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	histMeanMs := func(name string) float64 { return 1e3 * ratio(delta(name), delta(name+"#")) }

	vals["netsim.events_per_op"] = perOp("netsim_events_executed_total")
	vals["netsim.queue_depth_max"] = after["netsim_queue_depth_max"]
	vals["netsim.shard_rounds_per_op"] = perOp("netsim_shard_rounds_total")
	vals["netsim.barrier_stall_ms_per_op"] = 1e3 * perOp("netsim_shard_barrier_stall_seconds")
	vals["bgp.events_per_s"] = ratio(delta("netsim_events_executed_total"), opSeconds)
	vals["bgp.updates_per_op"] = perOp("bgp_updates_sent_total")
	vals["bgp.allocs_per_update"] = ratio(mallocs, delta("bgp_updates_sent_total"))
	vals["bgp.intershard_updates_per_op"] = perOp("bgp_intershard_updates_total")
	vals["dataplane.forwards_per_op"] = perOp("dataplane_forwards_total")
	vals["dataplane.fib_lookups_per_op"] = perOp("dataplane_fib_lookups_total")
	vals["dataplane.fib_updates_per_op"] = perOp("dataplane_fib_updates_total")
	vals["dataplane.delivered_share"] = ratio(delta("dataplane_forwards_delivered_total"), delta("dataplane_forwards_total"))
	vals["dns.zone_updates_per_op"] = perOp("dns_zone_updates_total")
	vals["traffic.folds_per_op"] = perOp("traffic_folds_total")
	vals["experiment.snapshot_cache_hits"] = delta(snapshotCacheHits)
	vals["experiment.snapshot_build_ms"] = histMeanMs("experiment_snapshot_build_seconds")
	vals["experiment.materialize_ms"] = histMeanMs("experiment_materialize_seconds")
	vals["experiment.run_ms"] = histMeanMs("experiment_run_seconds")
}

// envInfo is the machine and build a record was measured on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Commit:     vcsRevision(),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown" where the file or key is missing (non-Linux hosts).
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0 where
// /proc does not provide it.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
