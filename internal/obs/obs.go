// Package obs is the simulator's dependency-free observability substrate:
// a metrics registry of counters, gauges, and histograms with deterministic
// snapshot order, Prometheus text-format and JSON exposition, and cheap
// scoped timers.
//
// Two properties shape the design:
//
//  1. Zero cost when disabled. Every constructor is nil-receiver safe: a nil
//     *Registry hands out nil metrics, and every metric method no-ops on a
//     nil receiver without allocating. Hot paths keep pre-resolved metric
//     pointers in struct fields and call them unconditionally.
//
//  2. Determinism under concurrency. Experiment matrices update shared
//     metrics from many worker goroutines, yet equal seeds must produce
//     equal snapshots at any worker count. All mutating operations are
//     therefore commutative: counter adds, max-tracking gauges, and
//     histograms whose sums accumulate in fixed-point micro-units (float
//     addition is not associative; int64 addition is). Metrics that are
//     inherently run-order or wall-clock dependent (timings, cache hits)
//     are registered as volatile and excluded from DeterministicSnapshot.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bestofboth/pkg/bestofboth/api"
)

// microScale is the fixed-point resolution for gauge values and histogram
// sums: one micro-unit. Deterministic accumulation needs integer adds.
const microScale = 1e6

func toMicros(v float64) int64   { return int64(math.Round(v * microScale)) }
func fromMicros(v int64) float64 { return float64(v) / microScale }

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil Counter silently discards updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value in fixed-point micro-units. A nil Gauge
// silently discards updates. Concurrent writers should only use the
// commutative operations (Add, SetMax); Set is last-writer-wins and belongs
// in single-writer contexts.
type Gauge struct {
	v atomic.Int64
}

// Set stores v, replacing the previous value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(toMicros(v))
}

// Add adds d (which may be negative) to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v.Add(toMicros(d))
}

// SetMax raises the gauge to v if v exceeds the current value. Max is
// commutative, so concurrent SetMax calls from any interleaving converge to
// the same result.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	m := toMicros(v)
	for {
		cur := g.v.Load()
		if m <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return fromMicros(g.v.Load())
}

// Histogram counts observations into fixed upper-bound buckets (Prometheus
// cumulative-le convention at exposition time; stored per-bucket) and tracks
// the observation sum in fixed-point micro-units. A nil Histogram silently
// discards observations.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf bucket after
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // micro-units
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(toMicros(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return fromMicros(h.sum.Load())
}

// DefaultDurationBuckets suit wall-clock timings from sub-millisecond
// snapshot restores to multi-second experiment runs.
var DefaultDurationBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// Registry owns a flat namespace of metrics. Metrics are created on first
// use and shared by name afterwards. The zero value is not usable; a nil
// *Registry is the disabled registry: every accessor returns a nil metric
// whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	volatile map[string]bool
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		volatile: map[string]bool{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given upper
// bounds if needed. Bounds are fixed at first creation; later calls with
// different bounds return the existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DefaultDurationBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// markVolatile flags name as excluded from DeterministicSnapshot.
func (r *Registry) markVolatile(name string) {
	r.volatile[name] = true
}

// VolatileCounter is Counter for metrics whose value depends on wall time or
// process history (cache hits, retries): excluded from DeterministicSnapshot.
func (r *Registry) VolatileCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.Counter(name)
	r.mu.Lock()
	r.markVolatile(name)
	r.mu.Unlock()
	return c
}

// VolatileGauge is Gauge with the volatile marking (see VolatileCounter).
func (r *Registry) VolatileGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.Gauge(name)
	r.mu.Lock()
	r.markVolatile(name)
	r.mu.Unlock()
	return g
}

// VolatileHistogram is Histogram with the volatile marking (see
// VolatileCounter). Wall-clock timing histograms belong here.
func (r *Registry) VolatileHistogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	h := r.Histogram(name, bounds...)
	r.mu.Lock()
	r.markVolatile(name)
	r.mu.Unlock()
	return h
}

// Snapshot returns the state of every metric, sorted by name — the order is
// deterministic regardless of registration order. The entries are the wire
// type manifests carry, so a snapshot is written as it is taken.
func (r *Registry) Snapshot() []api.MetricSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]api.MetricSample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, api.MetricSample{
			Name: name, Kind: "counter",
			Value: float64(c.Value()), Volatile: r.volatile[name],
		})
	}
	for name, g := range r.gauges {
		out = append(out, api.MetricSample{
			Name: name, Kind: "gauge",
			Value: g.Value(), Volatile: r.volatile[name],
		})
	}
	for name, h := range r.hists {
		ms := api.MetricSample{
			Name: name, Kind: "histogram",
			Count: h.Count(), Sum: h.Sum(), Volatile: r.volatile[name],
		}
		var cum uint64
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			ms.Buckets = append(ms.Buckets, api.HistBucket{LE: le, Count: cum})
		}
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeterministicSnapshot is Snapshot restricted to non-volatile metrics: the
// set whose values equal seeds are guaranteed to reproduce at any worker
// count.
func (r *Registry) DeterministicSnapshot() []api.MetricSample {
	all := r.Snapshot()
	out := all[:0]
	for _, m := range all {
		if !m.Volatile {
			out = append(out, m)
		}
	}
	return out
}

// formatValue renders floats the way Prometheus expects (no exponent for
// typical values, +Inf spelled out).
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.Snapshot() {
		var err error
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", m.Name, m.Name, formatValue(m.Value))
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.Name, m.Name, formatValue(m.Value))
		case "histogram":
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", m.Name); err != nil {
				return err
			}
			for _, b := range m.Buckets {
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, formatValue(b.LE), b.Count); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", m.Name, formatValue(m.Sum), m.Name, m.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the full snapshot as an indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	if snap == nil {
		snap = []api.MetricSample{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WriteFile writes the exposition to path, choosing the format by extension:
// ".json" gets JSON, anything else the Prometheus text format.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".json" {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
