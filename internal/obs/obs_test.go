package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bestofboth/pkg/bestofboth/api"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("events_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("events_total") != c {
		t.Fatal("same name did not return the same counter")
	}

	g := r.Gauge("depth")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
	g.SetMax(10)
	g.SetMax(4) // lower: must not regress
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after SetMax = %v, want 10", got)
	}

	h := r.Histogram("lat_seconds", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-6 {
		t.Fatalf("histogram sum = %v, want 102.65", h.Sum())
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 2)
	h.Observe(0.5) // le=1
	h.Observe(1)   // le=1 (bounds are inclusive)
	h.Observe(1.5) // le=2
	h.Observe(99)  // +Inf

	var snap api.MetricSample
	for _, m := range r.Snapshot() {
		if m.Name == "h" {
			snap = m
		}
	}
	want := []api.HistBucket{{LE: 1, Count: 2}, {LE: 2, Count: 3}, {LE: math.Inf(1), Count: 4}}
	if !reflect.DeepEqual(snap.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
}

func TestNilRegistryAndMetricsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	StartTimer(h).Stop()
	if r.Snapshot() != nil || r.DeterministicSnapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.SetMax(2)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled metric ops allocated %v times per run", allocs)
	}
}

func TestSnapshotSortedAndDeterministicExcludesVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz").Inc()
	r.VolatileCounter("cache_hits").Inc()
	r.Gauge("mmm").Set(1)
	r.VolatileHistogram("run_seconds").Observe(0.2)
	r.Histogram("aaa", 1).Observe(0.5)
	r.VolatileGauge("busy").Set(3)

	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	want := []string{"aaa", "busy", "cache_hits", "mmm", "run_seconds", "zzz"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}

	det := r.DeterministicSnapshot()
	for _, m := range det {
		if m.Volatile {
			t.Fatalf("volatile metric %q leaked into DeterministicSnapshot", m.Name)
		}
	}
	detNames := make([]string, len(det))
	for i, m := range det {
		detNames[i] = m.Name
	}
	if !reflect.DeepEqual(detNames, []string{"aaa", "mmm", "zzz"}) {
		t.Fatalf("deterministic snapshot = %v", detNames)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(3)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("lat_seconds", 1)
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE depth gauge\ndepth 2.5\n",
		"# TYPE events_total counter\nevents_total 3\n",
		"# TYPE lat_seconds histogram\n",
		"lat_seconds_bucket{le=\"1\"} 1\n",
		"lat_seconds_bucket{le=\"+Inf\"} 2\n",
		"lat_seconds_sum 3.5\n",
		"lat_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Histogram("b", 1).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []api.MetricSample
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("exposition is not valid JSON: %v", err)
	}
	if len(got) != 2 || got[0].Name != "a_total" || got[0].Value != 2 {
		t.Fatalf("unexpected decoded snapshot: %+v", got)
	}
}

func TestConcurrentUpdatesConverge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("max")
	h := r.Histogram("obs", 50)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.SetMax(float64(w*1000 + i))
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 7999 {
		t.Fatalf("max gauge = %v, want 7999", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}
