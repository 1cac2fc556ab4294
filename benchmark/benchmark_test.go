package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"bestofboth/internal/obs"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 100, 50},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailOfTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1, 50}, {8, 50}, {39, 50}, // too few samples for any tail
		{40, 75}, {99, 75}, // 25% of 40 = 10 beyond p75
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		pct, v := tailOf(seq(tc.n))
		if pct != tc.wantPct {
			t.Errorf("n=%d: tail percentile = %v, want %v", tc.n, pct, tc.wantPct)
		}
		if want := percentile(seq(tc.n), pct); v != want {
			t.Errorf("n=%d: tail value = %v, want %v", tc.n, v, want)
		}
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	five := []float64{50, 10, 40, 20, 30} // quartiles 15, 30, 45
	if got := quartileSpread(five); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(10..50) = %v, want 1", got)
	}
	two := []float64{1, 3} // quartiles 0.5, 2, 3.5: the exclusive method extrapolates
	if got := quartileSpread(two); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("spread(1,3) = %v, want 1.5", got)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestSelfTimesNestedAndSiblings(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "harness.op", StartMs: 0, EndMs: 100},
		{ID: 1, Parent: 0, Name: "bgp.Converge", StartMs: 10, EndMs: 50},      // sibling one
		{ID: 2, Parent: 0, Name: "core.Deploy", StartMs: 50, EndMs: 60},       // sibling two
		{ID: 3, Parent: 1, Name: "netsim.Run", StartMs: 20, EndMs: 45},        // nested in 1
		{ID: 4, Parent: 3, Name: "bgp.Converge", StartMs: 25, EndMs: 30},      // same name, deeper
		{ID: 5, Parent: 0, Name: "core.Deploy", StartMs: 90, EndMs: 130},      // overruns its parent
		{ID: 6, Parent: -1, Name: "harness.op", StartMs: 200, EndMs: 210},     // second root, no children
		{ID: 7, Parent: 6, Name: "dns.HandleQuery", StartMs: 205, EndMs: 205}, // zero-length
	}
	got := map[string]layerRow{}
	for _, r := range selfTimes(spans) {
		if r.Phase != "harness.op" {
			t.Errorf("row %+v: phase must be the root span's name", r)
		}
		r.Phase = ""
		got[r.Name] = r
	}
	want := map[string]layerRow{
		// 100 - (40 + 10 + 10 clipped) + 10 - 0
		"harness.op": {Name: "harness.op", Layer: "harness", Count: 2, TotalMs: 110, SelfMs: 50},
		// (40 - 25) + 5
		"bgp.Converge":    {Name: "bgp.Converge", Layer: "bgp", Count: 2, TotalMs: 45, SelfMs: 20},
		"core.Deploy":     {Name: "core.Deploy", Layer: "core", Count: 2, TotalMs: 50, SelfMs: 50},
		"netsim.Run":      {Name: "netsim.Run", Layer: "netsim", Count: 1, TotalMs: 25, SelfMs: 20},
		"dns.HandleQuery": {Name: "dns.HandleQuery", Layer: "dns", Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes:\n got %+v\nwant %+v", got, want)
	}

	// The same span name under two roots makes two rows.
	rows := selfTimes([]span{
		{ID: 0, Parent: -1, Name: "harness.op", StartMs: 0, EndMs: 10},
		{ID: 1, Parent: 0, Name: "bgp.Converge", StartMs: 0, EndMs: 4},
		{ID: 2, Parent: -1, Name: "harness.probes", StartMs: 10, EndMs: 20},
		{ID: 3, Parent: 2, Name: "bgp.Converge", StartMs: 10, EndMs: 13},
	})
	if len(rows) != 4 || rows[0].Phase != "harness.op" || rows[0].Name != "bgp.Converge" || rows[0].TotalMs != 4 ||
		rows[2].Phase != "harness.probes" || rows[2].TotalMs != 3 {
		t.Errorf("per-phase rows = %+v", rows)
	}
}

func TestTracerNestsSpansAndNilIsFree(t *testing.T) {
	tr := newTracer()
	tr.op = 3
	tr.span("a.outer", func() {
		tr.span("b.inner", func() {})
		tr.span("b.inner", func() {})
	})
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != 3 || s.EndMs < s.StartMs {
			t.Errorf("span %+v: want op 3 and end >= start", s)
		}
	}
	var none *tracer
	ran := false
	none.span("x.y", func() { ran = true })
	if !ran || none.spanMs("x.y", func() {}) < 0 {
		t.Error("nil tracer must still run the function")
	}
}

func TestWorseBoundAndFloor(t *testing.T) {
	op := metricDef{name: "op_ms_p50", bound: 0.10}
	setup := metricDef{name: "setup_s", bound: 0.25}
	for _, tc := range []struct {
		d    metricDef
		a, b float64
		want bool
	}{
		{op, 100, 109.9, false},
		{op, 100, 110.1, true},
		{op, 100, 50, false},         // better is never worse
		{op, 0, 5, false},            // no baseline, no verdict
		{setup, 0.020, 0.060, false}, // +200% but only 40 ms: under the floor
		{setup, 0.020, 0.080, true},
		{setup, 1.0, 1.2, false},
		{setup, 1.0, 1.3, true},
	} {
		if got := worse(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("worse(%s, %v, %v) = %v, want %v", tc.d.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareFlagsRegressionsAndGaps(t *testing.T) {
	mk := func(opMs float64) []record {
		var recs []record
		for _, w := range workloads {
			recs = append(recs, record{Workload: w.name, Correct: true, Metrics: map[string]metric{
				"setup_s": {0.5, "s"}, "op_ms_p50": {opMs, "ms"}, "alloc_mb_per_op": {10, "MB"},
			}})
		}
		return recs
	}
	var out bytes.Buffer
	if !compare(&out, mk(100), mk(120)) {
		t.Errorf("a 20%% shift is inside op_ms_p50's bound:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, mk(100), mk(130)) || strings.Count(out.String(), "WORSE") != len(workloads) {
		t.Errorf("a 30%% shift must be flagged once per workload:\n%s", out.String())
	}
	out.Reset()
	b := mk(100)
	b[0].Correct = false // an incorrect run's readings do not count
	if compare(&out, mk(100), b) || !strings.Contains(out.String(), "MISSING") {
		t.Errorf("a workload without readings must be reported missing:\n%s", out.String())
	}
}

// BENCHMARK.json is what the acceptance pipeline reads; the tables in this
// package are what the program reports. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, m := range doc.EndToEnd {
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
}

// TestQuickSmoke runs every workload once on a quarter-scale world, so a
// harness that no longer builds, runs or passes its own output checks fails
// tier-1.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and converges seven worlds; skipped in -short")
	}
	for _, w := range workloads {
		rec := run(w, &env{seed: 1, quick: true, workers: maxProcs}, 1)
		if !rec.Correct || rec.Attempted != 1 || rec.Failed != 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d errors=%v", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
		}
		if len(rec.Metrics) != len(endToEnd) {
			t.Errorf("%s: metrics %v", w.name, rec.Metrics)
		}
		for _, d := range endToEnd {
			if m := rec.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive %s", w.name, d.name, m, d.unit)
			}
		}
	}
}

// TestQuickSmokeTraced checks a traced run reports every per-layer metric,
// that the counts repeat exactly, and that the warm Figure 2 workload's
// operations all hit the snapshot cache.
func TestQuickSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced runs with probes; skipped in -short")
	}
	w, _ := workloadByName("fig2-warm")
	traced := func() *record {
		return run(w, &env{seed: 1, quick: true, workers: 1, reg: obs.NewRegistry(), tr: newTracer()}, 1)
	}
	a, b := traced(), traced()
	for _, rec := range []*record{a, b} {
		if !rec.Correct || !rec.Trace {
			t.Fatalf("correct=%v trace=%v errors=%v", rec.Correct, rec.Trace, rec.Errors)
		}
		if len(rec.Metrics) != len(perLayer) {
			t.Errorf("%d metrics, want %d", len(rec.Metrics), len(perLayer))
		}
	}
	if hits := a.Metrics["experiment.snapshot_cache_hits"].Value; hits != float64(len(fig2Techniques)) {
		t.Errorf("snapshot cache hits = %v, want %d", hits, len(fig2Techniques))
	}
	for _, d := range perLayer {
		ma, ok := a.Metrics[d.name]
		if !ok || ma.Unit != d.unit {
			t.Errorf("%s: missing or wrong unit: %+v", d.name, ma)
		}
		if d.unit == "count" && d.name != "process.mallocs_per_op" && d.name != "bgp.allocs_per_update" && ma != b.Metrics[d.name] {
			t.Errorf("%s: count differs between two runs of one seed: %v vs %v", d.name, ma.Value, b.Metrics[d.name].Value)
		}
	}
	for _, name := range []string{"netsim.event_ns", "bgp.converge_ms", "dataplane.forward_ns", "ctlplane.dryrun_ms_p50", "experiment.restore_ms"} {
		if a.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, a.Metrics[name].Value)
		}
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	line, err := resultLine(&record{Workload: "x", Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {0.25, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("keys = %v", got)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("missing key %q in %s", k, line)
		}
	}
	if string(got["metrics"]) != `{"setup_s":{"value":0.25,"unit":"s"}}` {
		t.Errorf("metrics = %s", got["metrics"])
	}
}
