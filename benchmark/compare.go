package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setupFloorS is the absolute slack on setup_s: set-ups of tens of
// milliseconds jitter by more than their bound, so a worsening also has to
// exceed this many seconds before it counts.
const setupFloorS = 0.050

// readRecords reads a file of records, one JSON object per line, as -out
// writes them.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// values collects one metric's readings from the untraced, correct records
// of one workload.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace && r.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}

// worse reports whether median b is worse than median a by more than the
// metric's bound. Every end-to-end metric is lower-is-better.
func worse(d metricDef, a, b float64) bool {
	if a <= 0 || b <= a*(1+d.bound) {
		return false
	}
	return d.name != "setup_s" || b-a > setupFloorS
}

// compare prints, per workload and end-to-end metric, both run sets'
// medians and quartile spreads, the relative change and the bound, and
// reports whether any change is beyond its bound or any reading is missing.
func compare(out io.Writer, a, b []record) (ok bool) {
	ok = true
	fmt.Fprintf(out, "%-18s %-16s %4s %12s %8s %4s %12s %8s %8s %6s\n",
		"workload", "metric", "nA", "medianA", "spreadA", "nB", "medianB", "spreadB", "delta", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, w.name, d.name), values(b, w.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-18s %-16s %4d %12s %8s %4d   MISSING\n", w.name, d.name, len(va), "", "", len(vb))
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			mark := ""
			if worse(d, ma, mb) {
				mark = "  WORSE"
				ok = false
			}
			fmt.Fprintf(out, "%-18s %-16s %4d %12.4f %7.2f%% %4d %12.4f %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w.name, d.name, len(va), ma, 100*quartileSpread(va), len(vb), mb, 100*quartileSpread(vb),
				100*(mb-ma)/ma, 100*d.bound, mark)
		}
	}
	return ok
}
