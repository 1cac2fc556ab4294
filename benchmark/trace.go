package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call across a layer boundary. The name's prefix up to
// the first dot is the layer (a package under internal/); Parent is the
// span that caused it (-1 for a root) and Op the operation both belong to
// (-1 for set-up and probes).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	EndMs   float64 `json:"endMs"`
}

// tracer records spans in memory from the harness goroutine only: the
// traced run uses one worker, so spans nest and never overlap. A nil
// tracer records nothing, which is how the untraced run stays free of it.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp sets the operation the spans that follow belong to (-1 for none).
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// span runs fn inside a span named name, a child of whichever span is open.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartMs: t.sinceMs()})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndMs = t.sinceMs()
}

// spanMs is span returning the span's duration in milliseconds; unlike
// span it times fn even on a nil tracer, so probes work untraced.
func (t *tracer) spanMs(name string, fn func()) float64 {
	start := time.Now()
	t.span(name, fn)
	return msSince(start)
}

func (t *tracer) sinceMs() float64 { return msSince(t.t0) }

func msSince(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// layerRow is one line of the per-layer table: every span of one name
// within one phase of the run. The phase is the name of the span's root
// (harness.setup, harness.op or harness.probes), so what the timed
// operations spent in a layer is not mixed with what the probes spent there.
type layerRow struct {
	Phase   string  `json:"phase"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	// SelfMs is TotalMs minus the part of each span its direct children
	// cover.
	SelfMs float64 `json:"selfMs"`
}

// selfTimes folds spans into the per-layer table, sorted by phase and
// name. A child's cover is clipped to its parent's interval, so a malformed
// child can never drive self time negative. Spans must be in start order
// (a parent before its children), as the tracer records them.
func selfTimes(spans []span) []layerRow {
	covered := make([]float64, len(spans))
	phase := make([]string, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			phase[i] = s.Name
			continue
		}
		phase[i] = phase[s.Parent]
		p := spans[s.Parent]
		lo, hi := s.StartMs, s.EndMs
		if lo < p.StartMs {
			lo = p.StartMs
		}
		if hi > p.EndMs {
			hi = p.EndMs
		}
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	rows := map[[2]string]*layerRow{}
	for i, s := range spans {
		key := [2]string{phase[i], s.Name}
		r := rows[key]
		if r == nil {
			layer, _, _ := strings.Cut(s.Name, ".")
			r = &layerRow{Phase: phase[i], Name: s.Name, Layer: layer}
			rows[key] = r
		}
		d := s.EndMs - s.StartMs
		r.Count++
		r.TotalMs += d
		r.SelfMs += d - covered[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeFile writes the spans and the per-layer table derived from them.
func (t *tracer) writeFile(path string) error {
	doc := struct {
		Layers []layerRow `json:"layers"`
		Spans  []span     `json:"spans"`
	}{selfTimes(t.spans), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
