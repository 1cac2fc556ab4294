package experiment

import (
	"fmt"

	"bestofboth/internal/core"
	"bestofboth/internal/stats"
)

// Table1Row is one site column of the paper's Table 1.
type Table1Row struct {
	Site string
	// Proximate is the number of targets within 50 ms of the site.
	Proximate int
	// NotAnycast is the fraction of proximate targets that pure anycast
	// routes to a different site (Table 1, row 2).
	NotAnycast float64
	// Prepend3 / Prepend5 are, of those targets, the fraction that
	// proactive-prepending steers to the site with 3 / 5 prepends
	// (Table 1, rows 3-4).
	Prepend3 float64
	Prepend5 float64
}

// Table1 measures per-site traffic control (§5.4.2): how many nearby
// targets anycast mis-routes, and how many of those proactive-prepending
// recovers at each prepend depth.
func Table1(cfg WorldConfig, sel *Selection) ([]Table1Row, error) {
	steerable := func(prepends int) ([]float64, error) {
		w, err := NewConvergedWorld(cfg, core.ProactivePrepending{Prepends: prepends}, ConvergeTime)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(sel.Sites))
		for i := range sel.Sites {
			out[i] = controlShare(w, &sel.Sites[i])
		}
		return out, nil
	}

	p3, err := steerable(3)
	if err != nil {
		return nil, err
	}
	p5, err := steerable(5)
	if err != nil {
		return nil, err
	}

	rows := make([]Table1Row, 0, len(sel.Sites))
	for i, st := range sel.Sites {
		row := Table1Row{Site: st.Code, Proximate: len(st.Proximate), Prepend3: p3[i], Prepend5: p5[i]}
		if len(st.Proximate) > 0 {
			row.NotAnycast = float64(len(st.NotAnycast)) / float64(len(st.Proximate))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// controlShare is the fraction of st's NotAnycast targets that the world's
// deployed technique can steer to st's site (§5.4.2), 0 when it has none.
func controlShare(w *World, st *SiteTargets) float64 {
	if len(st.NotAnycast) == 0 {
		return 0
	}
	s := w.CDN.Site(st.Code)
	n := 0
	for _, id := range st.NotAnycast {
		if w.CDN.CanSteer(id, s) {
			n++
		}
	}
	return float64(n) / float64(len(st.NotAnycast))
}

// RenderTable1 lays the measurement out like the paper's Table 1: sites as
// columns.
func RenderTable1(rows []Table1Row) string {
	t := &stats.Table{Header: []string{""}}
	notRouted := []string{"Not routed by anycast"}
	pre3 := []string{"prepend 3"}
	pre5 := []string{"prepend 5"}
	prox := []string{"(proximate targets)"}
	for _, r := range rows {
		t.Header = append(t.Header, r.Site)
		notRouted = append(notRouted, stats.Pct(r.NotAnycast))
		pre3 = append(pre3, stats.Pct(r.Prepend3))
		pre5 = append(pre5, stats.Pct(r.Prepend5))
		prox = append(prox, fmt.Sprintf("%d", r.Proximate))
	}
	t.AddRow(notRouted...)
	t.AddRow(pre3...)
	t.AddRow(pre5...)
	t.AddRow(prox...)
	return t.Render()
}
