package experiment

import (
	"fmt"

	"bestofboth/internal/core"
	"bestofboth/internal/stats"
)

// SweepPoint is one prepend depth in the control-vs-failover tradeoff
// curve (generalizing Appendix C.2's two-point comparison).
type SweepPoint struct {
	Depth int `json:"depth"`
	// MeanControl is the mean steerable share over sites' NotAnycast sets.
	MeanControl float64 `json:"meanControl"`
	// Reconnection/Failover distributions pooled across the failed sites.
	ReconP50    float64 `json:"reconP50"`
	FailoverP50 float64 `json:"failoverP50"`
	FailoverP90 float64 `json:"failoverP90"`
	Samples     int     `json:"samples"`
}

// PrependSweep measures traffic control and failover for a range of
// prepend depths — the §4 tradeoff ("if the other sites prepend more
// times, the CDN may get more traffic control... additional prepending
// will also make the backup routes longer, delaying failover") as a full
// curve. The failover matrix treats each depth as a technique, and each
// depth's control measurement runs on a world materialized from the same
// converged snapshot the failover runs reuse.
func (r *Runner) PrependSweep(cfg WorldConfig, sel *Selection, depths []int, sites []string, fc FailoverConfig) ([]SweepPoint, error) {
	techs := make([]core.Technique, 0, len(depths))
	for _, k := range depths {
		if k < 1 {
			return nil, fmt.Errorf("experiment: prepend depth %d", k)
		}
		techs = append(techs, core.ProactivePrepending{Prepends: k})
	}
	matrix, err := r.RunMatrix(cfg, sel, techs, sites, fc)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(depths))
	for di, k := range depths {
		// Control measurement: the steerable share over each site's
		// NotAnycast set on the converged pre-failure world.
		snap, err := r.convergedSnapshot(cfg, techs[di])
		if err != nil {
			return nil, err
		}
		w, err := r.materialize(cfg, techs[di], snap)
		if err != nil {
			return nil, err
		}
		var control float64
		counted := 0
		for i := range sel.Sites {
			if len(sel.Sites[i].NotAnycast) > 0 {
				control += controlShare(w, techs[di], &sel.Sites[i])
				counted++
			}
		}
		if counted > 0 {
			control /= float64(counted)
		}

		// Failover distributions pooled over the requested sites.
		pair := poolRuns(techs[di].Name(), matrix[di], fc.ProbeDuration)
		out = append(out, SweepPoint{
			Depth:       k,
			MeanControl: control,
			ReconP50:    pair.Reconnection.Median(),
			FailoverP50: pair.Failover.Median(),
			FailoverP90: pair.Failover.Percentile(90),
			Samples:     pair.Failover.N(),
		})
	}
	return out, nil
}

// RenderSweep formats the tradeoff curve.
func RenderSweep(points []SweepPoint) string {
	t := &stats.Table{Header: []string{"prepends", "mean control", "recon p50", "failover p50", "failover p90", "n"}}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.Depth),
			stats.Pct(p.MeanControl),
			fmt.Sprintf("%.1fs", p.ReconP50),
			fmt.Sprintf("%.1fs", p.FailoverP50),
			fmt.Sprintf("%.1fs", p.FailoverP90),
			fmt.Sprintf("%d", p.Samples),
		)
	}
	return t.Render()
}
