package experiment

import (
	"fmt"
	"math"
	"net/netip"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/stats"
	"bestofboth/internal/topology"
)

// The Appendix A/B estimator parameters: an event is dated at the first
// burst of 5 same-type updates within 20 s, and convergence is measured in
// a 1000 s window after it.
const (
	burstCount  = 5
	burstWindow = 20
	convWindow  = 1000
)

// scratchPrefix returns a unique /24 for convergence trials, outside both
// the CDN plan and target space.
func scratchPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{23, byte(i >> 8), byte(i), 0}), 24)
}

// Figure3Result holds the Appendix A reproduction: withdrawal convergence
// per ⟨collector peer, withdrawal⟩ for hypergiant-announced prefixes and
// for the emulated testbed's prefixes, plus the validation error of the
// withdrawal-time estimator.
type Figure3Result struct {
	Hypergiant *stats.CDF
	Testbed    *stats.CDF
	// EstimatorError is |estimated − actual| withdrawal time (the paper
	// validates the estimator to within ~10 s at median).
	EstimatorError *stats.CDF
}

// Figure3 reproduces Appendix A: unicast prefixes are announced from
// hypergiants and from CDN sites, withdrawn, and per-peer convergence time
// measured from the collector archive using the burst estimator.
func Figure3(cfg WorldConfig, trialsPerOrigin int) (*Figure3Result, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	var hyperSamples, testbedSamples, estErr []float64
	prefixIdx := 0

	runTrial := func(origin topology.NodeID, samples *[]float64) error {
		p := scratchPrefix(prefixIdx)
		prefixIdx++
		if err := w.Net.Originate(origin, p, nil); err != nil {
			return err
		}
		w.Converge(1200)
		actual := w.Sim.Now()
		w.Net.Withdraw(origin, p)
		w.Sim.RunUntil(actual + convWindow + 100)

		est, ok := w.Collector.EstimateEventTime(p, bgp.Withdraw, burstCount, burstWindow)
		if !ok {
			// Too few peers saw a withdrawal burst; fall back to actual.
			est = actual
		}
		estErr = append(estErr, math.Abs(est-actual))
		for _, d := range w.Collector.ConvergenceTimes(p, est, convWindow) {
			*samples = append(*samples, d)
		}
		return nil
	}

	hypers := w.Topo.NodesOfClass(topology.ClassHypergiant)
	if len(hypers) == 0 {
		return nil, fmt.Errorf("experiment: topology has no hypergiants")
	}
	for _, h := range hypers {
		for t := 0; t < trialsPerOrigin; t++ {
			if err := runTrial(h.ID, &hyperSamples); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range w.Topo.NodesOfClass(topology.ClassCDN) {
		for t := 0; t < trialsPerOrigin; t++ {
			if err := runTrial(s.ID, &testbedSamples); err != nil {
				return nil, err
			}
		}
	}
	return &Figure3Result{
		Hypergiant:     stats.NewCDF(hyperSamples),
		Testbed:        stats.NewCDF(testbedSamples),
		EstimatorError: stats.NewCDF(estErr),
	}, nil
}

// Figure4Result holds the Appendix B reproduction: anycast announcement
// propagation per ⟨collector peer, announcement⟩, for anycast networks at
// large (the MAnycast2-census analogue) and for the emulated testbed.
type Figure4Result struct {
	AnycastCensus *stats.CDF
	Testbed       *stats.CDF
}

// Figure4 reproduces Appendix B. Census-analogue trials announce a prefix
// simultaneously from several randomly drawn well-connected origins
// (emulating the diverse anycast operators in the MAnycast2 dataset);
// testbed trials announce from all CDN sites.
func Figure4(cfg WorldConfig, censusTrials, testbedTrials int) (*Figure4Result, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	prefixIdx := 4096 // disjoint from Figure3's scratch space

	runTrial := func(origins []topology.NodeID, samples *[]float64) error {
		p := scratchPrefix(prefixIdx)
		prefixIdx++
		actual := w.Sim.Now()
		for _, o := range origins {
			if err := w.Net.Originate(o, p, nil); err != nil {
				return err
			}
		}
		w.Sim.RunUntil(actual + 300)
		est, ok := w.Collector.EstimateEventTime(p, bgp.Announce, burstCount, burstWindow)
		if !ok {
			est = actual
		}
		for _, d := range w.Collector.PropagationTimes(p, est) {
			*samples = append(*samples, d)
		}
		// Clean up so trials stay independent.
		for _, o := range origins {
			w.Net.Withdraw(o, p)
		}
		w.Sim.RunUntil(w.Sim.Now() + convWindow + 100)
		return nil
	}

	// Candidate origins for census trials: hypergiants and transits.
	var candidates []topology.NodeID
	for _, n := range w.Topo.Nodes {
		if n.Class == topology.ClassHypergiant || n.Class == topology.ClassTransit {
			candidates = append(candidates, n.ID)
		}
	}
	if len(candidates) < 4 {
		return nil, fmt.Errorf("experiment: too few candidate anycast origins")
	}
	rng := w.Sim.Rand()

	var census, testbed []float64
	for t := 0; t < censusTrials; t++ {
		k := 3 + rng.Intn(3)
		perm := rng.Perm(len(candidates))
		origins := make([]topology.NodeID, 0, k)
		for _, i := range perm[:k] {
			origins = append(origins, candidates[i])
		}
		if err := runTrial(origins, &census); err != nil {
			return nil, err
		}
	}
	var sites []topology.NodeID
	for _, n := range w.Topo.NodesOfClass(topology.ClassCDN) {
		sites = append(sites, n.ID)
	}
	for t := 0; t < testbedTrials; t++ {
		if err := runTrial(sites, &testbed); err != nil {
			return nil, err
		}
	}
	return &Figure4Result{
		AnycastCensus: stats.NewCDF(census),
		Testbed:       stats.NewCDF(testbed),
	}, nil
}

// Table2Row pairs a technique's qualitative ratings (Table 2) with the
// measured medians backing them.
type Table2Row struct {
	Technique    string
	Tradeoffs    core.Tradeoffs
	MedianRecon  float64 // NaN when not measured
	MedianFail   float64 // NaN when not measured
	ControlShare float64 // NaN when not measured
}

// Table2 assembles the paper's tradeoff matrix, annotating each technique
// with measured Figure 2 medians where available.
func Table2(fig2 []CDFPair, table1 []Table1Row) []Table2Row {
	byName := map[string]CDFPair{}
	for _, p := range fig2 {
		byName[p.Technique] = p
	}
	var meanP3 float64
	if len(table1) > 0 {
		for _, r := range table1 {
			meanP3 += r.Prepend3
		}
		meanP3 /= float64(len(table1))
	} else {
		meanP3 = math.NaN()
	}

	var rows []Table2Row
	for _, tech := range core.AllTechniques() {
		switch tech.Name() {
		case "combined":
			continue // not in the paper's Table 2
		}
		row := Table2Row{
			Technique:    tech.Name(),
			Tradeoffs:    tech.Tradeoffs(),
			MedianRecon:  math.NaN(),
			MedianFail:   math.NaN(),
			ControlShare: math.NaN(),
		}
		if p, ok := byName[tech.Name()]; ok {
			row.MedianRecon = p.Reconnection.Median()
			row.MedianFail = p.Failover.Median()
		}
		switch tech.Name() {
		case "unicast", "reactive-anycast", "proactive-superprefix":
			row.ControlShare = 1.0
		case "proactive-prepending":
			row.ControlShare = meanP3
		case "anycast":
			row.ControlShare = 0.0
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable2 formats the tradeoff matrix.
func RenderTable2(rows []Table2Row) string {
	t := &stats.Table{Header: []string{
		"Technique", "Control", "Availability", "Risk",
		"median recon (s)", "median failover (s)", "steerable",
	}}
	fm := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	fp := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return stats.Pct(v)
	}
	for _, r := range rows {
		t.AddRow(r.Technique, string(r.Tradeoffs.Control), string(r.Tradeoffs.Availability),
			string(r.Tradeoffs.Risk), fm(r.MedianRecon), fm(r.MedianFail), fp(r.ControlShare))
	}
	return t.Render()
}
