package experiment

import (
	"fmt"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/scenario"
	"bestofboth/internal/stats"
	"bestofboth/internal/topology"
	"bestofboth/internal/traffic"
)

// ConvergeTime bounds the pre-failure convergence wait of every converged
// world the Runner builds (§5.2: "wait one hour to ensure convergence").
const ConvergeTime = 3600

// FailoverConfig sets the §5.2 probing of one failover run: the run probes
// every scenario.ProbeInterval seconds for ProbeDuration seconds after the
// failure.
type FailoverConfig struct {
	// Options sets probe loss (the §5.3 ICMP-rate-limit concern) and the
	// health monitor: with UseMonitor the site crashes silently and the
	// controller reacts only once the monitor declares it down.
	scenario.Options
	// ProbeDuration is how long probing continues after failure (paper:
	// ~600 s).
	ProbeDuration float64
	// MaxTargets caps controllable targets probed per run (0 = no cap).
	MaxTargets int
}

// DefaultFailoverConfig returns the paper's schedule.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{ProbeDuration: 600}
}

// TargetOutcome is the per-⟨failed site, target⟩ measurement of §5.4.1.
type TargetOutcome struct {
	Target topology.NodeID
	// Reconnected reports whether any reply arrived after the failure.
	Reconnected bool
	// Reconnection is the delay from withdrawal to the first reply at any
	// site (valid when Reconnected).
	Reconnection float64
	// FailedOver reports whether the target reached a stable state: a
	// reply after which it neither switched sites nor lost a reply again.
	FailedOver bool
	// Failover is the delay from withdrawal to that first stable reply.
	Failover float64
	// Bounces counts site switches observed after the first reconnection.
	Bounces int
	// Gaps counts periods of unreachability (runs of lost replies) after
	// the first reconnection — §5.4.1 reports that most targets have none
	// between reconnection and failover.
	Gaps int
	// FinalSite is the site code serving the target at the end ("" if
	// none).
	FinalSite string
}

// RunResult is one ⟨technique, failed site⟩ failover experiment.
type RunResult struct {
	Technique  string
	FailedSite string
	// Controllable is how many candidate targets the technique could route
	// to the site before failure (the probed set).
	Controllable int
	Outcomes     []TargetOutcome
	// Weights holds each outcome's user demand in rps when the world
	// carries a demand model (aligned with Outcomes; nil otherwise). The
	// user-weighted CDFs reweight the paper's headline metric by it.
	Weights []float64
	// DetectedAt is the emergent detection latency when the run used the
	// health monitor (seconds after the crash; zero otherwise).
	DetectedAt float64
}

// ReconnectionSamples returns reconnection times with unreconnected
// targets clamped to the probe duration (conservative, as in truncating
// the paper's CDFs at the measurement horizon).
func (r *RunResult) ReconnectionSamples(clamp float64) []float64 {
	out := make([]float64, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if o.Reconnected {
			out = append(out, o.Reconnection)
		} else {
			out = append(out, clamp)
		}
	}
	return out
}

// FailoverSamples returns failover times with unstable targets clamped.
func (r *RunResult) FailoverSamples(clamp float64) []float64 {
	out := make([]float64, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if o.FailedOver {
			out = append(out, o.Failover)
		} else {
			out = append(out, clamp)
		}
	}
	return out
}

// RunFailover performs one §5.2 experiment: deploy the technique, wait for
// convergence, find the controllable targets for the site, fail it, probe
// every ~1.5 s for ~600 s, and compute reconnection/failover per target.
func RunFailover(cfg WorldConfig, sel *Selection, tech core.Technique, failCode string, fc FailoverConfig) (*RunResult, error) {
	w, err := NewConvergedWorld(cfg, tech, ConvergeTime)
	if err != nil {
		return nil, err
	}
	return failoverOn(w, sel, tech, failCode, fc)
}

// failoverOn runs the post-convergence part of the experiment on an already
// deployed, converged world: a one-event scenario — the site fails at the
// start, or crashes silently for the health monitor to detect — probed for
// ProbeDuration, then each target's trace analyzed.
func failoverOn(w *World, sel *Selection, tech core.Technique, failCode string, fc FailoverConfig) (*RunResult, error) {
	// Written as !(x > 0) so NaN is refused too; a zero horizon would mean
	// the scenario default instead.
	if !(fc.ProbeDuration > 0) {
		return nil, fmt.Errorf("experiment: failover config: ProbeDuration %v must be positive", fc.ProbeDuration)
	}
	failed := w.CDN.Site(failCode)
	if failed == nil {
		return nil, fmt.Errorf("experiment: %w %q", core.ErrUnknownSite, failCode)
	}
	if sel.ForSite(failCode) == nil {
		return nil, fmt.Errorf("experiment: %w for site %q", ErrNoTargets, failCode)
	}

	// One prober per group, i.e. per distinct reply-to address: DNS-steered
	// techniques use a single prober at the steer address; the bucket
	// overlay gets one per live bucket /27.
	groups := probeGroups(w, sel, failed, fc.MaxTargets)
	var controllable []topology.NodeID
	for _, g := range groups {
		controllable = append(controllable, g.Targets...)
	}

	res := &RunResult{
		Technique:    tech.Name(),
		FailedSite:   failCode,
		Controllable: len(controllable),
	}
	if m := w.CDN.Demand(); m != nil {
		res.Weights = make([]float64, len(controllable))
		for i, id := range controllable {
			res.Weights[i] = float64(m.Rate(id)) / traffic.Micro
		}
	}
	if len(controllable) == 0 {
		return res, nil
	}

	kind := scenario.KindFail
	if fc.UseMonitor {
		kind = scenario.KindCrash
	}
	sc := &scenario.Scenario{Name: "failover", Horizon: fc.ProbeDuration, Events: []scenario.Event{{Kind: kind, Site: failCode}}}
	c, err := scenario.Start(w.Env(), sc, groups, fc.Options)
	if err != nil {
		return nil, err
	}
	if err := c.Finish(); err != nil {
		return nil, err
	}
	if n := len(c.Detections); n > 0 {
		res.DetectedAt = c.Detections[n-1].At
	}

	res.Outcomes = make([]TargetOutcome, 0, len(controllable))
	for i, g := range groups {
		for _, id := range g.Targets {
			res.Outcomes = append(res.Outcomes, analyzeTarget(w, c.Probers[i].Trace(id), c.T0))
		}
	}
	return res, nil
}

// analyzeTarget derives the §5.4.1 metrics for one target from its probe
// trace: arrival order for reconnection, bounces and the final site,
// emission order (following each probe's Reply link) for gaps and failover.
func analyzeTarget(w *World, tr *dataplane.Trace, t0 float64) TargetOutcome {
	o := TargetOutcome{Target: tr.Target}
	replies := tr.Replies
	if len(replies) == 0 {
		return o
	}
	o.Reconnected = true
	o.Reconnection = replies[0].Time - t0

	// Bounces: site changes across the captured replies.
	for i := 1; i < len(replies); i++ {
		if replies[i].Site != replies[i-1].Site {
			o.Bounces++
		}
	}
	o.FinalSite = siteCode(w, replies[len(replies)-1].Site)

	// Gaps: runs of missing replies after the first answered probe.
	inGap := false
	seenFirst := false
	for _, p := range tr.Probes {
		got := p.Reply >= 0
		if !seenFirst {
			seenFirst = got
			continue
		}
		if !got && !inGap {
			o.Gaps++
			inGap = true
		} else if got {
			inGap = false
		}
	}

	// Failover: the first reply after which the target neither loses a
	// reply nor switches sites (§5.4.1) — the start of the maximal suffix of
	// the send schedule with no loss and a constant site. The suffix must
	// extend through the final ping sent, otherwise the target ended the
	// experiment disconnected.
	last := len(tr.Probes) - 1
	if tr.Probes[last].Reply < 0 {
		return o // final ping lost: no stable suffix
	}
	start := replies[tr.Probes[last].Reply]
	for i := last - 1; i >= 0; i-- {
		ri := tr.Probes[i].Reply
		if ri < 0 || replies[ri].Site != start.Site {
			break
		}
		start = replies[ri]
	}
	o.FailedOver = true
	o.Failover = start.Time - t0
	return o
}

func siteCode(w *World, node topology.NodeID) string {
	n := w.Topo.Node(node)
	if n == nil {
		return ""
	}
	return n.Site
}

// CDFPair bundles the two §5.4.1 distributions for one technique, plus
// the bounce/gap stability summary.
type CDFPair struct {
	Technique    string
	Reconnection *stats.CDF
	Failover     *stats.CDF
	Stability    StabilityStats
	// UserReconnection/UserFailover reweight the same samples by each
	// target's user demand (rps), answering "how much user traffic had
	// failed over by time t" instead of "how many targets". Nil when the
	// runs carried no demand model.
	UserReconnection *stats.WeightedCDF
	UserFailover     *stats.WeightedCDF
}

// Figure2Single converts one run into a CDFPair (convenience for single
// ⟨technique, site⟩ analyses).
func Figure2Single(r *RunResult, fc FailoverConfig) CDFPair {
	return poolRuns(r.Technique, []*RunResult{r}, fc.ProbeDuration)
}

// poolRuns pools runs' outcomes, in order, into one technique's CDFPair,
// with unreconnected and unstable targets clamped to clamp. Weights align
// one-to-one with outcomes whenever the worlds carried a demand model;
// pooled in the same order as the samples, the user-weighted CDFs are as
// worker-count invariant as the unweighted ones.
func poolRuns(technique string, runs []*RunResult, clamp float64) CDFPair {
	var recon, fail, weights []float64
	var outcomes []TargetOutcome
	for _, r := range runs {
		recon = append(recon, r.ReconnectionSamples(clamp)...)
		fail = append(fail, r.FailoverSamples(clamp)...)
		outcomes = append(outcomes, r.Outcomes...)
		weights = append(weights, r.Weights...)
	}
	p := CDFPair{
		Technique:    technique,
		Reconnection: stats.NewCDF(recon),
		Failover:     stats.NewCDF(fail),
		Stability:    Stability(outcomes),
	}
	if len(weights) == len(recon) && len(recon) > 0 {
		p.UserReconnection = stats.NewWeightedCDF(recon, weights)
		p.UserFailover = stats.NewWeightedCDF(fail, weights)
	}
	return p
}

// Figure5 compares proactive-prepending at 3 and 5 prepends (Appendix C.2).
func (r *Runner) Figure5(cfg WorldConfig, sel *Selection, sites []string, fc FailoverConfig) ([]CDFPair, error) {
	return r.Figure2(cfg, sel, []core.Technique{
		core.ProactivePrepending{Prepends: 3},
		core.ProactivePrepending{Prepends: 5},
	}, sites, fc)
}
