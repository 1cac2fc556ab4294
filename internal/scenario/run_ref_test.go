package scenario

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/topology"
)

// The flat per-prober logs as they were before the prober filed probes and
// replies per target (dataplane.SentRecord, CaptureEntry, Capture), kept with
// their grouping pass so refAnalyze below can stay verbatim.
type refSentRecord struct {
	Seq    uint32
	Target topology.NodeID
	Time   float64
}

type refCaptureEntry struct {
	Time   float64
	Seq    uint32
	Target topology.NodeID
	Site   topology.NodeID
}

type refCapture struct{ entries []refCaptureEntry }

func (c *refCapture) Entries() []refCaptureEntry { return c.entries }
func (c *refCapture) Len() int                   { return len(c.entries) }

func (c *refCapture) ByTarget() map[topology.NodeID][]refCaptureEntry {
	counts := make(map[topology.NodeID]int)
	for _, e := range c.entries {
		counts[e.Target]++
	}
	out := make(map[topology.NodeID][]refCaptureEntry, len(counts))
	for _, e := range c.entries {
		g, ok := out[e.Target]
		if !ok {
			g = make([]refCaptureEntry, 0, counts[e.Target])
		}
		out[e.Target] = append(g, e)
	}
	for _, es := range out {
		if !sort.SliceIsSorted(es, func(i, j int) bool { return es[i].Time < es[j].Time }) {
			sort.Slice(es, func(i, j int) bool { return es[i].Time < es[j].Time })
		}
	}
	return out
}

type refProber struct {
	Sent    []refSentRecord
	Capture *refCapture
}

// flatProber flattens a prober's traces back into its two flat logs: the
// sent log in emission order and the capture in arrival order.
func flatProber(pr *dataplane.Prober, targets []topology.NodeID) *refProber {
	ref := &refProber{Capture: &refCapture{}}
	for _, id := range targets {
		tr := pr.Trace(id)
		for _, p := range tr.Probes {
			ref.Sent = append(ref.Sent, refSentRecord{Seq: p.Seq, Target: id, Time: p.Time})
		}
		for _, r := range tr.Replies {
			ref.Capture.entries = append(ref.Capture.entries, refCaptureEntry{Time: r.Time, Seq: r.Seq, Target: id, Site: r.Site})
		}
	}
	slices.SortFunc(ref.Sent, func(a, b refSentRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	slices.SortStableFunc(ref.Capture.entries, func(a, b refCaptureEntry) int { return cmp.Compare(a.Time, b.Time) })
	return ref
}

// refAnalyze is analyze as it stood over the flat logs, verbatim apart from
// the log types' names: three maps per prober, rebuilt after the run.
func refAnalyze(env *Env, res *Result, actions []action, groups []Group, probers []*refProber, t0 float64) {
	siteOf := make(map[topology.NodeID]string, len(env.CDN.Sites()))
	for _, s := range env.CDN.Sites() {
		siteOf[s.Node] = s.Code
	}

	// Per-prober indices: answered seqs, and captures per target in time
	// order.
	type trace struct {
		sent map[topology.NodeID][]refSentRecord
		caps map[topology.NodeID][]refCaptureEntry
		got  map[uint32]bool
	}
	traces := make([]trace, len(probers))
	for i, pr := range probers {
		tr := trace{
			sent: make(map[topology.NodeID][]refSentRecord),
			caps: pr.Capture.ByTarget(),
			got:  make(map[uint32]bool, pr.Capture.Len()),
		}
		for _, s := range pr.Sent {
			tr.sent[s.Target] = append(tr.sent[s.Target], s)
		}
		for _, e := range pr.Capture.Entries() {
			tr.got[e.Seq] = true
		}
		traces[i] = tr
		res.Sent += len(pr.Sent)
		res.Answered += pr.Capture.Len()
	}
	res.Availability = ratio(res.Answered, res.Sent)

	for i := range actions {
		ev := &res.Events[i]
		// Window: from this action to the next strictly later one.
		end := res.Horizon
		for j := i + 1; j < len(actions); j++ {
			if actions[j].at > actions[i].at {
				end = actions[j].at
				break
			}
		}
		ev.WindowEnd = end
		winStart, winEnd := t0+actions[i].at, t0+end

		var recon []float64
		failover := map[string]int{}
		for gi, g := range groups {
			tr := &traces[gi]
			for _, tgt := range g.Targets {
				sent := tr.sent[tgt]
				firstLost := -1.0
				for _, s := range sent {
					if s.Time < winStart || s.Time >= winEnd {
						continue
					}
					ev.Sent++
					if tr.got[s.Seq] {
						ev.Answered++
					} else if firstLost < 0 {
						firstLost = s.Time
					}
				}
				if firstLost < 0 {
					continue // unaffected by this event
				}
				ev.AffectedTargets++
				// Reconnection: first reply at or after the first loss.
				caps := tr.caps[tgt]
				ri := sort.Search(len(caps), func(k int) bool { return caps[k].Time >= firstLost })
				if ri == len(caps) {
					ev.Lost++
				} else {
					recon = append(recon, caps[ri].Time-winStart)
				}
				// Failover: where the last reply of the window landed.
				li := sort.Search(len(caps), func(k int) bool { return caps[k].Time >= winEnd })
				if li > 0 {
					last := caps[li-1]
					if last.Time >= winStart {
						failover[siteLabel(env, siteOf, last.Site)]++
					}
				}
			}
		}
		ev.Availability = ratio(ev.Answered, ev.Sent)
		ev.Reconnection = summarize(recon)
		if len(failover) > 0 {
			ev.FailoverSites = failover
		}
	}
}

// probeScenario is Run's timeline and probing on the same event schedule,
// handing back the probers instead of analyzing them, so a twin world yields
// the very traces Run analyzed. The Result carries what Run fills in before
// analyze: identity, the bound events and their post-event SitesDown.
func probeScenario(t *testing.T, env *Env, sc *Scenario, groups []Group, opts Options) (*Result, []action, []*dataplane.Prober, float64) {
	t.Helper()
	actions, err := sc.bind(env)
	if err != nil {
		t.Fatal(err)
	}
	horizon, t0, msgs0 := sc.EndTime(), env.Sim.Now(), env.Net.MessageCount()
	res := &Result{Scenario: sc.Name, Technique: techName(env.CDN), Horizon: horizon, Groups: len(groups), Events: make([]EventResult, len(actions))}
	for i := range actions {
		a, slot := &actions[i], &res.Events[i]
		slot.At, slot.Kind, slot.Label = a.at, a.kind, a.label
		env.Sim.At(t0+a.at, func() {
			if err := a.apply(env); err != nil {
				t.Errorf("%s at t=%g: %v", a.label, a.at, err)
			}
			slot.SitesDown = len(env.CDN.Sites()) - len(env.CDN.HealthySites())
		})
	}
	probers := make([]*dataplane.Prober, len(groups))
	for i, g := range groups {
		probers[i] = dataplane.NewProber(env.Plane, g.Prober, g.ReplyTo)
		probers[i].LossRate = opts.LossRate
		for _, tgt := range g.Targets {
			probers[i].PingEvery(tgt, ProbeInterval, horizon)
		}
		res.Targets += len(g.Targets)
	}
	env.Sim.RunUntil(t0 + horizon + 30)
	res.BGPUpdates = env.Net.MessageCount() - msgs0
	return res, actions, probers, t0
}

// TestAnalyzeMatchesReference runs each scenario on twin hand-wired worlds:
// Run on one, the bare timeline and probing on the other, whose traces —
// flattened back into the flat logs — go through the reference. The Results
// must be deeply equal three ways: Run's, the reference's, and analyze's
// over the twin's traces.
func TestAnalyzeMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		opts Options
	}{
		{"fail-recover", Scenario{Name: "e2e", Horizon: 200, Events: []Event{
			{At: 20, Kind: KindFail, Site: "sea1"},
			{At: 120, Kind: KindRecover, Site: "sea1"},
		}}, Options{}},
		{"flap", Scenario{Name: "flap", Events: []Event{
			{At: 10, Kind: KindFlap, Site: "sea1", Period: 80, Count: 3},
			{At: 50, Kind: KindFail, Site: "atl"},
		}}, Options{}},
		{"lossy", Scenario{Name: "lossy", Horizon: 200, Events: []Event{
			{At: 20, Kind: KindFail, Site: "sea1"},
			{At: 20, Kind: KindFail, Site: "atl"}, // same instant: the first window is empty
			{At: 120, Kind: KindRecover, Site: "sea1"},
		}}, Options{LossRate: 0.05}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			groupsOf := func(env *Env) []Group {
				return []Group{buildGroup(t, env, "sea1", 8), buildGroup(t, env, "atl", 6)}
			}
			env := testEnv(t, 5, core.ReactiveAnycast{})
			ran, err := Run(env, &tc.sc, groupsOf(env), tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			twin := testEnv(t, 5, core.ReactiveAnycast{})
			groups := groupsOf(twin)
			got, actions, probers, t0 := probeScenario(t, twin, &tc.sc, groups, tc.opts)
			want := *got
			want.Events = slices.Clone(got.Events)
			flat := make([]*refProber, len(probers))
			for i, pr := range probers {
				flat[i] = flatProber(pr, groups[i].Targets)
			}
			refAnalyze(twin, &want, actions, groups, flat, t0)
			analyze(twin, got, actions, groups, probers, t0)

			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("analyze differs from the reference\n got %+v\nwant %+v", got, &want)
			}
			if !reflect.DeepEqual(ran, &want) {
				t.Fatalf("Run differs from the reference\n got %+v\nwant %+v", ran, &want)
			}
			affected, lost := 0, 0
			for _, ev := range want.Events {
				affected += ev.AffectedTargets
				lost += ev.Sent - ev.Answered
			}
			if want.Answered == 0 || want.Answered == want.Sent || affected == 0 || lost == 0 {
				t.Fatalf("the run exercised nothing: %+v", &want)
			}
		})
	}
}
