package experiment

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/scenario"
	"bestofboth/internal/topology"
)

// refCaptureEntry is the flat capture log's entry as it was before the
// prober filed replies per target (dataplane.CaptureEntry).
type refCaptureEntry struct {
	Time   float64
	Seq    uint32
	Target topology.NodeID
	Site   topology.NodeID
}

// refAnalyzeTarget is analyzeTarget as it stood over the flat logs, verbatim
// apart from the entry type's name: a target's captures are copied into a
// scratch, re-sorted by sequence number and binary-searched. It is the
// reference the trace-walking analyzeTarget is pinned against.
func refAnalyzeTarget(w *World, id topology.NodeID, sent []uint32, caps []refCaptureEntry, t0 float64, scratch []refCaptureEntry) (TargetOutcome, []refCaptureEntry) {
	o := TargetOutcome{Target: id}
	if len(caps) == 0 {
		return o, scratch
	}
	o.Reconnected = true
	o.Reconnection = caps[0].Time - t0

	// Bounces: site changes across the captured replies.
	for i := 1; i < len(caps); i++ {
		if caps[i].Site != caps[i-1].Site {
			o.Bounces++
		}
	}
	if s := siteCode(w, caps[len(caps)-1].Site); s != "" {
		o.FinalSite = s
	}

	// Index captures by sequence number: a seq-sorted slice searched in
	// order, since sent sequences are emitted in ascending order.
	scratch = append(scratch[:0], caps...)
	slices.SortFunc(scratch, func(a, b refCaptureEntry) int {
		return cmp.Compare(a.Seq, b.Seq)
	})
	find := func(seq uint32) (refCaptureEntry, bool) {
		i, ok := slices.BinarySearchFunc(scratch, seq, func(e refCaptureEntry, s uint32) int {
			return cmp.Compare(e.Seq, s)
		})
		if !ok {
			return refCaptureEntry{}, false
		}
		return scratch[i], true
	}

	// Gaps: runs of missing replies after the first captured reply. One
	// merge walk over the ascending send schedule and the seq-sorted
	// captures.
	inGap := false
	seenFirst := false
	j := 0
	for _, seq := range sent {
		for j < len(scratch) && scratch[j].Seq < seq {
			j++
		}
		got := j < len(scratch) && scratch[j].Seq == seq
		if !seenFirst {
			if got {
				seenFirst = true
			}
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
	lastCap, ok := find(sent[len(sent)-1])
	if !ok {
		return o, scratch // final ping lost: no stable suffix
	}
	start := lastCap
	for i := len(sent) - 2; i >= 0; i-- {
		c, ok := find(sent[i])
		if !ok || c.Site != lastCap.Site {
			break
		}
		start = c
	}
	o.FailedOver = true
	o.Failover = start.Time - t0
	return o, scratch
}

// flatLogs flattens a trace back into what the flat logs held for its
// target: the sent sequence numbers in emission order and the capture
// entries in arrival order.
func flatLogs(tr *dataplane.Trace) ([]uint32, []refCaptureEntry) {
	sent := make([]uint32, len(tr.Probes))
	for i, p := range tr.Probes {
		sent[i] = p.Seq
	}
	caps := make([]refCaptureEntry, len(tr.Replies))
	for i, r := range tr.Replies {
		caps[i] = refCaptureEntry{Time: r.Time, Seq: r.Seq, Target: tr.Target, Site: r.Site}
	}
	return sent, caps
}

// probeFailover is failoverOn's fault and probing with the probers handed
// back instead of analyzed, on the same event schedule, so a sibling
// restore of one snapshot yields the very traces failoverOn analyzed.
func probeFailover(t *testing.T, w *World, sel *Selection, failCode string, fc FailoverConfig) (groups []groupTraces, t0 float64) {
	t.Helper()
	for _, g := range probeGroups(w, sel, w.CDN.Site(failCode), fc.MaxTargets) {
		pr := dataplane.NewProber(w.Plane, g.Prober, g.ReplyTo)
		pr.LossRate = fc.LossRate
		groups = append(groups, groupTraces{pr, g.Targets})
	}
	t0 = w.Sim.Now()
	var monitor *core.Monitor
	var err error
	if fc.UseMonitor {
		if monitor, err = w.CDN.StartMonitor(); err == nil {
			_, err = w.CDN.CrashSite(failCode)
		}
	} else {
		_, err = w.CDN.FailSite(failCode)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		for _, id := range g.targets {
			g.prober.PingEvery(id, scenario.ProbeInterval, fc.ProbeDuration)
		}
	}
	w.Sim.RunUntil(t0 + fc.ProbeDuration + 30)
	if monitor != nil {
		monitor.Stop()
	}
	return groups, t0
}

type groupTraces struct {
	prober  *dataplane.Prober
	targets []topology.NodeID
}

// TestAnalyzeTargetMatchesReference runs a reduced Figure 2 matrix twice per
// cell on sibling restores of one converged snapshot: failoverOn on one, the
// bare probing on the other, whose traces — flattened back into the flat
// logs — go through the reference. Every TargetOutcome must be deeply equal
// three ways: failoverOn's, the reference's, and analyzeTarget's over the
// sibling's traces.
func TestAnalyzeTargetMatchesReference(t *testing.T) {
	type column struct {
		cfg  WorldConfig
		tech core.Technique
	}
	cols := []column{
		{tinyConfig(27), core.ProactiveSuperprefix{}},
		{tinyConfig(27), core.ReactiveAnycast{}},
		{tinyConfig(27), core.ProactivePrepending{Prepends: 3}},
		{tinyConfig(27), core.Anycast{}},
		{demandConfig(27), core.LoadShift{}}, // one prober per bucket /27
	}
	sel := mustSelect(t, tinyConfig(27), 15)
	for _, col := range cols {
		snap, err := buildSnapshot(col.cfg, col.tech)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", col.tech.Name(), err)
		}
		probersSeen, outcomes, unanswered, bounced := 0, 0, 0, 0
		for _, loss := range []float64{0, 0.05} {
			for _, mon := range []bool{false, true} {
				fc := quickFailover()
				fc.LossRate, fc.UseMonitor = loss, mon
				name := fmt.Sprintf("%s/loss=%v/monitor=%v", col.tech.Name(), loss, mon)

				w, err := RestoreWorld(snap)
				if err != nil {
					t.Fatal(err)
				}
				res, err := failoverOn(w, sel, col.tech, "msn", fc)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sib, err := RestoreWorld(snap)
				if err != nil {
					t.Fatal(err)
				}
				groups, t0 := probeFailover(t, sib, sel, "msn", fc)

				var want, got []TargetOutcome
				var scratch []refCaptureEntry
				for _, g := range groups {
					for _, id := range g.targets {
						tr := g.prober.Trace(id)
						sent, caps := flatLogs(tr)
						var o TargetOutcome
						o, scratch = refAnalyzeTarget(sib, id, sent, caps, t0, scratch)
						want = append(want, o)
						got = append(got, analyzeTarget(sib, tr, t0))
						if len(caps) < len(sent) {
							unanswered++
						}
						bounced += o.Bounces
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: analyzeTarget differs from the reference\n got %+v\nwant %+v", name, got, want)
				}
				if !reflect.DeepEqual(res.Outcomes, want) {
					t.Fatalf("%s: failoverOn differs from the reference\n got %+v\nwant %+v", name, res.Outcomes, want)
				}
				probersSeen = max(probersSeen, len(groups))
				outcomes += len(want)
			}
		}
		if outcomes == 0 || unanswered == 0 {
			t.Fatalf("%s: %d outcomes, %d targets with a lost probe: the matrix exercised nothing", col.tech.Name(), outcomes, unanswered)
		}
		if _, ok := col.tech.(core.LoadShift); ok && probersSeen < 2 {
			t.Fatalf("load-shift under demand probed through %d prober(s), want several", probersSeen)
		}
		t.Logf("%s: %d outcomes, %d with lost probes, %d bounces, ≤ %d probers per run", col.tech.Name(), outcomes, unanswered, bounced, probersSeen)
	}
}

// arrival is one reply of a hand-built or fuzzed trace: the probe it
// answers, when it lands, and the site that answered.
type arrival struct {
	seq  uint32
	at   float64
	site topology.NodeID
}

// analyzeBoth builds a valid trace for one target — n probes 1.5 s apart
// with seqs 1..n, answered by arrivals, which must be in arrival order — and
// returns analyzeTarget's outcome and the reference's over its flat logs.
func analyzeBoth(w *World, n int, arrivals []arrival) (got, want TargetOutcome) {
	tr := &dataplane.Trace{Target: w.Targets()[0].ID}
	for seq := uint32(1); seq <= uint32(n); seq++ {
		tr.Probes = append(tr.Probes, dataplane.Probe{Seq: seq, Time: 1.5 * float64(seq), Reply: -1})
	}
	for i, r := range arrivals {
		tr.Probes[r.seq-1].Reply = int32(i)
		tr.Replies = append(tr.Replies, dataplane.Reply{Time: r.at, Seq: r.seq, Site: r.site})
	}
	sent, caps := flatLogs(tr)
	want, _ = refAnalyzeTarget(w, tr.Target, sent, caps, 1, nil)
	return analyzeTarget(w, tr, 1), want
}

// TestAnalyzeTargetOvertakenReplies feeds both analyzers the traces the
// matrix above never produces (its replies are 1.5 s apart and arrive in
// order): replies that overtake earlier ones, so arrival order and emission
// order disagree about which reply is first, last, and where the stable
// suffix starts. FuzzAnalyzeTarget's committed corpus encodes these four.
func TestAnalyzeTargetOvertakenReplies(t *testing.T) {
	w, err := NewWorld(tinyConfig(27))
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.CDN.Site("atl").Node, w.CDN.Site("msn").Node
	for name, arrivals := range map[string][]arrival{
		// seq 2 lands before seq 1; the last probe's reply lands before seq 5's.
		"stable suffix": {{2, 3.1, a}, {1, 5.0, b}, {4, 6.1, a}, {6, 9.05, a}, {5, 9.2, a}},
		// The site differs on the overtaking reply: bounces follow arrival
		// order, the failover suffix follows emission order.
		"suffix broken by site": {{1, 1.6, a}, {3, 4.6, b}, {2, 4.9, a}, {4, 6.1, b}, {6, 9.0, b}, {5, 9.4, a}},
		"final ping lost":       {{3, 4.6, a}, {2, 4.8, a}, {5, 7.6, b}},
		"nothing answered":      nil,
	} {
		if got, want := analyzeBoth(w, 6, arrivals); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// FuzzAnalyzeTarget generalises TestAnalyzeTargetOvertakenReplies to
// arbitrary traces of up to 64 probes, one per byte pair. The first byte's
// low two bits say the probe was lost (0) or which of three sites answered;
// the second is its reply's delay in twentieths of a second, so a reply can
// overtake up to eight later ones.
func FuzzAnalyzeTarget(f *testing.F) {
	w, err := NewWorld(tinyConfig(27))
	if err != nil {
		f.Fatal(err)
	}
	sites := []topology.NodeID{w.CDN.Site("atl").Node, w.CDN.Site("msn").Node, w.CDN.Site("bos").Node}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/2, 64)
		var arrivals []arrival
		for i := 0; i < n; i++ {
			fate, delay := data[2*i]%4, data[2*i+1]
			if fate == 0 {
				continue
			}
			seq := uint32(i + 1)
			arrivals = append(arrivals, arrival{seq, 1.5*float64(seq) + float64(delay)/20, sites[fate-1]})
		}
		slices.SortStableFunc(arrivals, func(x, y arrival) int { return cmp.Compare(x.at, y.at) })
		if got, want := analyzeBoth(w, n, arrivals); !reflect.DeepEqual(got, want) {
			t.Fatalf("arrivals %v:\n got %+v\nwant %+v", arrivals, got, want)
		}
	})
}
