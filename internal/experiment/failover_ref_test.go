package experiment

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/scenario"
	"bestofboth/internal/tally"
	"bestofboth/internal/topology"
)

// refAnalyzeTarget is analyzeTarget as it stood over the logs the prober
// kept before it folded them, verbatim apart from the trace's type: arrival
// order for reconnection, bounces and the final site, emission order
// (following each probe's Reply link) for gaps and failover. It is the
// reference the fold-reading analyzeTarget is pinned against.
func refAnalyzeTarget(w *World, tr *refTrace, t0 float64) TargetOutcome {
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

// TestAnalyzeTargetMatchesReference runs a reduced Figure 2 matrix twice per
// cell on sibling restores of one converged snapshot, lossless and lossy,
// site monitor off and on: failoverOn on one, the calendar reference prober
// on the other, on failoverOn's event schedule. Every TargetOutcome
// failoverOn reads from the prober's folds must be deeply equal to the
// reference analysis of the calendar reference's logs.
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
				t0 := sib.Sim.Now()
				probers, groups := probeWith(t, sib, sel, "msn", fc, func(g scenario.Group) campaigner {
					return newRefProber(sib, g, loss)
				})

				var want []TargetOutcome
				for i, g := range groups {
					for _, id := range g.Targets {
						tr := probers[i].(*refProber).Trace(id)
						o := refAnalyzeTarget(sib, tr, t0)
						want = append(want, o)
						if len(tr.Replies) < len(tr.Probes) {
							unanswered++
						}
						bounced += o.Bounces
					}
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

// analyzeBoth feeds one target's probes — n of them, 1.5 s apart with seqs
// 1..n, each echoed at its emission instant and answered by arrivals, which
// must be in arrival order — to a fold, as a prober does, and reads it at
// every emission instant and once all replies have landed. Each read must
// be the reference analysis of the logs as they stand then. It returns the
// last read's two outcomes.
func analyzeBoth(t testing.TB, w *World, n int, arrivals []arrival) (got, want TargetOutcome) {
	t.Helper()
	id := w.Targets()[0].ID
	fate := make(map[uint32]arrival, len(arrivals))
	for _, r := range arrivals {
		fate[r.seq] = r
	}
	fold := tally.New(nil)
	// answer resolves the echoes before by, or at by too when through.
	answer := func(by float64, through bool) {
		for seq, sent, ok := fold.Next(); ok && (sent < by || through && sent == by); seq, sent, ok = fold.Next() {
			if r, answered := fate[seq]; answered {
				fold.Reply(r.at, r.site)
			} else {
				fold.Lose()
			}
		}
	}
	read := func(now float64) {
		t.Helper()
		answer(now, true)
		fold.Land(now)
		tr := &refTrace{Target: id}
		for seq := uint32(1); seq <= uint32(n) && 1.5*float64(seq) <= now; seq++ {
			tr.Probes = append(tr.Probes, refProbe{Seq: seq, Time: 1.5 * float64(seq), Reply: -1})
		}
		for _, r := range arrivals {
			if r.at <= now {
				tr.Probes[r.seq-1].Reply = int32(len(tr.Replies))
				tr.Replies = append(tr.Replies, refReply{Time: r.at, Seq: r.seq, Site: r.site})
			}
		}
		got, want = analyzeTarget(w, id, fold.Outcome(), 1), refAnalyzeTarget(w, tr, 1)
		if got != want {
			t.Fatalf("read at %v of arrivals %v:\n got %+v\nwant %+v", now, arrivals, got, want)
		}
	}
	for seq := uint32(1); seq <= uint32(n); seq++ {
		at := 1.5 * float64(seq)
		answer(at, false) // every echo before at, as Send requires
		fold.Send(seq, at)
		read(at)
	}
	read(1.5*float64(n) + 100)
	return got, want
}

// TestAnalyzeTargetOvertakenReplies feeds the fold and the reference the
// traces the matrix above never produces (its replies are 1.5 s apart and
// arrive in order): replies that overtake earlier ones, so arrival order and
// emission order disagree about which reply is first, last, and where the
// stable suffix starts. FuzzAnalyzeTarget's committed corpus encodes these
// four.
func TestAnalyzeTargetOvertakenReplies(t *testing.T) {
	w, err := NewWorld(tinyConfig(27))
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.CDN.Site("atl").Node, w.CDN.Site("msn").Node
	t0 := 1.0 // analyzeBoth's; a variable, so the subtractions round as analyzeTarget's do
	for name, c := range map[string]struct {
		arrivals []arrival
		want     TargetOutcome
	}{
		// seq 2 lands before seq 1; the last probe's reply lands before seq 5's.
		"stable suffix": {[]arrival{{2, 3.1, a}, {1, 5.0, b}, {4, 6.1, a}, {6, 9.05, a}, {5, 9.2, a}},
			TargetOutcome{Reconnected: true, Reconnection: 3.1 - t0, FailedOver: true, Failover: 6.1 - t0, Bounces: 2, Gaps: 1, FinalSite: "atl"}},
		// The site differs on the overtaking reply: bounces follow arrival
		// order, the failover suffix follows emission order.
		"suffix broken by site": {[]arrival{{1, 1.6, a}, {3, 4.6, b}, {2, 4.9, a}, {4, 6.1, b}, {6, 9.0, b}, {5, 9.4, a}},
			TargetOutcome{Reconnected: true, Reconnection: 1.6 - t0, FailedOver: true, Failover: 9.0 - t0, Bounces: 4, FinalSite: "atl"}},
		"final ping lost":  {[]arrival{{3, 4.6, a}, {2, 4.8, a}, {5, 7.6, b}}, TargetOutcome{Reconnected: true, Reconnection: 4.6 - t0, Bounces: 1, Gaps: 2, FinalSite: "msn"}},
		"nothing answered": {nil, TargetOutcome{}},
	} {
		c.want.Target = w.Targets()[0].ID
		if got, _ := analyzeBoth(t, w, 6, c.arrivals); got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, c.want)
		}
	}
}

// FuzzAnalyzeTarget generalises TestAnalyzeTargetOvertakenReplies to
// arbitrary traces of up to 64 probes, one per byte pair, read at every
// emission instant. The first byte's low two bits say the probe was lost (0)
// or which of three sites answered; the second is its reply's delay in
// twentieths of a second, so a reply can overtake up to eight later ones.
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
		analyzeBoth(t, w, n, arrivals)
	})
}
