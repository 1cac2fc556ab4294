package scenario

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/tally"
	"bestofboth/internal/topology"
)

// refProbe, refReply and refTrace are the logs the prober kept before it
// folded them (internal/dataplane's probe_ref_test.go documents them): probes
// in emission order, linked to their replies in arrival order.
type refProbe struct {
	Seq   uint32
	Reply int32
	Time  float64
}

type refReply struct {
	Time float64
	Seq  uint32
	Site topology.NodeID
}

type refTrace struct {
	Target  topology.NodeID
	Probes  []refProbe
	Replies []refReply
}

// logs is what refAnalyze reads of a prober.
type logs interface {
	Trace(topology.NodeID) *refTrace
	Sent() int
	Answered() int
}

// refAnalyze is analyze as it stood over the logs the prober kept before it
// folded them, verbatim apart from the log types' names: the reference for
// the fold analyze reads.
func refAnalyze(env *Env, res *Result, actions []action, groups []Group, probers []logs, t0 float64) {
	siteOf := make(map[topology.NodeID]string, len(env.CDN.Sites()))
	for _, s := range env.CDN.Sites() {
		siteOf[s.Node] = s.Code
	}

	for _, pr := range probers {
		res.Sent += pr.Sent()
		res.Answered += pr.Answered()
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
			for _, tgt := range g.Targets {
				tr := probers[gi].Trace(tgt)
				firstLost := -1.0
				for _, s := range tr.Probes {
					if s.Time < winStart || s.Time >= winEnd {
						continue
					}
					ev.Sent++
					if s.Reply >= 0 {
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
				caps := tr.Replies
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

// refProber is internal/dataplane's probe_ref_test.go — the prober as it
// stood while probes were calendar events, logging every probe and reply —
// copied here because test files do not cross packages, and cut to what a
// scenario needs: PingEvery, under loss. Its loss decisions are the prober's
// per-probe function, copied below. See the original for why it is the
// oracle.
type refProber struct {
	sim      *netsim.Sim
	plane    *dataplane.Plane
	From     topology.NodeID
	ReplyTo  netip.Addr
	LossRate float64
	seq      uint32
	answered int
	traces   map[topology.NodeID]*refTrace
}

func (p *refProber) lost(seq uint32, leg uint64) bool {
	return p.LossRate > 0 && refLost(refLossKey(p.sim.Seed(), p.From, p.ReplyTo), uint64(seq), leg, p.LossRate)
}

func (p *refProber) Trace(target topology.NodeID) *refTrace { return p.traces[target] }
func (p *refProber) Sent() int                              { return int(p.seq) }
func (p *refProber) Answered() int                          { return p.answered }

// ping emits one probe; the echo fires when the request reaches the target
// and routes the reply by the FIBs as they stand then, and the capture fires
// when the reply reaches a site.
func (p *refProber) ping(tr *refTrace) {
	p.seq++
	seq, i := p.seq, len(tr.Probes)
	tr.Probes = append(tr.Probes, refProbe{Seq: seq, Time: p.sim.Now(), Reply: -1})
	if p.lost(seq, refLegRequest) {
		return
	}
	p.sim.After(p.plane.StaticDelay(p.From, tr.Target), func() {
		if p.lost(seq, refLegReply) {
			return
		}
		res := p.plane.Forward(tr.Target, p.ReplyTo)
		if !res.Delivered {
			return
		}
		p.sim.After(res.Delay, func() {
			tr.Probes[i].Reply = int32(len(tr.Replies))
			tr.Replies = append(tr.Replies, refReply{Time: p.sim.Now(), Seq: seq, Site: res.Dest})
			p.answered++
		})
	})
}

func (p *refProber) PingEvery(target topology.NodeID, interval, duration float64) {
	tr := p.traces[target]
	if tr == nil {
		tr = &refTrace{Target: target}
		p.traces[target] = tr
	}
	deadline := p.sim.Now() + duration
	var tick func()
	tick = func() {
		if p.sim.Now() >= deadline {
			return
		}
		p.ping(tr)
		p.sim.After(interval, tick)
	}
	tick()
}

// The prober's per-probe loss function (internal/dataplane's probe.go),
// copied.
const (
	refLegRequest = iota
	refLegReply
)

func refSplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func refLossKey(seed int64, from topology.NodeID, replyTo netip.Addr) uint64 {
	a := replyTo.As16()
	k := refSplitmix64(uint64(seed))
	k = refSplitmix64(k ^ uint64(from))
	k = refSplitmix64(k ^ binary.BigEndian.Uint64(a[:8]))
	return refSplitmix64(k ^ binary.BigEndian.Uint64(a[8:]))
}

func refLost(key, seq uint64, leg uint64, rate float64) bool {
	u := refSplitmix64(refSplitmix64(key^seq) ^ leg)
	return float64(u>>11)/(1<<53) < rate
}

// probeScenario is Run's timeline and probing on the same event schedule,
// probed by the calendar reference instead, handing back its logs. The
// Result carries what Run fills in before analyze: identity, the bound
// events and their post-event SitesDown.
func probeScenario(t *testing.T, env *Env, sc *Scenario, groups []Group, opts Options) (*Result, []action, []logs, float64) {
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
	probers := make([]logs, len(groups))
	for i, g := range groups {
		pr := &refProber{sim: env.Sim, plane: env.Plane, From: g.Prober, ReplyTo: g.ReplyTo, LossRate: opts.LossRate, traces: map[topology.NodeID]*refTrace{}}
		for _, tgt := range g.Targets {
			pr.PingEvery(tgt, ProbeInterval, horizon)
		}
		probers[i] = pr
		res.Targets += len(g.Targets)
	}
	env.Sim.RunUntil(t0 + horizon + 30)
	res.BGPUpdates = env.Net.MessageCount() - msgs0
	return res, actions, probers, t0
}

// TestAnalyzeMatchesReference runs each scenario on twin hand-wired worlds:
// Run on one, the bare timeline probed by the calendar reference on the
// other. Run's Result, read from the probers' folds, must be deeply equal to
// the reference analysis of the reference's logs.
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
			{At: 20, Kind: KindFail, Site: "atl"}, // same instant: both windows run to 120 s
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
			want, actions, probers, t0 := probeScenario(t, twin, &tc.sc, groups, tc.opts)
			refAnalyze(twin, want, actions, groups, probers, t0)

			if !reflect.DeepEqual(ran, want) {
				t.Fatalf("Run differs from the reference\n got %+v\nwant %+v", ran, want)
			}
			affected, lost := 0, 0
			for _, ev := range want.Events {
				affected += ev.AffectedTargets
				lost += ev.Sent - ev.Answered
			}
			if want.Answered == 0 || want.Answered == want.Sent || affected == 0 || lost == 0 {
				t.Fatalf("the run exercised nothing: %+v", want)
			}
		})
	}
}

// synthLogs is a prober's logs built from a synthetic stream.
type synthLogs struct {
	traces      map[topology.NodeID]*refTrace
	sent, answd int
}

func (l *synthLogs) Trace(id topology.NodeID) *refTrace { return l.traces[id] }
func (l *synthLogs) Sent() int                          { return l.sent }
func (l *synthLogs) Answered() int                      { return l.answd }

// FuzzWindows feeds synthetic probe streams to one prober's worth of folds,
// the way the prober drives them, and at every emission instant and at the
// end requires analyzeEvents over the folds' windows to equal the reference
// analysis of the logs as they stand then. The input is a header — the
// number of targets, the static delay to them in quarter seconds, the
// horizon in half seconds past one, the number of actions and their times
// in half seconds — then three bytes per probe: the pause since the last
// emission in quarter seconds (0: the same instant), the target and its
// fate (low two bits: lost, or which of three sites answered), and the
// reply's delay after the echo in quarter seconds. Action times may tie and
// may lie past the horizon.
func FuzzWindows(f *testing.F) {
	env := testEnv(f, 5, core.ReactiveAnycast{})
	var sites []topology.NodeID
	for _, s := range env.CDN.Sites()[:3] {
		sites = append(sites, s.Node)
	}
	nodes := env.Topo.Nodes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k, fwd, horizon := 1+int(data[0]%4), float64(data[1]%16)/4, 1+float64(data[2])/2
		n := 1 + int(data[3]%5)
		if len(data) < 4+n {
			return
		}
		const t0 = 0.0
		var actions []action
		for _, b := range data[4 : 4+n] {
			actions = append(actions, action{at: float64(b) / 2, kind: KindFail})
		}
		sort.SliceStable(actions, func(i, j int) bool { return actions[i].at < actions[j].at })
		g := Group{}
		for i := 0; i < k; i++ {
			g.Targets = append(g.Targets, nodes[i].ID)
		}
		edges := windowEdges(actions, t0, horizon)

		// The stream, in emission order, and each target's fold and trace.
		type probe struct {
			target     int
			seq        uint32
			sent, echo float64
			answered   bool
			arrive     float64
			site       topology.NodeID
		}
		var stream []probe
		now := t0
		for i, b := 4+n, 0; i+3 <= len(data) && b < 64; i, b = i+3, b+1 {
			now += float64(data[i]) / 4
			p := probe{target: int(data[i+1]>>2) % k, seq: uint32(b + 1), sent: now}
			p.echo = now + fwd
			if fate := data[i+1] % 4; fate != 0 {
				p.answered, p.site, p.arrive = true, sites[fate-1], p.echo+float64(data[i+2])/4
			}
			stream = append(stream, p)
		}
		folds := make([]*tally.Target, k)
		for i := range folds {
			folds[i] = tally.New(edges)
		}
		byFold := make([][]probe, k)
		// answer resolves target i's echoes before by, or at by too when
		// through, as the prober does.
		answer := func(i int, by float64, through bool) {
			for seq, _, ok := folds[i].Next(); ok; seq, _, ok = folds[i].Next() {
				p := byFold[i][slices.IndexFunc(byFold[i], func(p probe) bool { return p.seq == seq })]
				if p.echo > by || p.echo == by && !through {
					return
				}
				if p.answered {
					folds[i].Reply(p.arrive, p.site)
				} else {
					folds[i].Lose()
				}
			}
		}
		read := func(now float64, sent int) {
			t.Helper()
			l := &synthLogs{traces: map[topology.NodeID]*refTrace{}}
			for i, id := range g.Targets {
				answer(i, now, true)
				folds[i].Land(now)
				l.traces[id] = &refTrace{Target: id}
			}
			var arrived []probe
			for _, p := range stream[:sent] {
				tr := l.traces[g.Targets[p.target]]
				tr.Probes = append(tr.Probes, refProbe{Seq: p.seq, Time: p.sent, Reply: -1})
				if p.answered && p.arrive <= now {
					arrived = append(arrived, p)
				}
			}
			slices.SortStableFunc(arrived, func(a, b probe) int { return cmp.Compare(a.arrive, b.arrive) })
			for _, p := range arrived {
				tr := l.traces[g.Targets[p.target]]
				tr.Probes[slices.IndexFunc(tr.Probes, func(r refProbe) bool { return r.Seq == p.seq })].Reply = int32(len(tr.Replies))
				tr.Replies = append(tr.Replies, refReply{Time: p.arrive, Seq: p.seq, Site: p.site})
			}
			l.sent, l.answd = sent, len(arrived)

			events := func() *Result {
				return &Result{Horizon: horizon, Targets: k, Events: make([]EventResult, len(actions))}
			}
			want, got := events(), events()
			refAnalyze(env, want, actions, []Group{g}, []logs{l}, t0)
			got.Sent, got.Answered, got.Availability = want.Sent, want.Answered, want.Availability
			analyzeEvents(env, got, actions, []Group{g}, t0, func(_ int, target topology.NodeID, from, to float64) tally.Window {
				return folds[slices.Index(g.Targets, target)].Window(from, to)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("read at %v after %d probes, edges %v:\n got %+v\nwant %+v", now, sent, edges, got.Events, want.Events)
			}
		}
		for i, p := range stream {
			answer(p.target, p.sent, false) // every echo before the probe, as Send requires
			folds[p.target].Send(p.seq, p.sent)
			byFold[p.target] = append(byFold[p.target], p)
			if i+1 == len(stream) || stream[i+1].sent > p.sent {
				read(p.sent, i+1)
			}
		}
		read(now+1000, len(stream))
	})
}

// windowSeed encodes FuzzWindows input for the committed seeds.
func windowSeed(targets, fwd, horizon byte, actions []byte, probes ...[3]byte) []byte {
	data := append([]byte{targets, fwd, horizon, byte(len(actions) - 1)}, actions...)
	for _, p := range probes {
		data = append(data, p[:]...)
	}
	return data
}

// windowSeeds are FuzzWindows' committed seeds (testdata/fuzz/FuzzWindows).
var windowSeeds = map[string][]byte{
	// One target 2 s away; the reply to the first probe takes 4 s, the
	// second's 0: the second overtakes the first, across the edge at 3 s.
	"overtaking": windowSeed(0, 8, 20, []byte{0, 6},
		[3]byte{0, 1, 16}, [3]byte{2, 2, 0}, [3]byte{4, 0, 0}, [3]byte{6, 3, 1}),
	// Two actions past the horizon and two at one instant: windows that are
	// empty or inverted, and two that share their edges.
	"empty-window": windowSeed(1, 2, 8, []byte{4, 4, 30, 40},
		[3]byte{0, 1, 0}, [3]byte{4, 4, 2}, [3]byte{4, 0, 0}, [3]byte{8, 5, 1}),
	// Everything at t=0 of the campaign: the first action, a probe lost and
	// a probe answered at the same instant, the target no distance away.
	"event-at-zero": windowSeed(0, 0, 10, []byte{0, 2},
		[3]byte{0, 0, 0}, [3]byte{0, 1, 0}, [3]byte{0, 2, 0}, [3]byte{2, 0, 0}, [3]byte{0, 3, 0}),
}

// TestWindowSeedsCommitted pins FuzzWindows' committed corpus to the seeds
// above.
func TestWindowSeedsCommitted(t *testing.T) {
	for name, data := range windowSeeds {
		seed, err := os.ReadFile("testdata/fuzz/FuzzWindows/" + name)
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); err != nil || string(seed) != want {
			t.Errorf("committed fuzz seed %s is not the hand-built stream (%v): want\n%s", name, err, want)
		}
	}
}
