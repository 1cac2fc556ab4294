package experiment

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"

	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/scenario"
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

// refProber is internal/dataplane's probe_ref_test.go — the prober as it
// stood while probes were calendar events, logging every probe and reply —
// copied here because test files do not cross packages, and cut to what the
// Figure 2 matrix needs: PingEvery. It drives the world's control simulator
// and reads the plane through Forward and StaticDelay only; its loss
// decisions are the prober's per-probe function, copied below. See the
// original for why it is the oracle.
type refProber struct {
	sim      *netsim.Sim
	plane    *dataplane.Plane
	From     topology.NodeID
	ReplyTo  netip.Addr
	LossRate float64
	seq      uint32
	answered int
	traces   map[topology.NodeID]*refTrace

	freeFlights []*refFlight
}

func newRefProber(w *World, g scenario.Group, loss float64) *refProber {
	return &refProber{sim: w.Sim, plane: w.Plane, From: g.Prober, ReplyTo: g.ReplyTo, LossRate: loss, traces: map[topology.NodeID]*refTrace{}}
}

type refFlight struct {
	p     *refProber
	tr    *refTrace
	probe int32
	dest  topology.NodeID
}

func (p *refProber) newFlight() *refFlight {
	if k := len(p.freeFlights); k > 0 {
		f := p.freeFlights[k-1]
		p.freeFlights = p.freeFlights[:k-1]
		return f
	}
	return &refFlight{}
}

func (p *refProber) freeFlight(f *refFlight) {
	*f = refFlight{}
	p.freeFlights = append(p.freeFlights, f)
}

func (p *refProber) lost(seq uint32, leg uint64) bool {
	return p.LossRate > 0 && refLost(refLossKey(p.sim.Seed(), p.From, p.ReplyTo), uint64(seq), leg, p.LossRate)
}

// runEcho fires when the request reaches the target: the target emits the
// reply, which is routed by the FIBs as they stand at this moment.
func runEcho(a any) {
	f := a.(*refFlight)
	p := f.p
	if p.lost(f.tr.Probes[f.probe].Seq, refLegReply) {
		p.freeFlight(f)
		return
	}
	res := p.plane.Forward(f.tr.Target, p.ReplyTo)
	if !res.Delivered {
		p.freeFlight(f)
		return
	}
	f.dest = res.Dest
	p.sim.AtCall(p.sim.Now()+res.Delay, runCapture, f)
}

// runCapture fires when the reply arrives at a capture point.
func runCapture(a any) {
	f := a.(*refFlight)
	p, tr := f.p, f.tr
	probe := &tr.Probes[f.probe]
	probe.Reply = int32(len(tr.Replies))
	tr.Replies = append(tr.Replies, refReply{Time: p.sim.Now(), Seq: probe.Seq, Site: f.dest})
	p.answered++
	p.freeFlight(f)
}

func (p *refProber) Trace(target topology.NodeID) *refTrace { return p.traces[target] }
func (p *refProber) Sent() int                              { return int(p.seq) }
func (p *refProber) Answered() int                          { return p.answered }

func (p *refProber) ping(tr *refTrace) {
	p.seq++
	fwd := p.plane.StaticDelay(p.From, tr.Target)
	sim := p.sim
	tr.Probes = append(tr.Probes, refProbe{Seq: p.seq, Time: sim.Now(), Reply: -1})
	if p.lost(p.seq, refLegRequest) {
		return
	}
	f := p.newFlight()
	f.p, f.tr, f.probe = p, tr, int32(len(tr.Probes)-1)
	sim.AtCall(sim.Now()+fwd, runEcho, f)
}

func (p *refProber) PingEvery(target topology.NodeID, interval, duration float64) {
	if !(interval > 0) {
		panic(fmt.Sprintf("dataplane: PingEvery interval %v is not positive", interval))
	}
	tr := p.traces[target]
	if tr == nil {
		tr = &refTrace{Target: target}
		p.traces[target] = tr
	}
	sim := p.sim
	deadline := sim.Now() + duration
	var tick func()
	tick = func() {
		if sim.Now() >= deadline {
			return
		}
		p.ping(tr)
		sim.After(interval, tick)
	}
	tick()
}

// The prober's per-probe loss function (internal/dataplane's probe.go),
// copied: a leg of probe seq is dropped by a pure function of the run's
// seed, the prober's node and reply address, seq and the leg.
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

// campaigner is what failoverOn asks of a prober before it reads it.
type campaigner interface {
	PingEvery(target topology.NodeID, interval, duration float64)
	Sent() int
	Answered() int
}

// probeWith is failoverOn's fault and probing on its event schedule, with the
// probers built by mk and handed back, one per probe group.
func probeWith(t *testing.T, w *World, sel *Selection, failCode string, fc FailoverConfig, mk func(g scenario.Group) campaigner) ([]campaigner, []scenario.Group) {
	t.Helper()
	groups := probeGroups(w, sel, w.CDN.Site(failCode), fc.MaxTargets)
	var probers []campaigner
	for _, g := range groups {
		probers = append(probers, mk(g))
	}
	t0 := w.Sim.Now()
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
	for i, g := range groups {
		for _, id := range g.Targets {
			probers[i].PingEvery(id, scenario.ProbeInterval, fc.ProbeDuration)
		}
	}
	w.Sim.RunUntil(t0 + fc.ProbeDuration + 30)
	if monitor != nil {
		monitor.Stop()
	}
	return probers, groups
}

// TestProberMatchesCalendarReference runs failover_ref_test.go's matrix — the
// four Figure 2 techniques plus load-shift under demand, site monitor off
// and on, lossless — on sibling restores of one converged snapshot, one
// probed by the prober and one by its calendar reference, at one and two
// shards. Each target's outcome from the prober's fold must be the
// reference analysis of the calendar reference's logs, Sent and Answered
// must agree, and both worlds must end in the same BGP state: at two shards
// the reference's events bound the barrier rounds and the prober's absence
// of events does not, and neither may show.
func TestProberMatchesCalendarReference(t *testing.T) {
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
	for _, shards := range []int{1, 2} {
		for _, col := range cols {
			cfg := col.cfg
			cfg.Shards = shards
			snap, err := buildSnapshot(cfg, col.tech)
			if err != nil {
				t.Fatalf("%s: snapshot: %v", col.tech.Name(), err)
			}
			traces, lost := 0, 0
			for _, mon := range []bool{false, true} {
				fc := quickFailover()
				fc.UseMonitor = mon
				name := fmt.Sprintf("%s/shards=%d/monitor=%v", col.tech.Name(), shards, mon)

				real, err := RestoreWorld(snap)
				if err != nil {
					t.Fatal(err)
				}
				t0 := real.Sim.Now()
				got, groups := probeWith(t, real, sel, "msn", fc, func(g scenario.Group) campaigner {
					return dataplane.NewProber(real.Plane, g.Prober, g.ReplyTo)
				})
				ref, err := RestoreWorld(snap)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := probeWith(t, ref, sel, "msn", fc, func(g scenario.Group) campaigner {
					return newRefProber(ref, g, 0)
				})

				for i, g := range groups {
					if got[i].Sent() != want[i].Sent() || got[i].Answered() != want[i].Answered() {
						t.Fatalf("%s, prober %d: sent %d answered %d, reference %d and %d", name, i, got[i].Sent(), got[i].Answered(), want[i].Sent(), want[i].Answered())
					}
					for _, id := range g.Targets {
						out, _ := got[i].(*dataplane.Prober).Outcome(id)
						tr := want[i].(*refProber).Trace(id)
						if a, b := analyzeTarget(real, id, out, t0), refAnalyzeTarget(ref, tr, t0); a != b {
							t.Fatalf("%s, prober %d, target %d: the fold reads %+v, the calendar reference's logs %+v", name, i, id, a, b)
						}
						traces++
						if len(tr.Replies) < len(tr.Probes) {
							lost++
						}
					}
				}
				if real.Net.MessageCount() != ref.Net.MessageCount() || real.Net.RouteStateDigest() != ref.Net.RouteStateDigest() || real.Plane.FIBDigest() != ref.Plane.FIBDigest() {
					t.Fatalf("%s: the two worlds ended in different BGP states", name)
				}
			}
			if traces == 0 || lost == 0 {
				t.Fatalf("%s: %d traces, %d with a lost probe: the matrix exercised nothing", col.tech.Name(), traces, lost)
			}
			t.Logf("%s, %d shard(s): %d outcomes agree, %d with lost probes", col.tech.Name(), shards, traces, lost)
		}
	}
}
