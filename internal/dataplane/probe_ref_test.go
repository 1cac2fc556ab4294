package dataplane

import (
	"fmt"
	"net/netip"
	"sort"

	"bestofboth/internal/netsim"
	"bestofboth/internal/tally"
	"bestofboth/internal/topology"
)

// refProbe is one echo request in a reference trace. Reply indexes the
// trace's Replies, or is -1 while no reply has been captured: the "missing
// sequence number" of §5.2.
type refProbe struct {
	Seq   uint32
	Reply int32
	Time  float64 // virtual emission time
}

// refReply is one echo reply arriving at a capture point, like a line in the
// per-site tcpdump the paper runs during failover experiments.
type refReply struct {
	Time float64 // virtual arrival time
	Seq  uint32
	Site topology.NodeID // the node where the reply arrived
}

// refTrace is everything the reference sent to and heard from one target,
// in the two orders the metrics read: Probes in emission order (ascending
// Seq and Time), Replies in arrival order (ascending Time; replies arriving
// at one instant keep emission order). Read at virtual time now, it holds
// exactly the probes emitted and the replies arrived by now.
type refTrace struct {
	Target  topology.NodeID
	Probes  []refProbe
	Replies []refReply
}

// logOutcome reads a trace the way the failover analysis read the logs the
// prober kept before it folded them: the reference for tally.Outcome.
func logOutcome(tr *refTrace) tally.Outcome {
	o := tally.Outcome{Sent: len(tr.Probes), Answered: len(tr.Replies)}
	replies := tr.Replies
	if len(replies) == 0 {
		return o
	}
	o.First = replies[0].Time
	for i := 1; i < len(replies); i++ {
		if replies[i].Site != replies[i-1].Site {
			o.Switches++
		}
	}
	o.Final = replies[len(replies)-1].Site
	inGap, seenFirst := false, false
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
	last := len(tr.Probes) - 1
	if tr.Probes[last].Reply < 0 {
		return o
	}
	start := replies[tr.Probes[last].Reply]
	for i := last - 1; i >= 0; i-- {
		ri := tr.Probes[i].Reply
		if ri < 0 || replies[ri].Site != start.Site {
			break
		}
		start = replies[ri]
	}
	o.Stable, o.Since = true, start.Time
	return o
}

// logWindow reads the probes of a trace emitted in [from, to) the way the
// scenario analysis read the logs: the reference for tally.Window.
func logWindow(tr *refTrace, from, to float64) tally.Window {
	var w tally.Window
	if !(from < to) {
		return w
	}
	for _, s := range tr.Probes {
		if s.Time < from || s.Time >= to {
			continue
		}
		w.Sent++
		if s.Reply >= 0 {
			w.Answered++
		} else if !w.Lost {
			w.Lost, w.LostAt = true, s.Time
		}
	}
	caps := tr.Replies
	if w.Lost {
		if ri := sort.Search(len(caps), func(k int) bool { return caps[k].Time >= w.LostAt }); ri < len(caps) {
			w.Reconnected, w.ReconnectedAt = true, caps[ri].Time
		}
	}
	if li := sort.Search(len(caps), func(k int) bool { return caps[k].Time >= to }); li > 0 && caps[li-1].Time >= from {
		w.Landed, w.Site = true, caps[li-1].Site
	}
	return w
}

// refProber is the prober as it stood while probes were calendar events,
// verbatim apart from three things: it takes its simulator as a field and
// touches the plane only through Forward and StaticDelay (so
// internal/experiment keeps a copy of this file it can drive), its logs are
// the test's own types, and its loss decisions come from lost, the per-probe
// function, where the original drew from sim.Rand(). Three events per probe —
// the PingEvery tick, runEcho when the request reaches the target, runCapture
// when the reply reaches a site — make the calendar's ⟨at, seq⟩ order the
// oracle for everything the journal-evaluating prober has to reproduce:
// emission order across campaigns, which FIB state an echo sees, and where an
// overtaking reply lands.
type refProber struct {
	sim      *netsim.Sim
	plane    *Plane
	From     topology.NodeID
	ReplyTo  netip.Addr
	LossRate float64
	seq      uint32
	answered int
	traces   map[topology.NodeID]*refTrace

	// freeFlights recycles in-flight echo payloads.
	freeFlights []*refFlight
}

// refFlight is the recycled payload of one echo exchange: it rides the
// request-arrival event (runEcho) and, if the reply survives, the
// reply-arrival event (runCapture). It names its probe by trace and index,
// so the capture links reply to probe without a lookup.
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
	return p.LossRate > 0 && lost(lossKey(p.sim.Seed(), p.From, p.ReplyTo), uint64(seq), leg, p.LossRate)
}

// runEcho fires when the request reaches the target: the target emits the
// reply, which is routed by the FIBs as they stand at this moment.
func runEcho(a any) {
	f := a.(*refFlight)
	p := f.p
	if p.lost(f.tr.Probes[f.probe].Seq, legReply) {
		p.freeFlight(f)
		return // reply lost (or rate-limited at the target)
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

func newRefProber(sim *netsim.Sim, plane *Plane, from topology.NodeID, replyTo netip.Addr) *refProber {
	return &refProber{sim: sim, plane: plane, From: from, ReplyTo: replyTo, traces: make(map[topology.NodeID]*refTrace)}
}

func (p *refProber) Trace(target topology.NodeID) *refTrace { return p.traces[target] }
func (p *refProber) Sent() int                              { return int(p.seq) }
func (p *refProber) Answered() int                          { return p.answered }

func (p *refProber) trace(target topology.NodeID) *refTrace {
	tr := p.traces[target]
	if tr == nil {
		tr = &refTrace{Target: target}
		p.traces[target] = tr
	}
	return tr
}

func (p *refProber) ping(target topology.NodeID) uint32 { return p.pingTrace(p.trace(target)) }

func (p *refProber) pingTrace(tr *refTrace) uint32 {
	p.seq++
	seq := p.seq
	fwd := p.plane.StaticDelay(p.From, tr.Target)
	sim := p.sim
	tr.Probes = append(tr.Probes, refProbe{Seq: seq, Time: sim.Now(), Reply: -1})
	if p.lost(seq, legRequest) {
		return seq // request lost in flight
	}
	f := p.newFlight()
	f.p, f.tr, f.probe = p, tr, int32(len(tr.Probes)-1)
	sim.AtCall(sim.Now()+fwd, runEcho, f)
	return seq
}

func (p *refProber) PingEvery(target topology.NodeID, interval, duration float64) {
	if !(interval > 0) {
		panic(fmt.Sprintf("dataplane: PingEvery interval %v is not positive", interval))
	}
	tr := p.trace(target)
	sim := p.sim
	deadline := sim.Now() + duration
	var tick func()
	tick = func() {
		if sim.Now() >= deadline {
			return
		}
		p.pingTrace(tr)
		sim.After(interval, tick)
	}
	tick()
}
