package dataplane

import (
	"fmt"
	"net/netip"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// refProber is the prober as it stood while probes were calendar events,
// verbatim apart from three things: it takes its simulator as a field and
// touches the plane only through Forward and StaticDelay (so
// internal/experiment keeps a copy of this file it can drive), it does not
// presize its logs, and its loss decisions come from lost, the per-probe
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
	traces   map[topology.NodeID]*Trace

	// freeFlights recycles in-flight echo payloads.
	freeFlights []*refFlight
}

// refFlight is the recycled payload of one echo exchange: it rides the
// request-arrival event (runEcho) and, if the reply survives, the
// reply-arrival event (runCapture). It names its probe by trace and index,
// so the capture links reply to probe without a lookup.
type refFlight struct {
	p     *refProber
	tr    *Trace
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
	tr.Replies = append(tr.Replies, Reply{Time: p.sim.Now(), Seq: probe.Seq, Site: f.dest})
	p.answered++
	p.freeFlight(f)
}

func newRefProber(sim *netsim.Sim, plane *Plane, from topology.NodeID, replyTo netip.Addr) *refProber {
	return &refProber{sim: sim, plane: plane, From: from, ReplyTo: replyTo, traces: make(map[topology.NodeID]*Trace)}
}

func (p *refProber) Trace(target topology.NodeID) *Trace { return p.traces[target] }
func (p *refProber) Sent() int                           { return int(p.seq) }
func (p *refProber) Answered() int                       { return p.answered }

func (p *refProber) trace(target topology.NodeID) *Trace {
	tr := p.traces[target]
	if tr == nil {
		tr = &Trace{Target: target}
		p.traces[target] = tr
	}
	return tr
}

func (p *refProber) Ping(target topology.NodeID) uint32 { return p.ping(p.trace(target)) }

func (p *refProber) ping(tr *Trace) uint32 {
	p.seq++
	seq := p.seq
	fwd := p.plane.StaticDelay(p.From, tr.Target)
	sim := p.sim
	tr.Probes = append(tr.Probes, Probe{Seq: seq, Time: sim.Now(), Reply: -1})
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
		p.ping(tr)
		sim.After(interval, tick)
	}
	tick()
}
