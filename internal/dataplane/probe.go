package dataplane

import (
	"fmt"
	"math"
	"net/netip"
	"slices"

	"bestofboth/internal/topology"
)

// Probe is one echo request in a target's trace. Reply indexes the trace's
// Replies, or is -1 while no reply has been captured: the "missing sequence
// number" of §5.2.
type Probe struct {
	Seq   uint64
	Time  float64 // virtual emission time
	Reply int32
}

// Reply is one echo reply arriving at a capture point, like a line in the
// per-site tcpdump the paper runs during failover experiments.
type Reply struct {
	Time float64 // virtual arrival time
	Seq  uint64
	Site topology.NodeID // the node where the reply arrived
}

// Trace is everything one prober sent to and heard from one target, filed as
// the events fire, because every §5.4.1 metric is per ⟨failed site, target⟩.
// It keeps two orders because both are read. Probes is emission order
// (ascending Seq and Time): gaps, the stable failover suffix and per-window
// availability walk the send schedule and follow Reply. Replies is arrival
// order (ascending Time, since events fire in time order): reconnection,
// bounces, the final site and searches by reply time read what the capture
// points saw, and a reply routed to a nearer site can overtake an earlier
// one, so the two orders are not interchangeable.
type Trace struct {
	Target  topology.NodeID
	Probes  []Probe
	Replies []Reply
}

// maxReserve bounds how many entries PingEvery presizes per log: one virtual
// day at the paper's 1.5 s cadence. The count derives from a duration that
// can come from outside the program.
const maxReserve = 1 << 16

// Prober issues Verfploeter-style echo requests: probes are sent from a
// prober node with a spoofed source address inside the prefix under study,
// so replies reveal which site that prefix currently routes to from each
// target (§5.2).
type Prober struct {
	plane *Plane
	// From is the node probes are emitted from (a healthy CDN site).
	From topology.NodeID
	// ReplyTo is the source address carried in requests; targets address
	// replies to it.
	ReplyTo netip.Addr
	// LossRate drops each request or reply independently with this
	// probability, modeling random loss and ICMP rate limiting (the §5.3
	// concern); draws come from the simulation RNG so runs stay
	// deterministic.
	LossRate float64
	seq      uint64
	answered int
	traces   map[topology.NodeID]*Trace

	// freeFlights recycles in-flight echo payloads: the paper-scale runs
	// emit hundreds of thousands of probes, and pooling them (together
	// with netsim.AtCall) makes the request→reply→capture chain schedule
	// without per-probe closure allocations.
	freeFlights []*flight
}

// flight is the recycled payload of one echo exchange: it rides the
// request-arrival event (runEcho) and, if the reply survives, the
// reply-arrival event (runCapture). It names its probe by trace and index,
// so the capture links reply to probe without a lookup.
type flight struct {
	p     *Prober
	tr    *Trace
	probe int32
	dest  topology.NodeID
}

func (p *Prober) newFlight() *flight {
	if k := len(p.freeFlights); k > 0 {
		f := p.freeFlights[k-1]
		p.freeFlights = p.freeFlights[:k-1]
		return f
	}
	return &flight{}
}

func (p *Prober) freeFlight(f *flight) {
	*f = flight{}
	p.freeFlights = append(p.freeFlights, f)
}

// runEcho fires when the request reaches the target: the target emits the
// reply, which is routed by the FIBs as they stand at this moment.
func runEcho(a any) {
	f := a.(*flight)
	p := f.p
	sim := p.plane.sim
	if p.LossRate > 0 && sim.Rand().Float64() < p.LossRate {
		p.freeFlight(f)
		return // reply lost (or rate-limited at the target)
	}
	res := p.plane.Forward(f.tr.Target, p.ReplyTo)
	if !res.Delivered {
		p.freeFlight(f)
		return
	}
	f.dest = res.Dest
	sim.AtCall(sim.Now()+res.Delay, runCapture, f)
}

// runCapture fires when the reply arrives at a capture point.
func runCapture(a any) {
	f := a.(*flight)
	p, tr := f.p, f.tr
	probe := &tr.Probes[f.probe]
	probe.Reply = int32(len(tr.Replies))
	tr.Replies = append(tr.Replies, Reply{Time: p.plane.sim.Now(), Seq: probe.Seq, Site: f.dest})
	p.answered++
	p.freeFlight(f)
}

// NewProber builds a prober bound to a plane.
func NewProber(plane *Plane, from topology.NodeID, replyTo netip.Addr) *Prober {
	return &Prober{plane: plane, From: from, ReplyTo: replyTo, traces: make(map[topology.NodeID]*Trace)}
}

// Trace returns what the prober sent to and heard from target so far, or nil
// for a target it was never asked to ping.
func (p *Prober) Trace(target topology.NodeID) *Trace { return p.traces[target] }

// Sent returns the number of echo requests emitted, lost ones included.
func (p *Prober) Sent() int { return int(p.seq) }

// Answered returns the number of replies captured.
func (p *Prober) Answered() int { return p.answered }

// trace is Trace for writers: it starts the target's trace on first use.
func (p *Prober) trace(target topology.NodeID) *Trace {
	tr := p.traces[target]
	if tr == nil {
		tr = &Trace{Target: target}
		p.traces[target] = tr
	}
	return tr
}

// Ping sends one echo request to target now. The request travels the stable
// forward path (static latency); the reply is routed by the live FIBs at
// reply time. A lost reply leaves the probe's Reply at -1, mirroring a
// missing sequence number in the paper's traces. It returns the sequence
// number used.
func (p *Prober) Ping(target topology.NodeID) uint64 { return p.ping(p.trace(target)) }

func (p *Prober) ping(tr *Trace) uint64 {
	p.seq++
	seq := p.seq
	fwd := p.plane.StaticDelay(p.From, tr.Target)
	sim := p.plane.sim
	tr.Probes = append(tr.Probes, Probe{Seq: seq, Time: sim.Now(), Reply: -1})
	if p.LossRate > 0 && sim.Rand().Float64() < p.LossRate {
		return seq // request lost in flight
	}
	f := p.newFlight()
	f.p, f.tr, f.probe = p, tr, int32(len(tr.Probes)-1)
	sim.AtCall(sim.Now()+fwd, runEcho, f)
	return seq
}

// PingEvery schedules pings to target at the given interval until deadline
// (inclusive start, exclusive deadline), matching the paper's ~1.5 s probing
// cadence for ~600 s after a failure. A non-positive interval panics: the
// tick would re-arm at the current instant forever, which is always a caller
// bug (compare Sim.After on a negative delay). The campaign's length is known
// here, so the target's logs are sized for it up front; that is capacity
// only, and a count that is no plausible campaign (NaN, negative, beyond
// maxReserve) reserves nothing.
func (p *Prober) PingEvery(target topology.NodeID, interval, duration float64) {
	if !(interval > 0) {
		panic(fmt.Sprintf("dataplane: PingEvery interval %v is not positive", interval))
	}
	tr := p.trace(target)
	if n := math.Ceil(duration / interval); n >= 1 && n <= maxReserve {
		tr.Probes = slices.Grow(tr.Probes, int(n))
		tr.Replies = slices.Grow(tr.Replies, int(n))
	}
	sim := p.plane.sim
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

// RTT measures the current round-trip time from the prober's site to the
// target and back to ReplyTo, returning ok=false if the reply path is
// broken. It inspects FIBs instantaneously (no events), which is how the
// harness computes the ≤50 ms site-proximity filter of §5.1.
func (p *Prober) RTT(target topology.NodeID) (float64, bool) {
	res := p.plane.Forward(target, p.ReplyTo)
	if !res.Delivered {
		return 0, false
	}
	return p.plane.StaticDelay(p.From, target) + res.Delay, true
}
