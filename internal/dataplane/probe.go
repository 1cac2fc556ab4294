package dataplane

import (
	"fmt"
	"net/netip"
	"sort"

	"bestofboth/internal/topology"
)

// CaptureEntry records one echo reply arriving at a capture point, like a
// line in the per-site tcpdump the paper runs during failover experiments.
type CaptureEntry struct {
	Time   float64 // virtual arrival time
	Seq    uint64
	Target topology.NodeID // the target that sent the reply
	Site   topology.NodeID // the node where the reply arrived
}

// Capture accumulates echo replies across all sites for one experiment.
type Capture struct {
	entries []CaptureEntry
}

// Add appends an entry. Entries arrive in event order, which is time order.
func (c *Capture) Add(e CaptureEntry) { c.entries = append(c.entries, e) }

// Entries returns all recorded entries in arrival order.
func (c *Capture) Entries() []CaptureEntry { return c.entries }

// ByTarget groups entries per target, each group sorted by time. A counting
// pass presizes the map and every group so the grouping allocates exactly
// once per target instead of growing incrementally.
func (c *Capture) ByTarget() map[topology.NodeID][]CaptureEntry {
	counts := make(map[topology.NodeID]int)
	for _, e := range c.entries {
		counts[e.Target]++
	}
	out := make(map[topology.NodeID][]CaptureEntry, len(counts))
	for _, e := range c.entries {
		g, ok := out[e.Target]
		if !ok {
			g = make([]CaptureEntry, 0, counts[e.Target])
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

// Len returns the number of captured replies.
func (c *Capture) Len() int { return len(c.entries) }

// Reserve grows the capture so at least n more entries can be added without
// reallocating. Experiments that know their probe count up front use this to
// avoid repeated log growth.
func (c *Capture) Reserve(n int) {
	if cap(c.entries)-len(c.entries) >= n {
		return
	}
	grown := make([]CaptureEntry, len(c.entries), len(c.entries)+n)
	copy(grown, c.entries)
	c.entries = grown
}

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
	// Capture receives delivered replies.
	Capture *Capture
	// Sent logs every request in emission order; comparing it against
	// Capture reveals lost replies (the "missing sequence numbers" of
	// §5.2).
	Sent []SentRecord
	// LossRate drops each request or reply independently with this
	// probability, modeling random loss and ICMP rate limiting (the §5.3
	// concern); draws come from the simulation RNG so runs stay
	// deterministic.
	LossRate float64
	seq      uint64

	// freeFlights recycles in-flight echo payloads: the paper-scale runs
	// emit hundreds of thousands of probes, and pooling them (together
	// with netsim.AtCall) makes the request→reply→capture chain schedule
	// without per-probe closure allocations.
	freeFlights []*flight
}

// flight is the recycled payload of one echo exchange: it rides the
// request-arrival event (runEcho) and, if the reply survives, the
// reply-arrival event (runCapture).
type flight struct {
	p      *Prober
	seq    uint64
	target topology.NodeID
	dest   topology.NodeID
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
	res := p.plane.Forward(f.target, p.ReplyTo)
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
	p := f.p
	p.Capture.Add(CaptureEntry{
		Time:   p.plane.sim.Now(),
		Seq:    f.seq,
		Target: f.target,
		Site:   f.dest,
	})
	p.freeFlight(f)
}

// SentRecord logs one emitted echo request.
type SentRecord struct {
	Seq    uint64
	Target topology.NodeID
	Time   float64
}

// NewProber builds a prober bound to a plane.
func NewProber(plane *Plane, from topology.NodeID, replyTo netip.Addr) *Prober {
	return &Prober{plane: plane, From: from, ReplyTo: replyTo, Capture: &Capture{}}
}

// Reserve presizes the sent log and the capture for n further echo
// requests, so a paper-scale probing campaign (hundreds of thousands of
// pings) fills preallocated logs instead of growing them.
func (p *Prober) Reserve(n int) {
	if cap(p.Sent)-len(p.Sent) < n {
		grown := make([]SentRecord, len(p.Sent), len(p.Sent)+n)
		copy(grown, p.Sent)
		p.Sent = grown
	}
	p.Capture.Reserve(n)
}

// Ping sends one echo request to target now. The request travels the stable
// forward path (static latency); the reply is routed by the live FIBs at
// reply time. Lost replies produce no capture entry, mirroring a missing
// sequence number in the paper's traces. It returns the sequence number
// used.
func (p *Prober) Ping(target topology.NodeID) uint64 {
	p.seq++
	seq := p.seq
	fwd := p.plane.StaticDelay(p.From, target)
	sim := p.plane.sim
	p.Sent = append(p.Sent, SentRecord{Seq: seq, Target: target, Time: sim.Now()})
	if p.LossRate > 0 && sim.Rand().Float64() < p.LossRate {
		return seq // request lost in flight
	}
	f := p.newFlight()
	f.p, f.seq, f.target = p, seq, target
	sim.AtCall(sim.Now()+fwd, runEcho, f)
	return seq
}

// PingEvery schedules pings to target at the given interval until deadline
// (inclusive start, exclusive deadline), matching the paper's ~1.5 s probing
// cadence for ~600 s after a failure. A non-positive interval panics: the
// tick would re-arm at the current instant forever, which is always a caller
// bug (compare Sim.After on a negative delay).
func (p *Prober) PingEvery(target topology.NodeID, interval, duration float64) {
	if !(interval > 0) {
		panic(fmt.Sprintf("dataplane: PingEvery interval %v is not positive", interval))
	}
	sim := p.plane.sim
	deadline := sim.Now() + duration
	var tick func()
	tick = func() {
		if sim.Now() >= deadline {
			return
		}
		p.Ping(target)
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
