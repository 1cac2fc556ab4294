package dataplane

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"sort"

	"bestofboth/internal/tally"
	"bestofboth/internal/topology"
)

// seqOverflow is the panic of a prober asked for a probe past the last
// sequence number a uint32 holds: 2^32 - 1 probes, some 200 years of one
// target at the paper's cadence. Wrapping would alias two probes' replies.
const seqOverflow = "dataplane: prober sequence numbers exhausted"

// Prober issues Verfploeter-style echo requests: probes are sent from a
// prober node with a spoofed source address inside the prefix under study,
// so replies reveal which site that prefix currently routes to from each
// target (§5.2).
//
// A prober observes and never acts, so it schedules nothing. PingEvery
// records what to send; Outcome, Window, Sent and Answered bring the
// prober up to the simulation's clock first: probes are emitted in the order
// a calendar of ticks would have fired them, and each echo at instant E is
// answered by walking the FIBs as the plane's journal says they stood at E
// (see watch for the same-instant rule). The walk's answer is reused for the
// target until the journal has a hop of that path change. Because nothing is
// scheduled, Sim.Run does not wait for a campaign: advance the clock with
// RunUntil. All of it is control context — between RunUntil calls or inside
// an event of the plane's own simulator — where every FIB change stamped up
// to now has been journaled.
//
// Nothing is logged per probe: each target's echoes are folded as they are
// answered (see tally), so a campaign costs the same bytes however long it
// runs.
type Prober struct {
	plane *Plane
	// From is the node probes are emitted from (a healthy CDN site).
	From topology.NodeID
	// ReplyTo is the source address carried in requests; targets address
	// replies to it.
	ReplyTo netip.Addr
	// LossRate drops each request or reply independently with this
	// probability, modeling random loss and ICMP rate limiting (the §5.3
	// concern). Each decision is a pure function of the run's seed, From,
	// ReplyTo, the probe's Seq and the leg, so a lossy run is the same BGP
	// execution as the lossless one.
	LossRate float64
	// Edges are the ascending instants that bound the windows Window reads:
	// [Edges[i], Edges[j]) for i < j. From, ReplyTo, LossRate and Edges are
	// read from the first probe on; set them before PingEvery.
	Edges []float64

	watch    *watch // the journal for ReplyTo, registered by the first probe
	lossKey  uint64
	seq      uint32
	answered int
	targets  map[topology.NodeID]*target
	order    []*target // targets in first-use order: what a read walks
	// due holds the running campaigns from head on, sorted by less: the
	// order their next ticks would fire in. It holds no pointers, so rotating
	// it costs the collector nothing.
	due  []campaign
	head int
	// fresh says nothing was asked of the prober since it was last brought
	// up to syncedAt.
	fresh    bool
	syncedAt float64
}

// target is one target's fold and the evaluation state behind it.
type target struct {
	*tally.Target
	id    topology.NodeID
	index int32   // position in Prober.order
	fwd   float64 // static delay From → target: an echo happens fwd after its probe
	// An echo before until is answered by res, the last walk's result.
	res   ForwardResult
	until float64
}

// campaign is one PingEvery: next is the accumulated sum a chain of ticks
// would compute (not start + k·interval), and the campaign ends when that
// sum reaches deadline.
type campaign struct {
	target                   int32 // index into Prober.order
	next, interval, deadline float64
	prev                     uint32 // Seq of this campaign's previous probe
}

// less orders campaigns as a calendar would fire their ticks: by instant,
// and at one instant the campaign whose previous probe went out first (each
// tick schedules its successor, so ticks tie-break in the order their
// predecessors ran). Campaigns that tie on both — registered at one instant,
// nothing emitted yet — keep registration order.
func (c *campaign) less(o *campaign) bool {
	return c.next < o.next || (c.next == o.next && c.prev < o.prev)
}

// NewProber builds a prober bound to a plane.
func NewProber(plane *Plane, from topology.NodeID, replyTo netip.Addr) *Prober {
	return &Prober{plane: plane, From: from, ReplyTo: replyTo, targets: make(map[topology.NodeID]*target)}
}

// Outcome returns what the probes to target came to up to now, or false for
// a target the prober was never asked to ping.
func (p *Prober) Outcome(target topology.NodeID) (tally.Outcome, bool) {
	tg := p.targets[target]
	if tg == nil {
		return tally.Outcome{}, false
	}
	p.sync()
	return tg.Outcome(), true
}

// Window returns what the probes to target emitted in [from, to) came to up
// to now. Unless from >= to, from and to must be Edges.
func (p *Prober) Window(target topology.NodeID, from, to float64) tally.Window {
	tg := p.targets[target]
	if tg == nil {
		return tally.Window{}
	}
	p.sync()
	return tg.Window(from, to)
}

// Sent returns the number of echo requests emitted up to now, lost ones
// included.
func (p *Prober) Sent() int {
	p.sync()
	return int(p.seq)
}

// Answered returns the number of replies captured up to now.
func (p *Prober) Answered() int {
	p.sync()
	return p.answered
}

// target returns id's state, starting its fold — and, for the prober's
// first target, the plane's journal for ReplyTo — on first use.
func (p *Prober) target(id topology.NodeID) *target {
	tg := p.targets[id]
	if tg == nil {
		if p.watch == nil {
			p.watch = p.plane.watch(p.ReplyTo)
			p.lossKey = lossKey(p.plane.sim.Seed(), p.From, p.ReplyTo)
		}
		tg = &target{Target: tally.New(p.Edges), id: id, index: int32(len(p.order)), fwd: p.plane.StaticDelay(p.From, id), until: math.Inf(-1)}
		p.targets[id] = tg
		p.order = append(p.order, tg)
	}
	return tg
}

// ping sends one echo request to target now, after every campaign probe due
// by now. The request travels the stable forward path (static latency); the
// reply is routed by the FIBs as they stand when the target answers. A lost
// reply leaves the probe unanswered, mirroring a missing sequence number in
// the paper's traces. It returns the sequence number used.
func (p *Prober) ping(target topology.NodeID) uint32 {
	tg := p.target(target)
	now := p.plane.sim.Now()
	p.emit(now)
	p.fresh = false
	return p.probe(tg, now)
}

// PingEvery pings target at the given interval until deadline (inclusive
// start, exclusive deadline), matching the paper's ~1.5 s probing cadence for
// ~600 s after a failure. A non-positive interval panics: the campaign would
// never leave the current instant, which is always a caller bug (compare
// Sim.After on a negative delay).
func (p *Prober) PingEvery(target topology.NodeID, interval, duration float64) {
	if !(interval > 0) {
		panic(fmt.Sprintf("dataplane: PingEvery interval %v is not positive", interval))
	}
	tg := p.target(target)
	// The first probe is due now, after everything already due by now: a
	// campaign started between two RunUntil calls finds the ticks of this
	// instant fired.
	now := p.plane.sim.Now()
	p.emit(now)
	if c := (campaign{target: tg.index, next: now, interval: interval, deadline: now + duration, prev: p.seq}); !(c.next >= c.deadline) {
		p.enqueue(c)
		p.fresh = false
	}
}

// enqueue files a campaign by its next tick. Campaigns of one cadence, the
// usual case, rotate: the one that just ticked goes last.
func (p *Prober) enqueue(c campaign) {
	if n := len(p.due); n == p.head || !c.less(&p.due[n-1]) {
		p.due = append(p.due, c)
		return
	}
	live := p.due[p.head:]
	i := p.head + sort.Search(len(live), func(k int) bool { return c.less(&live[k]) })
	p.due = append(p.due, campaign{})
	copy(p.due[i+1:], p.due[i:])
	p.due[i] = c
}

// emit sends every campaign probe due by now, in tick order.
func (p *Prober) emit(now float64) {
	for p.head < len(p.due) && p.due[p.head].next <= now {
		c := p.due[p.head]
		p.head++
		c.prev = p.probe(p.order[c.target], c.next)
		c.next += c.interval
		if !(c.next >= c.deadline) {
			p.enqueue(c)
		}
		if p.head >= len(p.due)-p.head { // the spent prefix is half the queue: slide the rest down
			p.due = p.due[:copy(p.due, p.due[p.head:])]
			p.head = 0
		}
	}
}

// probe emits one echo request to tg at instant at. The target's echoes
// before at are answered first, so its fold holds at most the probes whose
// replies are still in flight.
func (p *Prober) probe(tg *target, at float64) uint32 {
	if p.seq == math.MaxUint32 {
		panic(seqOverflow)
	}
	p.seq++
	p.answer(tg, at, false)
	tg.Send(p.seq, at)
	p.plane.m.probes.Inc()
	return p.seq
}

// sync brings the prober up to the simulation's clock: campaign probes due
// by now are emitted, every echo due by now is answered, and the replies that
// have arrived by now are landed.
func (p *Prober) sync() {
	now := p.plane.sim.Now()
	if p.fresh && now == p.syncedAt {
		return
	}
	p.emit(now)
	answered := 0
	for _, tg := range p.order {
		p.answer(tg, now, true)
		tg.Land(now)
		answered += tg.Answered()
	}
	p.plane.m.answered.Add(uint64(answered - p.answered))
	p.fresh, p.syncedAt, p.answered = true, now, answered
}

// answer resolves tg's echoes, in emission order, that happen before by — or
// at by, when through says every FIB change of that instant is journaled. A
// reply is addressed to ReplyTo and walks the FIBs as they stood at the
// echo's instant.
func (p *Prober) answer(tg *target, by float64, through bool) {
	now := p.plane.sim.Now()
	for {
		seq, sent, ok := tg.Next()
		if !ok {
			return
		}
		at := sent + tg.fwd
		if at > by || (at == by && !through) {
			return
		}
		if p.LossRate > 0 && (lost(p.lossKey, uint64(seq), legRequest, p.LossRate) || lost(p.lossKey, uint64(seq), legReply, p.LossRate)) {
			tg.Lose() // lost in flight, or rate-limited at the target
			continue
		}
		if !(at < tg.until) {
			p.plane.m.walks.Inc()
			tg.res, tg.until = p.plane.walk(p.watch, at, tg.id, p.watch.covers, nil)
			// The journal is complete only up to now, and a change stamped
			// now may yet be filed: echoes from now on walk again.
			tg.until = min(tg.until, now)
		}
		if !tg.res.Delivered {
			tg.Lose()
			continue
		}
		tg.Reply(at+tg.res.Delay, tg.res.Dest)
	}
}

// The two legs of an echo exchange a loss decision is drawn for.
const (
	legRequest = iota
	legReply
)

// splitmix64 is the finalizer of Steele, Lea and Flood's SplitMix generator:
// a stateless bijective mixer of 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lossKey folds what identifies a prober within a run into one word.
func lossKey(seed int64, from topology.NodeID, replyTo netip.Addr) uint64 {
	a := replyTo.As16()
	k := splitmix64(uint64(seed))
	k = splitmix64(k ^ uint64(from))
	k = splitmix64(k ^ binary.BigEndian.Uint64(a[:8]))
	return splitmix64(k ^ binary.BigEndian.Uint64(a[8:]))
}

// lost decides whether one leg of probe seq is dropped at the given rate. It
// draws from no stream, so neither the order probes are evaluated in nor the
// BGP jitter interleaved with them can change a decision.
func lost(key, seq uint64, leg uint64, rate float64) bool {
	u := splitmix64(splitmix64(key^seq) ^ leg)
	return float64(u>>11)/(1<<53) < rate
}

// RTT measures the current round-trip time from the prober's site to the
// target and back to ReplyTo, returning ok=false if the reply path is
// broken. It inspects FIBs instantaneously, which is how the harness computes
// the ≤50 ms site-proximity filter of §5.1.
func (p *Prober) RTT(target topology.NodeID) (float64, bool) {
	res := p.plane.Forward(target, p.ReplyTo)
	if !res.Delivered {
		return 0, false
	}
	return p.plane.StaticDelay(p.From, target) + res.Delay, true
}
