// Package tally folds what a prober hears from one target into the few
// numbers the paper's failover metrics read (§5.2, §5.4.1), as it hears it,
// instead of logging every probe and reply.
//
// Each metric is a reading of two logs: the probes in emission order and the
// replies in arrival order. Reconnection, bounces and the final site read
// arrival order; gaps and the stable failover suffix walk emission order and
// ask of each probe whether its reply has arrived; a window of emission times
// asks both. A reply routed to a nearer site can overtake an earlier one, so
// the two orders differ, and a reply still in flight leaves its probe
// unanswered until it lands. A Target keeps only what those readings need:
// a few words, one cell per window, and one flight per probe whose reply has
// not landed — the only reorder buffer.
package tally

import (
	"fmt"
	"math"
	"slices"

	"bestofboth/internal/topology"
)

// Outcome is what one target's probes came to at one instant: what its
// probe and reply logs would say if they had been kept.
type Outcome struct {
	// Sent counts the probes emitted, Answered those whose reply arrived.
	Sent, Answered int
	// First is the arrival time of the earliest reply and Final the node
	// where the latest arrived; Switches counts replies, in arrival order,
	// that arrived at another node than the one before. Replies that arrive
	// at one instant count in emission order. Meaningful when Answered > 0.
	First    float64
	Final    topology.NodeID
	Switches int
	// Gaps counts runs of unanswered probes, in emission order, that follow
	// an answered one.
	Gaps int
	// Stable reports that the last probe sent was answered. Since is then
	// the arrival time of the reply to the first probe of the longest
	// suffix of emission order answered at one node.
	Stable bool
	Since  float64
}

// Window is what the probes emitted in one window [from, to) came to at one
// instant.
type Window struct {
	Sent, Answered int
	// Lost reports a probe emitted in the window and unanswered; LostAt is
	// the emission time of the first.
	Lost   bool
	LostAt float64
	// Reconnected reports a reply, to any probe, that arrived at or after
	// LostAt; ReconnectedAt is the arrival time of the earliest.
	Reconnected   bool
	ReconnectedAt float64
	// Landed reports a reply that arrived within [from, to); Site is where
	// the latest did.
	Landed bool
	Site   topology.NodeID
}

// Target folds the probes to one target. Its caller drives it in time
// order:
//   - Send files a probe, no earlier than the one before; every probe whose
//     echo falls before it must be resolved first.
//   - Next names the oldest probe awaiting its echo; Lose or Reply resolves
//     it, in emission order.
//   - Land folds the replies that arrived by now. Every probe still awaiting
//     its echo must reply at or after now, and none may be sent before now.
//
// Outcome and Window read the replies landed so far: Land first.
type Target struct {
	edges []float64
	cells []cell // cells[i] is the window [edges[i], edges[i+1])
	// wait is the first cell that may await its reconnection, or len(cells).
	wait int
	// The edges at or before the last probe sent and the last reply landed:
	// both ascend.
	sentEdges, landEdges int

	sent, answered int
	// Arrival order: the first and the latest reply landed, where the latest
	// arrived, and how often that changed.
	first, last float64
	site        topology.NodeID
	switches    int

	// Emission order: the settled probes before the first probe whose reply
	// has not landed; those flights, each after it with the settled probes
	// between it and the one before; and the settled probes after the last
	// (none while nothing flies). flights[:echoed] hold replies in flight,
	// the rest await their echo.
	done    stretch
	flights []flight
	echoed  int
	tail    stretch
}

// flight is a probe whose reply has not landed.
type flight struct {
	sent   float64
	arrive float64 // once echoed: when its reply arrives, and where
	// after is the arrival time of the first reply landed at or after sent,
	// +Inf while there is none: the reconnection of a window whose first
	// unanswered probe this is.
	after  float64
	seq    uint32
	cell   int32 // the cell it was sent in, or -1
	site   topology.NodeID
	before stretch
}

// cell is the fold of one window between consecutive edges.
type cell struct {
	sent, answered int32
	// lost is the emission time of the first probe found lost, and recon the
	// arrival time of the first reply landed at or after it; +Inf for none.
	lost, recon float64
	landed      bool
	site        topology.NodeID // where the latest reply arriving in the cell landed
}

var inf = math.Inf(1)

// New returns the fold of one target's probes, with a window between every
// two consecutive edges; edges must ascend strictly and is not copied.
func New(edges []float64) *Target {
	for i := 1; i < len(edges); i++ {
		if !(edges[i-1] < edges[i]) {
			panic(fmt.Sprintf("tally: edges %v do not ascend", edges))
		}
	}
	t := &Target{edges: edges, flights: make([]flight, 0, 2)}
	if len(edges) > 1 {
		t.cells = make([]cell, len(edges)-1)
		for i := range t.cells {
			t.cells[i].lost, t.cells[i].recon = inf, inf
		}
	}
	t.wait = len(t.cells)
	return t
}

// cellOf returns the cell holding instant x, or -1, given *passed, the
// number of edges at or before an instant no later than x; it moves
// *passed up to x.
func (t *Target) cellOf(passed *int, x float64) int32 {
	i := *passed
	for i < len(t.edges) && t.edges[i] <= x {
		i++
	}
	*passed = i
	if i == 0 || i > len(t.cells) {
		return -1
	}
	return int32(i - 1)
}

// Send files probe seq, emitted at instant at, after landing the replies
// that arrived by then.
func (t *Target) Send(seq uint32, at float64) {
	switch {
	case t.echoed == 1 && len(t.flights) == 1 && t.tail.n == 0 && t.flights[0].arrive <= at:
		// The usual case, a cadence slower than the round trip: the one
		// reply in flight has landed, and nothing else is in the air.
		t.fold(0)
		t.flights, t.echoed = t.flights[:0], 0
	case t.echoed > 0:
		t.Land(at)
	}
	n := len(t.flights)
	t.flights = append(t.flights, flight{})
	f := &t.flights[n]
	f.seq, f.cell, f.sent, f.after = seq, t.cellOf(&t.sentEdges, at), at, inf
	if t.answered > 0 && t.last >= at { // landed at this very instant
		f.after = t.last
	}
	if n > 0 {
		f.before, t.tail = t.tail, stretch{}
	}
	t.sent++
	if f.cell >= 0 {
		t.cells[f.cell].sent++
	}
}

// Next returns the oldest probe awaiting its echo: its sequence number and
// emission time.
func (t *Target) Next() (seq uint32, sent float64, ok bool) {
	if t.echoed == len(t.flights) {
		return 0, 0, false
	}
	f := &t.flights[t.echoed]
	return f.seq, f.sent, true
}

// Lose resolves the oldest probe awaiting its echo: it will never be
// answered.
func (t *Target) Lose() {
	f := &t.flights[t.echoed]
	if f.cell >= 0 {
		if c := &t.cells[f.cell]; c.lost == inf {
			c.lost, c.recon = f.sent, f.after
			if c.recon == inf {
				t.wait = min(t.wait, int(f.cell))
			}
		}
	}
	t.before(t.echoed).lose()
	t.settle(t.echoed)
}

// Reply resolves the oldest probe awaiting its echo: its reply arrives at
// instant arrive, no earlier than the probe was sent, at node site.
func (t *Target) Reply(arrive float64, site topology.NodeID) {
	f := &t.flights[t.echoed]
	f.arrive, f.site = arrive, site
	t.echoed++
}

// Land folds every reply that arrived by now, in arrival order.
func (t *Target) Land(now float64) {
	for {
		k := -1
		for i := range t.flights[:t.echoed] {
			if a := t.flights[i].arrive; a <= now && (k < 0 || a < t.flights[k].arrive) {
				k = i
			}
		}
		if k < 0 {
			return
		}
		t.land(k)
	}
}

// land folds the reply of flights[k] and retires the flight: no reply not
// yet landed arrives before it, nor at its instant in front of it.
func (t *Target) land(k int) {
	t.fold(k)
	arrive := t.flights[k].arrive
	for i := range t.flights {
		if g := &t.flights[i]; g.after == inf && g.sent <= arrive {
			g.after = arrive
		}
	}
	t.settle(k)
}

// fold folds the reply of flights[k] into arrival order, the cells, and
// the stretch before the flight.
func (t *Target) fold(k int) {
	f := &t.flights[k]
	if t.answered == 0 {
		t.first = f.arrive
	} else if f.site != t.site {
		t.switches++
	}
	t.answered++
	t.last, t.site = f.arrive, f.site
	if f.cell >= 0 {
		t.cells[f.cell].answered++
	}
	if c := t.cellOf(&t.landEdges, f.arrive); c >= 0 {
		t.cells[c].landed, t.cells[c].site = true, f.site
	}
	if t.wait < len(t.cells) {
		next := len(t.cells)
		for i := t.wait; i < len(t.cells); i++ {
			if c := &t.cells[i]; c.lost != inf && c.recon == inf {
				if c.lost <= f.arrive {
					c.recon = f.arrive
				} else if next == len(t.cells) {
					next = i
				}
			}
		}
		t.wait = next
	}
	t.before(k).answer(f.arrive, f.site)
}

// before returns the settled stretch just before flights[k].
func (t *Target) before(k int) *stretch {
	if k == 0 {
		return &t.done
	}
	return &t.flights[k].before
}

// settle retires flights[k], whose fate the stretch before it now ends
// with: that stretch and the one after the flight become one.
func (t *Target) settle(k int) {
	next := &t.tail
	if k+1 < len(t.flights) {
		next = &t.flights[k+1].before
	}
	if k > 0 {
		*next = join(t.flights[k].before, *next)
	} else if next.n > 0 {
		t.done, *next = join(t.done, *next), stretch{}
	}
	t.flights = append(t.flights[:k], t.flights[k+1:]...)
	if k < t.echoed {
		t.echoed--
	}
}

// Answered returns how many replies have landed.
func (t *Target) Answered() int { return t.answered }

// Outcome reads the fold as the logs would stand.
func (t *Target) Outcome() Outcome {
	o := Outcome{Sent: t.sent, Answered: t.answered, First: t.first, Final: t.site, Switches: t.switches}
	s := t.done
	for i := range t.flights {
		s = join(s, t.flights[i].before)
		s.lose() // unanswered so far
	}
	s = join(s, t.tail)
	o.Gaps, o.Stable = int(s.falls), s.tail
	if s.tail {
		o.Since = s.since
	}
	return o
}

// Window reads the probes emitted in [from, to). Unless from >= to (an
// empty window), from and to must be edges.
func (t *Target) Window(from, to float64) Window {
	var w Window
	if !(from < to) {
		return w
	}
	i, okFrom := slices.BinarySearch(t.edges, from)
	j, okTo := slices.BinarySearch(t.edges, to)
	if !okFrom || !okTo {
		panic(fmt.Sprintf("tally: window [%v, %v) is not bounded by edges %v", from, to, t.edges))
	}
	recon := inf
	for _, c := range t.cells[i:j] {
		w.Sent += int(c.sent)
		w.Answered += int(c.answered)
		if c.landed {
			w.Landed, w.Site = true, c.site
		}
		if !w.Lost && c.lost != inf {
			w.Lost, w.LostAt, recon = true, c.lost, c.recon
		}
	}
	// The first probe of the window still in flight is unanswered too.
	for _, f := range t.flights {
		if f.sent >= from && f.sent < to {
			if !w.Lost || f.sent < w.LostAt {
				w.Lost, w.LostAt, recon = true, f.sent, f.after
			}
			break
		}
	}
	if recon != inf {
		w.Reconnected, w.ReconnectedAt = true, recon
	}
	return w
}

// stretch sums up consecutive probes, in emission order, whose fate is
// settled; join is associative, so stretches add up in any grouping.
type stretch struct {
	// The closing run: the longest suffix answered at one node (when tail),
	// the arrival time of the reply to its first probe and where its replies
	// arrived; whole when it spans the stretch.
	since      float64
	site       topology.NodeID
	n          int32 // probes
	falls      int32 // answered probes followed by an unanswered one
	head, tail bool  // the first and the last probe were answered
	whole      bool
}

// answer appends a probe answered by a reply that arrived at instant
// arrive, at node site.
func (s *stretch) answer(arrive float64, site topology.NodeID) {
	switch {
	case s.n == 0:
		*s = stretch{since: arrive, site: site, n: 1, head: true, tail: true, whole: true}
		return
	case !s.tail || s.site != site:
		s.since, s.site, s.whole = arrive, site, false
	}
	s.n++
	s.tail = true
}

// lose appends an unanswered probe.
func (s *stretch) lose() {
	if s.tail {
		s.falls++
	}
	s.n++
	s.tail, s.whole = false, false
}

func join(a, b stretch) stretch {
	switch {
	case a.n == 0:
		return b
	case b.n == 0:
		return a
	}
	s := b
	s.n += a.n
	s.head = a.head
	s.falls += a.falls
	if a.tail && !b.head {
		s.falls++
	}
	if b.whole && a.tail && a.site == b.site {
		s.since, s.whole = a.since, a.whole
	} else {
		s.whole = false
	}
	return s
}
