// Package dataplane simulates packet forwarding over the FIBs produced by
// the BGP layer.
//
// Every node keeps a longest-prefix-match FIB that tracks its BGP loc-RIB
// in real time. Packets are forwarded hop by hop through these FIBs, so a
// packet in flight during route convergence experiences exactly the
// pathologies the paper measures: blackholes at routers whose best route was
// withdrawn, transient forwarding loops during path exploration, and
// deliveries to different CDN sites as catchments shift.
//
// The prober reproduces the paper's Verfploeter-style methodology (§5.2):
// echo requests are sent from a healthy site with a source address inside
// the prefix under study, and the replies are routed by the FIBs as they
// stand when the target answers to whichever site then attracts that prefix,
// where a capture log records them. The prober is an observer, so it puts
// nothing on the simulation's calendar: the plane journals the FIB changes
// that cover a probed address (see watch) and the prober evaluates its
// schedule against that journal when its traces are read (see Prober).
package dataplane

import (
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"bestofboth/internal/bgp"
	"bestofboth/internal/iptrie"
	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// MaxHops bounds forwarding walks, standing in for the IP TTL.
const MaxHops = 64

// fibEntry is one FIB slot: either local delivery or a next hop.
type fibEntry struct {
	local bool
	next  topology.NodeID
	delay float64 // one-way link delay to next, seconds
}

// DropReason explains why a packet was not delivered.
type DropReason int8

const (
	// DropNone means the packet was delivered.
	DropNone DropReason = iota
	// DropNoRoute means some router had no FIB entry for the destination.
	DropNoRoute
	// DropLoop means the packet exceeded MaxHops (forwarding loop).
	DropLoop
	// DropNodeDown means the packet reached a failed node.
	DropNodeDown
)

// String names the drop reason.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "delivered"
	case DropNoRoute:
		return "no-route"
	case DropLoop:
		return "loop"
	case DropNodeDown:
		return "node-down"
	default:
		return fmt.Sprintf("DropReason(%d)", int8(d))
	}
}

// ForwardResult describes one forwarding walk.
type ForwardResult struct {
	Delivered bool
	Reason    DropReason
	// Dest is the node that locally delivered the packet (valid when
	// Delivered).
	Dest topology.NodeID
	// Delay is the accumulated one-way latency in seconds over the hops
	// actually traversed.
	Delay float64
	// Path lists the nodes traversed, starting at the source. Populated
	// only by ForwardTrace; Forward leaves it nil so the hot probing paths
	// stay allocation-free.
	Path []topology.NodeID
}

// Plane is the data plane bound to a BGP network. Create it before any
// routes are originated so no FIB updates are missed.
//
// FIBs are shared copy-on-write between a plane, the snapshots taken of it
// and every plane restored from them. fibs[i] is node i's trie, nil while
// the node has never had a route; frozen[i] is the trie some snapshot holds
// for the node. While the two are the same pointer the trie is read-only
// here, and onBestChange clones it (one slab copy) before the first write —
// on the plane the snapshot was taken of exactly as on a restored one. A
// Figure 2 run rewrites the FIBs its one fault reaches and forwards through
// the snapshot's for all the rest.
//
// The journal follows the same ownership rule as fibs[node]: onBestChange
// runs on the changing node's shard goroutine and writes only that node's
// slot of every watch, stamped with that shard's clock; the watch list
// itself, the failure flags and every read of the journal belong to control
// context, where all shards are parked at one instant.
type Plane struct {
	net    *bgp.Network       //cdnlint:nosnapshot wiring: the network this plane subscribed to at construction
	topo   *topology.Topology //cdnlint:nosnapshot immutable wiring; restore targets a plane built over the same topology
	sim    *netsim.Sim        //cdnlint:nosnapshot wiring: the kernel snapshots itself
	fibs   []*iptrie.Trie[fibEntry]
	frozen []*iptrie.Trie[fibEntry]
	down   []bool
	// watches journal, per probed address, how each node's forwarding state
	// for it changed.
	watches []*watch //cdnlint:nosnapshot the journal of one run, kept for its probers; Restore starts an empty one

	// static shortest-path delay cache per source node (seconds).
	staticDelay map[topology.NodeID][]float64 //cdnlint:nosnapshot cache: a pure function of the immutable topology, refilled on demand

	// Metrics are nil until Instrument attaches a registry (nil-safe).
	m struct {
		lookups   *obs.Counter
		updates   *obs.Counter
		forwards  *obs.Counter
		delivered *obs.Counter
		dropped   *obs.Counter
		probes    *obs.Counter
		answered  *obs.Counter
		walks     *obs.Counter
	}
}

// fibState is what one node does, from instant at on, with a packet for a
// watched address: drop it because the node is down, or apply the FIB entry
// that covers the address (ok false: no route). The entry is spelled out
// field by field to keep a state at 24 bytes.
type fibState struct {
	at    float64
	delay float64
	next  topology.NodeID
	down  bool
	ok    bool
	local bool
}

// same reports whether two states forward alike, whenever they took effect.
func (a fibState) same(b fibState) bool {
	a.at = b.at
	return a == b
}

// watch is the journal for one probed address. hist[node] is empty while the
// node's state for the address has not changed since the watch was
// registered, so the live FIB still answers for every instant since; the
// first change that makes a difference files the pre-change state as a
// baseline stamped -Inf, and it and every later one append the new state
// with its time, in ascending order. A walk at instant E reads, per hop, the
// last state stamped <= E: a change at the very instant of an echo is
// visible to it, which is the calendar's order for every tie a timeline can
// construct (DESIGN.md §7).
type watch struct {
	addr netip.Addr
	hist [][]fibState
}

// watch returns the journal for addr, starting it on first use. Control
// context only.
func (p *Plane) watch(addr netip.Addr) *watch {
	for _, w := range p.watches {
		if w.addr == addr {
			return w
		}
	}
	w := &watch{addr: addr, hist: make([][]fibState, len(p.fibs))}
	p.watches = append(p.watches, w)
	return w
}

// concerns reports whether a change to prefix in some FIB can change the
// entry covering the watched address. The zero prefix stands for a node's
// failure flag, which concerns every watch.
func (w *watch) concerns(prefix netip.Prefix) bool {
	return !prefix.IsValid() || prefix.Contains(w.addr)
}

// states appends node's live state for every watch prefix concerns.
func (p *Plane) states(buf []fibState, node topology.NodeID, prefix netip.Prefix) []fibState {
	for _, w := range p.watches {
		if w.concerns(prefix) {
			buf = append(buf, p.state(node, w.addr))
		}
	}
	return buf
}

// state reads what node does right now with a packet for addr.
func (p *Plane) state(node topology.NodeID, addr netip.Addr) fibState {
	st := p.lookup(node, addr)
	st.down = p.down[node]
	return st
}

// lookup reads what node's FIB does with a packet for addr; the failure
// flag is the caller's to add.
func (p *Plane) lookup(node topology.NodeID, addr netip.Addr) (st fibState) {
	p.m.lookups.Inc()
	if fib := p.fibs[node]; fib != nil {
		var e fibEntry
		_, e, st.ok = fib.Lookup(addr)
		st.local, st.next, st.delay = e.local, e.next, e.delay
	}
	return st
}

// journal files a change to node's forwarding state, made at instant at,
// with every watch prefix concerns; pre is what states returned just before
// the change. A change that leaves a watch's state as it was files nothing.
func (p *Plane) journal(node topology.NodeID, prefix netip.Prefix, pre []fibState, at float64) {
	for _, w := range p.watches {
		if !w.concerns(prefix) {
			continue
		}
		was, is := pre[0], p.state(node, w.addr)
		pre = pre[1:]
		if is.same(was) {
			continue
		}
		h := w.hist[node]
		if h == nil {
			was.at = math.Inf(-1)
			h = append(make([]fibState, 0, 4), was) // room for the two or three changes of one fault
		}
		is.at = at
		w.hist[node] = append(h, is)
	}
}

// New builds the data plane and subscribes to FIB updates. No trie exists
// until a node's first route arrives.
func New(net *bgp.Network) *Plane {
	topo := net.Topology()
	p := &Plane{
		net:         net,
		topo:        topo,
		sim:         net.Sim(),
		fibs:        make([]*iptrie.Trie[fibEntry], topo.Len()),
		frozen:      make([]*iptrie.Trie[fibEntry], topo.Len()),
		down:        make([]bool, topo.Len()),
		staticDelay: make(map[topology.NodeID][]float64),
	}
	net.OnBestChange(p.onBestChange)
	return p
}

// Snapshot is an immutable capture of a plane's forwarding state: every
// node's FIB and failure flag. The tries are shared, not copied; see Plane.
type Snapshot struct {
	fibs []*iptrie.Trie[fibEntry]
	down []bool
}

// Snapshot captures the plane's FIBs and failure flags. It copies no trie:
// the current ones become frozen, so this plane too clones before it next
// writes one. The snapshot may be restored into any number of planes,
// concurrently.
func (p *Plane) Snapshot() *Snapshot {
	copy(p.frozen, p.fibs)
	return &Snapshot{fibs: slices.Clone(p.fibs), down: slices.Clone(p.down)}
}

// Restore installs a snapshot into a plane built over the same topology:
// two pointer-array copies and the flags. The restored plane forwards
// through the snapshot's tries until its own routes change. Its journal
// starts empty, so a prober does not survive a Restore of its plane.
func (p *Plane) Restore(snap *Snapshot) error {
	if len(snap.fibs) != len(p.fibs) {
		return fmt.Errorf("dataplane: snapshot has %d nodes, plane has %d", len(snap.fibs), len(p.fibs))
	}
	copy(p.fibs, snap.fibs)
	copy(p.frozen, snap.fibs)
	copy(p.down, snap.down)
	p.watches = nil
	return nil
}

// Instrument attaches forwarding metrics to r: FIB rebuild operations
// (best-route changes applied), per-hop FIB lookups, forwarding walks split
// by outcome, and what the probers on this plane did: echo requests sent,
// replies captured, and the walks those took (a prober reuses a walk's
// answer until a FIB on its path changes, so walks <= probes sent). Pure
// counting; never perturbs forwarding. A nil registry detaches.
func (p *Plane) Instrument(r *obs.Registry) {
	p.m.lookups = r.Counter("dataplane_fib_lookups_total")
	p.m.updates = r.Counter("dataplane_fib_updates_total")
	p.m.forwards = r.Counter("dataplane_forwards_total")
	p.m.delivered = r.Counter("dataplane_forwards_delivered_total")
	p.m.dropped = r.Counter("dataplane_forwards_dropped_total")
	p.m.probes = r.Counter("dataplane_probes_sent_total")
	p.m.answered = r.Counter("dataplane_probes_answered_total")
	p.m.walks = r.Counter("dataplane_probe_walks_total")
}

func (p *Plane) onBestChange(node topology.NodeID, prefix netip.Prefix, route *bgp.Route, sess int, at netsim.Seconds) {
	p.m.updates.Inc()
	if len(p.watches) == 0 {
		p.install(node, prefix, route, sess)
		return
	}
	var buf [4]fibState
	pre := p.states(buf[:0], node, prefix)
	p.install(node, prefix, route, sess)
	p.journal(node, prefix, pre, at)
}

// install writes one best-route change into node's FIB: route learned on
// session sess, -1 for a local origination.
func (p *Plane) install(node topology.NodeID, prefix netip.Prefix, route *bgp.Route, sess int) {
	fib := p.fibs[node]
	switch {
	case fib == nil:
		fib = iptrie.New[fibEntry]()
		p.fibs[node] = fib
	case fib == p.frozen[node]:
		fib = fib.Clone()
		p.fibs[node] = fib
	}
	if route == nil {
		fib.Delete(prefix)
		return
	}
	if sess < 0 {
		fib.Insert(prefix, fibEntry{local: true})
		return
	}
	adj := p.topo.Node(node).Adj[sess]
	fib.Insert(prefix, fibEntry{next: adj.To, delay: adj.Delay})
}

// SetDown marks a node as failed (true) or healthy (false). Packets
// reaching a failed node are dropped; its FIB remains intact so the control
// plane model (explicit withdrawals) stays in charge of route removal,
// matching how the paper emulates failures by withdrawing announcements.
func (p *Plane) SetDown(node topology.NodeID, down bool) {
	var buf [4]fibState
	pre := p.states(buf[:0], node, netip.Prefix{})
	p.down[node] = down
	// Control context: every shard clock reads what the plane's does.
	p.journal(node, netip.Prefix{}, pre, p.sim.Now())
}

// IsDown reports the failure flag of a node.
func (p *Plane) IsDown(node topology.NodeID) bool { return p.down[node] }

// Forward walks a packet from src toward dst through the current FIBs.
// The walk does not record the traversed path (and therefore does not
// allocate); use ForwardTrace when the hop list matters.
func (p *Plane) Forward(src topology.NodeID, dst netip.Addr) ForwardResult {
	res, _ := p.walk(nil, 0, src, dst, nil)
	return res
}

// ForwardTrace is Forward with the traversed path recorded in the result.
func (p *Plane) ForwardTrace(src topology.NodeID, dst netip.Addr) ForwardResult {
	res, _ := p.walk(nil, 0, src, dst, make([]topology.NodeID, 0, 8))
	return res
}

// walk forwards a packet from src toward dst. With a nil watch it reads the
// live FIBs. With w, the watch for dst, it reads them as they stood at
// instant at — per hop the last journaled state stamped <= at, or the live
// state where the journal has none — and also returns the earliest later
// instant at which the journal has a hop of this path change (+Inf if none):
// a walk from src at any instant before that gives the same result.
func (p *Plane) walk(w *watch, at float64, src topology.NodeID, dst netip.Addr, path []topology.NodeID) (ForwardResult, float64) {
	p.m.forwards.Inc()
	record := path != nil
	res := ForwardResult{Path: path}
	until := math.Inf(1)
	cur := src
	for hops := 0; hops <= MaxHops; hops++ {
		if record {
			res.Path = append(res.Path, cur)
		}
		var st fibState
		if w != nil && len(w.hist[cur]) > 0 {
			h := w.hist[cur]
			i := len(h) - 1
			for h[i].at > at { // ends at the baseline, stamped -Inf
				i--
			}
			st = h[i]
			if i+1 < len(h) && h[i+1].at < until {
				until = h[i+1].at
			}
		} else if p.down[cur] {
			st.down = true
		} else {
			st = p.lookup(cur, dst)
		}
		switch {
		case st.down:
			res.Reason = DropNodeDown
			p.m.dropped.Inc()
			return res, until
		case !st.ok:
			res.Reason = DropNoRoute
			p.m.dropped.Inc()
			return res, until
		case st.local:
			res.Delivered = true
			res.Dest = cur
			p.m.delivered.Inc()
			return res, until
		}
		res.Delay += st.delay
		cur = st.next
	}
	res.Reason = DropLoop
	p.m.dropped.Inc()
	return res, until
}

// Catchment returns the site/origin node that currently attracts traffic
// from src toward addr, or ok=false if src cannot reach it.
func (p *Plane) Catchment(src topology.NodeID, addr netip.Addr) (topology.NodeID, bool) {
	res := p.Forward(src, addr)
	if !res.Delivered {
		return 0, false
	}
	return res.Dest, true
}

// StaticDelay returns the one-way shortest-path latency between two nodes
// over link delays, ignoring routing policy. It models the stable forward
// direction (CDN site → probe target), which the paper's failure
// experiments do not perturb.
func (p *Plane) StaticDelay(from, to topology.NodeID) float64 {
	d, ok := p.staticDelay[from]
	if !ok {
		d = p.dijkstra(from)
		p.staticDelay[from] = d
	}
	return d[to]
}

func (p *Plane) dijkstra(src topology.NodeID) []float64 {
	const inf = 1e18
	dist := make([]float64, p.topo.Len())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	// Simple binary-heap Dijkstra over the undirected latency graph.
	h := &delayHeap{items: []delayItem{{node: src, d: 0}}}
	for h.Len() > 0 {
		it := h.pop()
		if it.d > dist[it.node] {
			continue
		}
		for _, adj := range p.topo.Node(it.node).Adj {
			nd := it.d + adj.Delay
			if nd < dist[adj.To] {
				dist[adj.To] = nd
				h.push(delayItem{node: adj.To, d: nd})
			}
		}
	}
	return dist
}

type delayItem struct {
	node topology.NodeID
	d    float64
}

type delayHeap struct{ items []delayItem }

func (h *delayHeap) Len() int { return len(h.items) }
func (h *delayHeap) push(it delayItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].d <= h.items[i].d {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}
func (h *delayHeap) pop() delayItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < len(h.items) && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// Hop is one step of a Traceroute: the node reached and the cumulative
// round-trip latency to it (assuming symmetric per-hop delays, as
// traceroute does).
type Hop struct {
	Node topology.NodeID
	RTT  float64
}

// Traceroute walks a packet like Forward but reports per-hop cumulative
// RTTs, the analogue of the measured paths Appendix C.1 reasons over.
func (p *Plane) Traceroute(src topology.NodeID, dst netip.Addr) ([]Hop, ForwardResult) {
	res := p.ForwardTrace(src, dst)
	hops := make([]Hop, 0, len(res.Path))
	var acc float64
	for i, node := range res.Path {
		if i > 0 {
			prev := p.topo.Node(res.Path[i-1])
			for _, adj := range prev.Adj {
				if adj.To == node {
					acc += adj.Delay
					break
				}
			}
		}
		hops = append(hops, Hop{Node: node, RTT: 2 * acc})
	}
	return hops, res
}

// FIBRecord is one forwarding entry as reported by DumpFIB.
type FIBRecord struct {
	Prefix netip.Prefix
	Local  bool
	Next   topology.NodeID // meaningful when !Local
}

// DumpFIB returns node's forwarding table sorted by prefix — a stable,
// comparable view of data-plane state. The order is iptrie.Walk's: IPv4
// first, ascending (address, length).
func (p *Plane) DumpFIB(node topology.NodeID) []FIBRecord {
	var out []FIBRecord
	if fib := p.fibs[node]; fib != nil {
		fib.Walk(func(pfx netip.Prefix, e fibEntry) bool {
			out = append(out, FIBRecord{Prefix: pfx, Local: e.local, Next: e.next})
			return true
		})
	}
	return out
}

// fibChunk is how much canonical text WriteFIB buffers between writes.
const fibChunk = 32 << 10

// WriteFIB streams every node's forwarding table to w as canonical text,
// one "node <id>" block per non-empty FIB with its entries in DumpFIB's
// order. Equal text means the two planes forward every packet identically.
// The control plane hashes the stream without materialising it.
func (p *Plane) WriteFIB(w io.Writer) error {
	buf := make([]byte, 0, fibChunk+fibChunk/4)
	for id, fib := range p.fibs {
		if fib == nil {
			continue
		}
		mark := len(buf)
		buf = append(buf, "node "...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, '\n')
		body := len(buf)
		fib.Walk(func(pfx netip.Prefix, e fibEntry) bool {
			buf = appendFIBEntry(buf, pfx, e)
			return true
		})
		if len(buf) == body {
			buf = buf[:mark] // empty FIBs leave no block
			continue
		}
		if len(buf) >= fibChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

//cdnlint:allocfree runs once per FIB entry of every state digest
func appendFIBEntry(buf []byte, pfx netip.Prefix, e fibEntry) []byte {
	buf = append(buf, "  "...)
	buf = pfx.AppendTo(buf)
	if e.local {
		return append(buf, " local\n"...)
	}
	buf = append(buf, " via "...)
	buf = strconv.AppendInt(buf, int64(e.next), 10)
	return append(buf, '\n')
}

// FIBDigest returns WriteFIB's text as a string; regression tests compare
// it across fail→recover round trips.
func (p *Plane) FIBDigest() string {
	var b digestText
	p.WriteFIB(&b) // a strings.Builder never fails a write
	return b.String()
}

// digestText is the strings.Builder behind FIBDigest. Growing ahead of
// each chunk makes the builder double (Grow's policy); a bare Write grows
// by append's 1.25x and ends up allocating several times the text.
type digestText struct{ strings.Builder }

func (d *digestText) Write(b []byte) (int, error) {
	d.Grow(len(b))
	return d.Builder.Write(b)
}
