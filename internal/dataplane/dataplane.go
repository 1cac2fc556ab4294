// Package dataplane simulates packet forwarding over the FIBs produced by
// the BGP layer.
//
// Every node keeps a FIB that tracks its BGP loc-RIB in real time: a row of
// the plane's prefix table, read by longest prefix match. Packets are
// forwarded hop by hop through these FIBs, so a packet in flight during
// route convergence experiences exactly the pathologies the paper measures:
// blackholes at routers whose best route was withdrawn, transient forwarding
// loops during path exploration, and deliveries to different CDN sites as
// catchments shift.
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
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"bestofboth/internal/bgp"
	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// MaxHops bounds forwarding walks, standing in for the IP TTL.
const MaxHops = 64

// A FIB entry is one int32 of a node's row: no route, local delivery, or
// the route learned on session s, stored as s+entrySession. The next hop and
// link delay of a session are the immutable topology's (Node.Adj[s]).
const (
	entryNone    = 0
	entryLocal   = 1
	entrySession = 2
)

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
// A FIB is a row: rows[n][id] is node n's entry for prefixes[id], and a row
// shorter than the table has no route for the prefixes past its end. The
// prefix table only grows, and only in control context: a prefix gets the
// next id when a FIB is first written for it, which is its origin's own
// best-route change inside Originate, or InstallSolution. Shard goroutines
// read the table and never see it change. index packs each prefix's masked
// address, length and id into one word (see indexKey), sorted: ascending
// (address, length) is the order of the FIB text, and finding a prefix's id
// is a binary search over integers. Only IPv4 prefixes get an id; no FIB
// holds another family.
//
// Rows and the table are shared copy-on-write between a plane, the
// snapshots taken of it and every plane restored from them. owned[n] says
// rows[n] is this plane's alone; Snapshot and Restore clear the flags, and
// install clones a row it does not own before the first write — on the
// plane the snapshot was taken of exactly as on a restored one. A row is
// written, and its flag read and set, only on its node's shard goroutine.
// The table of a snapshot is a capacity-limited window, so whichever plane
// adds a prefix first copies it. A Figure 2 run rewrites the rows its one
// fault reaches and forwards through the snapshot's for all the rest.
//
// The journal follows the same ownership rule as rows[node]: onBestChange
// runs on the changing node's shard goroutine and writes only that node's
// slot of every watch, stamped with that shard's clock; the watch list
// itself, the failure flags and every read of the journal belong to control
// context, where all shards are parked at one instant.
type Plane struct {
	net      *bgp.Network       //cdnlint:nosnapshot wiring: the network this plane subscribed to at construction
	topo     *topology.Topology //cdnlint:nosnapshot immutable wiring; restore targets a plane built over the same topology
	sim      *netsim.Sim        //cdnlint:nosnapshot wiring: the kernel snapshots itself
	prefixes []netip.Prefix
	index    []uint64
	rows     [][]int32
	owned    []bool
	down     []bool
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
	// covers is the plane's covers for addr, refreshed when the table grows.
	covers []int32
	hist   [][]fibState
}

// watch returns the journal for addr, starting it on first use. Control
// context only.
func (p *Plane) watch(addr netip.Addr) *watch {
	for _, w := range p.watches {
		if w.addr == addr {
			return w
		}
	}
	w := &watch{addr: addr, covers: p.covers(nil, addr), hist: make([][]fibState, len(p.rows))}
	p.watches = append(p.watches, w)
	return w
}

// concerns reports whether a change to the prefix with id in some FIB can
// change the entry covering the watched address. A negative id stands for a
// node's failure flag, which concerns every watch.
func (w *watch) concerns(id int32) bool {
	return id < 0 || slices.Contains(w.covers, id)
}

// states appends node's live state for every watch id concerns.
func (p *Plane) states(buf []fibState, node topology.NodeID, id int32) []fibState {
	for _, w := range p.watches {
		if w.concerns(id) {
			buf = append(buf, p.state(node, w))
		}
	}
	return buf
}

// state reads what node does right now with a packet for w's address.
func (p *Plane) state(node topology.NodeID, w *watch) fibState {
	st := p.lookup(node, w.covers)
	st.down = p.down[node]
	return st
}

// lookup reads what node's FIB does with a packet for an address whose
// covering prefixes are covers (see covers): the first of them the row has
// a route for is the longest match. The failure flag is the caller's to
// add.
//
//cdnlint:allocfree runs once per hop of every forwarding walk
func (p *Plane) lookup(node topology.NodeID, covers []int32) (st fibState) {
	p.m.lookups.Inc()
	row := p.rows[node]
	for _, id := range covers {
		if int(id) < len(row) && row[id] != entryNone {
			st.ok = true
			st.local, st.next, st.delay = p.hop(node, row[id])
			return st
		}
	}
	return st
}

// hop decodes node's FIB entry e (not entryNone): local delivery, or the
// neighbor and link delay of the session e names.
func (p *Plane) hop(node topology.NodeID, e int32) (local bool, next topology.NodeID, delay float64) {
	if e == entryLocal {
		return true, 0, 0
	}
	adj := &p.topo.Node(node).Adj[e-entrySession]
	return false, adj.To, adj.Delay
}

// journal files a change to node's forwarding state, made at instant at,
// with every watch id concerns; pre is what states returned just before the
// change. A change that leaves a watch's state as it was files nothing.
func (p *Plane) journal(node topology.NodeID, id int32, pre []fibState, at float64) {
	for _, w := range p.watches {
		if !w.concerns(id) {
			continue
		}
		was, is := pre[0], p.state(node, w)
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

// idBits is how many low bits of an index word hold the prefix's id.
const idBits = 24

// indexKey is prefix's index word without its id: the masked IPv4 address
// above the length, shifted clear of the id bits.
func indexKey(prefix netip.Prefix) uint64 {
	a, bits := prefix.Addr().As4(), prefix.Bits()
	addr := binary.BigEndian.Uint32(a[:]) &^ (^uint32(0) >> bits)
	return (uint64(addr)<<8 | uint64(bits)) << idBits
}

// column returns prefix's id in the table, giving it the next one if it has
// none; ok is false for a prefix that is not IPv4. A new id is control
// context only (see Plane); it refreshes every watch's covers.
func (p *Plane) column(prefix netip.Prefix) (id int32, ok bool) {
	if !prefix.Addr().Is4() {
		return 0, false
	}
	key := indexKey(prefix)
	i, _ := slices.BinarySearch(p.index, key)
	if i < len(p.index) && p.index[i]>>idBits == key>>idBits {
		return int32(p.index[i] & (1<<idBits - 1)), true
	}
	if len(p.prefixes) == 1<<idBits {
		panic("dataplane: prefix table full")
	}
	id = int32(len(p.prefixes))
	p.prefixes = append(p.prefixes, prefix.Masked())
	p.index = slices.Insert(p.index, i, key|uint64(id))
	for _, w := range p.watches {
		w.covers = p.covers(w.covers[:0], w.addr)
	}
	return id, true
}

// covers appends the ids of the table's prefixes that contain addr, longest
// first: the order a longest-prefix match tries them in.
func (p *Plane) covers(buf []int32, addr netip.Addr) []int32 {
	start := len(buf)
	for id, prefix := range p.prefixes {
		if prefix.Contains(addr) {
			buf = append(buf, int32(id))
		}
	}
	slices.SortFunc(buf[start:], func(a, b int32) int {
		return cmp.Compare(p.prefixes[b].Bits(), p.prefixes[a].Bits())
	})
	return buf
}

// New builds the data plane and subscribes to FIB updates. No row exists
// until a node's first route arrives.
func New(net *bgp.Network) *Plane {
	topo := net.Topology()
	p := &Plane{
		net:         net,
		topo:        topo,
		sim:         net.Sim(),
		rows:        make([][]int32, topo.Len()),
		owned:       make([]bool, topo.Len()),
		down:        make([]bool, topo.Len()),
		staticDelay: make(map[topology.NodeID][]float64),
	}
	net.OnBestChange(p.onBestChange)
	return p
}

// Snapshot is an immutable capture of a plane's forwarding state: the
// prefix table, every node's FIB row and failure flag. Nothing is copied
// but the row headers and flags; see Plane.
type Snapshot struct {
	prefixes []netip.Prefix
	index    []uint64
	rows     [][]int32
	down     []bool
}

// Snapshot captures the plane's FIBs and failure flags. It copies no row:
// the plane gives up ownership of its rows and its table, so it too copies
// before it next writes one. The snapshot may be restored into any number
// of planes, concurrently.
func (p *Plane) Snapshot() *Snapshot {
	n := len(p.prefixes)
	p.prefixes, p.index = p.prefixes[:n:n], p.index[:n:n]
	clear(p.owned)
	return &Snapshot{prefixes: p.prefixes, index: p.index, rows: slices.Clone(p.rows), down: slices.Clone(p.down)}
}

// Restore installs a snapshot into a plane built over the same topology:
// the snapshot's table, a copy of its row headers and its flags. The
// restored plane forwards through the snapshot's rows until its own routes
// change. Its journal starts empty, so a prober does not survive a Restore
// of its plane.
func (p *Plane) Restore(snap *Snapshot) error {
	if len(snap.rows) != len(p.rows) {
		return fmt.Errorf("dataplane: snapshot has %d nodes, plane has %d", len(snap.rows), len(p.rows))
	}
	p.prefixes, p.index = snap.prefixes, snap.index
	copy(p.rows, snap.rows)
	clear(p.owned)
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
	id, ok := p.column(prefix)
	if !ok {
		return
	}
	e := entry(route != nil, sess)
	if len(p.watches) == 0 {
		p.install(node, id, e)
		return
	}
	var buf [4]fibState
	pre := p.states(buf[:0], node, id)
	p.install(node, id, e)
	p.journal(node, id, pre, at)
}

// InstallSolution writes a solved routing state (bgp.Solve) into the FIBs
// through install: every ⟨node, prefix⟩ with a route, as a converge of the
// same originations leaves it. The table gets every prefix first, so each
// row is sized once. Control context only, on a plane whose network has
// originated nothing.
func (p *Plane) InstallSolution(sol *bgp.Solution) {
	prefixes := sol.Prefixes()
	ids := make([]int32, len(prefixes))
	for i, prefix := range prefixes {
		if id, ok := p.column(prefix); ok {
			ids[i] = id
		} else {
			ids[i] = -1
		}
	}
	for i, prefix := range prefixes {
		if ids[i] < 0 {
			continue
		}
		for node := range p.rows {
			if sess, ok := sol.BestSession(topology.NodeID(node), prefix); ok {
				p.m.updates.Inc()
				p.install(topology.NodeID(node), ids[i], entry(true, sess))
			}
		}
	}
}

// entry encodes a best-route change: no route, or a route learned on
// session sess, -1 for a local origination.
func entry(reachable bool, sess int) int32 {
	switch {
	case !reachable:
		return entryNone
	case sess < 0:
		return entryLocal
	}
	return int32(sess) + entrySession
}

// install writes entry e for the prefix with id into node's FIB. A row the
// plane owns and that reaches id is written in place.
//
//cdnlint:allocfree runs once per best-route change; only a shared or short row allocates
func (p *Plane) install(node topology.NodeID, id int32, e int32) {
	row := p.rows[node]
	if !p.owned[node] || int(id) >= len(row) {
		row = p.own(node)
	}
	row[id] = e
}

// own makes node's row the plane's own and as long as the table. A shared
// row is copied; a short one is extended by append's growth, so a table
// that grows one prefix at a time reallocates each row only logarithmically
// often (Figures 3 and 4 add a prefix per trial).
func (p *Plane) own(node topology.NodeID) []int32 {
	row, n := p.rows[node], len(p.prefixes)
	if !p.owned[node] {
		row = append(make([]int32, 0, n), row...)
		p.owned[node] = true
	}
	row = append(row, make([]int32, n-len(row))...)
	p.rows[node] = row
	return row
}

// SetDown marks a node as failed (true) or healthy (false). Packets
// reaching a failed node are dropped; its FIB remains intact so the control
// plane model (explicit withdrawals) stays in charge of route removal,
// matching how the paper emulates failures by withdrawing announcements.
func (p *Plane) SetDown(node topology.NodeID, down bool) {
	var buf [4]fibState
	pre := p.states(buf[:0], node, -1)
	p.down[node] = down
	// Control context: every shard clock reads what the plane's does.
	p.journal(node, -1, pre, p.sim.Now())
}

// Forward walks a packet from src toward dst through the current FIBs.
// The walk does not record the traversed path (and therefore does not
// allocate while dst has at most eight covering prefixes); use ForwardTrace
// when the hop list matters.
func (p *Plane) Forward(src topology.NodeID, dst netip.Addr) ForwardResult {
	var buf [8]int32
	res, _ := p.walk(nil, 0, src, p.covers(buf[:0], dst), nil)
	return res
}

// ForwardTrace is Forward with the traversed path recorded in the result.
func (p *Plane) ForwardTrace(src topology.NodeID, dst netip.Addr) ForwardResult {
	var buf [8]int32
	res, _ := p.walk(nil, 0, src, p.covers(buf[:0], dst), make([]topology.NodeID, 0, 8))
	return res
}

// walk forwards a packet from src toward an address whose covering
// prefixes are covers (see covers), computed once for the whole walk. With a
// nil watch it reads the live FIBs. With w, the watch for the address, it
// reads them as they stood at
// instant at — per hop the last journaled state stamped <= at, or the live
// state where the journal has none — and also returns the earliest later
// instant at which the journal has a hop of this path change (+Inf if none):
// a walk from src at any instant before that gives the same result.
func (p *Plane) walk(w *watch, at float64, src topology.NodeID, covers []int32, path []topology.NodeID) (ForwardResult, float64) {
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
			st = p.lookup(cur, covers)
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

// fibChunk is how much canonical text WriteFIB buffers between writes.
const fibChunk = 32 << 10

// WriteFIB streams every node's forwarding table to w as canonical text,
// one "node <id>" block per non-empty FIB with its entries in ascending
// (address, length) order. Equal text means the two planes forward every
// packet identically. The control plane hashes the stream without
// materialising it.
func (p *Plane) WriteFIB(w io.Writer) error {
	buf := make([]byte, 0, fibChunk+fibChunk/4)
	for node, row := range p.rows {
		mark := len(buf)
		buf = append(buf, "node "...)
		buf = strconv.AppendInt(buf, int64(node), 10)
		buf = append(buf, '\n')
		body := len(buf)
		for _, k := range p.index {
			if id := k & (1<<idBits - 1); id < uint64(len(row)) && row[id] != entryNone {
				local, next, _ := p.hop(topology.NodeID(node), row[id])
				buf = appendFIBEntry(buf, p.prefixes[id], local, next)
			}
		}
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
func appendFIBEntry(buf []byte, pfx netip.Prefix, local bool, next topology.NodeID) []byte {
	buf = append(buf, "  "...)
	buf = pfx.AppendTo(buf)
	if local {
		return append(buf, " local\n"...)
	}
	buf = append(buf, " via "...)
	buf = strconv.AppendInt(buf, int64(next), 10)
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
