package bgp

import (
	"net/netip"
	"slices"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// Speaker is the BGP process of one topology node. A network carves all
// of its speakers from one slab, and their per-session state lives in the
// network's per-session tables, so a speaker is 96 bytes and a network of
// any size costs a handful of allocations to build (TestWireLayout,
// TestRestoreAllocBudget).
type Speaker struct {
	net *Network
	// sh is the shard this speaker runs on: all of its events live on
	// sh.sim, and its interned paths and pooled payloads come from sh.
	// Unsharded networks have one shard wrapping the control simulator.
	sh    *shard
	node  *topology.Node
	feeds []FeedFunc

	// msgCount tallies UPDATE messages delivered to this speaker. Kept
	// per-speaker so shards never contend; Network.MessageCount sums.
	msgCount uint64

	// lastFeedDeliver orders collector-feed deliveries the way
	// Network.last orders a session's: the collector session is TCP too.
	lastFeedDeliver netsim.Seconds

	// base is where this speaker's sessions start in the network's
	// per-session tables (Network.rev, last, down and epoch): session i is
	// entry base+i.
	base int32

	// rib is the per-prefix table, indexed by prefix id (Network.prefixes);
	// nil means no state. An UPDATE carries the id, so finding its state is
	// one index. Walks that must keep prefix order — digests, fault
	// injection's table walks, snapshots — go through Network.order. The
	// table is appended up to the network's prefix count, with append's
	// geometric growth, when a state for a newer id is first written, and
	// Restore hands each speaker a capacity-limited
	// window of one network-wide pointer array into a snapshot's frozen
	// states (see state and own).
	rib []*prefixState
}

// prefixState holds all per-prefix RIB and pacing state of one speaker. The
// same struct is the snapshot representation: a NetworkSnapshot holds frozen
// copies (owner nil) that any number of restored speakers, in any number of
// worlds and on any shard goroutine, point at and read concurrently. Nothing
// may write a state whose owner is not the writing speaker; own clones it
// first.
//
// The struct is 96 bytes, Go's 96-byte size class (TestWireLayout): the
// prefix rides as its id, the best route's session as an int32, and what few
// states need sits behind one sidecar pointer.
type prefixState struct {
	id int32 // the prefix, an index into Network.prefixes
	// bestSess is the session best was learned on, -1 for the local
	// origination: the next hop, and what best's LOCAL_PREF derives from.
	bestSess int32
	// owner is the one speaker allowed to write this state; nil marks a
	// snapshot's frozen copy.
	owner *Speaker //cdnlint:nosnapshot who may write, not what is stored: nil in every snapshot

	// adj holds the per-session RIB and pacing state, one slot per session:
	// one array, so a state costs one allocation for all of it.
	adj []adjSlot
	// pending[sess] is true while an MRAI timer for the session is queued;
	// allocated by the first export that has to wait.
	pending []bool //cdnlint:nosnapshot mirrors queued MRAI timers; snapshots require an empty queue

	best *Route
	// sent is the Route export built or shared last; groupRoute hands it
	// to every session whose intent it matches.
	sent *Route
	// origin is the local origination, nil when the speaker does not
	// originate the prefix.
	origin *origination
	// side holds what few states need, nil until one is written: see
	// stateSide.
	side *stateSide
}

// adjSlot is one session's share of a prefix state: one route and the MRAI
// deadline. A converged session carries its prefix one way, if at all, so
// the slot holds the session's one route, and the route's first AS tells
// which adj-RIB it is in (Speaker.outbound). A session that carries the
// prefix both ways keeps its adj-RIB-out route here and its adj-RIB-in route
// in the state's sidecar. Only the accessors in and out read the route, and
// only setIn and setOut write it.
type adjSlot struct {
	route *Route
	// next is when the MRAI timer next allows an advertisement.
	next netsim.Seconds
}

// stateSide is the part of a prefix state that few states write: the
// adj-RIB-in routes of sessions whose slot holds their adj-RIB-out route,
// and the damping penalties. own shares a frozen state's sidecar with the
// private copy it makes, and the copy's first write to the sidecar clones it
// (Speaker.side); Snapshot clones the sidecar with its state.
type stateSide struct {
	// owner is the one speaker allowed to write this sidecar; nil marks a
	// snapshot's frozen copy, which own shares until a write.
	owner *Speaker
	// in lists the adj-RIB-in routes of the sessions whose slot holds the
	// session's adj-RIB-out route, in no order: a converged state carries
	// its prefix both ways on at most a few sessions, so a list costs a
	// state that has one a few entries, where a table would cost a pointer
	// per session.
	in   []sideIn
	damp []dampState // allocated on first flap when damping is on
}

// sideIn is one session's adj-RIB-in route in a sidecar.
type sideIn struct {
	sess  int32
	route *Route
}

// clone is the sidecar's copy for owner, nil for a snapshot; nil stays nil.
func (sd *stateSide) clone(owner *Speaker) *stateSide {
	if sd == nil {
		return nil
	}
	return &stateSide{owner: owner, in: slices.Clone(sd.in), damp: slices.Clone(sd.damp)}
}

// side returns st's sidecar for writing: allocated on first use, and cloned
// first while it is still a snapshot's frozen one.
func (s *Speaker) side(st *prefixState) *stateSide {
	if st.side == nil {
		st.side = &stateSide{owner: s}
	} else if st.side.owner != s {
		st.side = st.side.clone(s)
	}
	return st.side
}

// sideAt returns the index of session sess's entry in st's sidecar, or -1.
func (st *prefixState) sideAt(sess int) int {
	if st.side != nil {
		for i, e := range st.side.in {
			if int(e.sess) == sess {
				return i
			}
		}
	}
	return -1
}

// sideIn returns session sess's adj-RIB-in route in st's sidecar, or nil.
// It writes sideAt's loop out: through sideAt, in would cost more than the
// inliner allows.
func (st *prefixState) sideIn(sess int) *Route {
	if st.side != nil {
		for _, e := range st.side.in {
			if int(e.sess) == sess {
				return e.route
			}
		}
	}
	return nil
}

// setSideIn files r, or nil to clear, as session sess's adj-RIB-in route in
// st's sidecar. Clearing the last entry of a sidecar that holds no damping
// state drops the sidecar.
func (s *Speaker) setSideIn(st *prefixState, sess int, r *Route) {
	i := st.sideAt(sess)
	switch {
	case r != nil && i >= 0:
		s.side(st).in[i].route = r
	case r != nil:
		sd := s.side(st)
		sd.in = append(sd.in, sideIn{sess: int32(sess), route: r})
	case i < 0:
	case len(st.side.in) == 1 && st.side.damp == nil:
		st.side = nil
	default:
		sd := s.side(st)
		sd.in = slices.Delete(sd.in, i, i+1)
	}
}

// outbound reports whether r, a route in one of this speaker's slots, is the
// slot's adj-RIB-out route. Every route the speaker exports starts with its
// own ASN (desiredExport; Originate and Solve refuse a negative prepend), and
// no route it keeps from a neighbor carries that ASN (receive and
// installDelivery drop one that does).
func (s *Speaker) outbound(r *Route) bool {
	return len(r.Path) > 0 && r.Path[0] == s.node.ASN
}

// in returns session sess's adj-RIB-in route in st, or nil. The state's
// best route is always an adj-RIB-in route and its sent route an
// adj-RIB-out one, so a slot holding either is told apart without reading
// the route.
func (s *Speaker) in(st *prefixState, sess int) *Route {
	r := st.adj[sess].route
	if r == nil || r == st.best || r != st.sent && !s.outbound(r) {
		return r
	}
	return st.sideIn(sess)
}

// out returns session sess's adj-RIB-out route in st, or nil.
func (s *Speaker) out(st *prefixState, sess int) *Route {
	if r := st.adj[sess].route; r == st.sent || r != nil && r != st.best && s.outbound(r) {
		return r
	}
	return nil
}

// setIn files r, or nil to clear, as session sess's adj-RIB-in route in st.
// While the slot holds the session's adj-RIB-out route, the in route lives
// in the sidecar.
func (s *Speaker) setIn(st *prefixState, sess int, r *Route) {
	if a := &st.adj[sess]; a.route == nil || !s.outbound(a.route) {
		a.route = r
		return
	}
	s.setSideIn(st, sess, r)
}

// setOut files r, or nil to clear, as session sess's adj-RIB-out route in
// st. The out route always takes the slot: an in route it displaces moves to
// the sidecar, and clearing the out route moves the sidecar's in route back.
func (s *Speaker) setOut(st *prefixState, sess int, r *Route) {
	a := &st.adj[sess]
	if cur := a.route; cur != nil && !s.outbound(cur) {
		if r != nil {
			s.setSideIn(st, sess, cur)
			a.route = r
		}
		return
	}
	a.route = r
	if r == nil {
		if a.route = st.sideIn(sess); a.route != nil {
			s.setSideIn(st, sess, nil)
		}
	}
}

// origination is a local origination: the policy and the loc-RIB entry
// that represents it, built once per Originate call instead of on every
// recompute. Its maximal LOCAL_PREF makes route the best route while the
// origination stands. Like the Routes it holds, it is immutable once
// installed: originate builds a fresh one on every call.
type origination struct {
	pol   *OriginPolicy
	route Route
}

// reverse returns the session by which node.Adj[sess].To refers back to
// this speaker, -1 if it does not.
func (s *Speaker) reverse(sess int) int { return int(s.net.rev[int(s.base)+sess]) }

// sessDown reports whether session sess is down (Network.down).
func (s *Speaker) sessDown(sess int) bool {
	down := s.net.down
	return down != nil && down[int(s.base)+sess]
}

// sessEpoch returns session sess's establishment count (Network.epoch).
func (s *Speaker) sessEpoch(sess int) uint64 {
	if epoch := s.net.epoch; epoch != nil {
		return epoch[int(s.base)+sess]
	}
	return 0
}

// Node returns the topology node this speaker runs on.
func (s *Speaker) Node() *topology.Node { return s.node }

// comparePrefix orders prefixes by address, then length: Network.order,
// and the order of the data plane's FIB digest.
func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// at is the read accessor: the state for prefix id, possibly a snapshot's
// frozen one, or nil.
func (s *Speaker) at(id int32) *prefixState {
	if int(id) < len(s.rib) {
		return s.rib[id]
	}
	return nil
}

// lookup is at by prefix, for the accessors that take one.
func (s *Speaker) lookup(p netip.Prefix) *prefixState {
	if id, ok := s.net.prefixID(p); ok {
		return s.at(id)
	}
	return nil
}

// state is the write accessor: the state for prefix id, created empty if
// absent and cloned first if it still belongs to a snapshot.
func (s *Speaker) state(id int32) *prefixState {
	if st := s.at(id); st != nil {
		return s.own(id)
	}
	if int(id) >= len(s.rib) {
		// Cover every id the network has handed out. append grows the
		// capacity geometrically, so one prefix originated per trial (Figures
		// 3 and 4) costs amortized O(1) per speaker, not a copy of the rib.
		s.rib = append(s.rib, make([]*prefixState, len(s.net.prefixes)-len(s.rib))...)
	}
	st := &prefixState{id: id, owner: s, adj: make([]adjSlot, len(s.node.Adj))}
	s.rib[id] = st
	s.net.m.prefixStates.Inc()
	return st
}

// own returns the state for id, which must exist, writable. A restored
// speaker's rib points at the snapshot's frozen states, shared with every
// sibling restore; the first write in this world replaces the pointer with
// a private copy. Routes and originations stay shared (immutable after
// publish), and so does the sidecar until the copy first writes it (side);
// pending is left nil, as in every frozen state.
func (s *Speaker) own(id int32) *prefixState {
	st := s.rib[id]
	if st.owner == s {
		return st
	}
	c := *st
	c.owner = s
	c.adj = slices.Clone(st.adj)
	s.rib[id] = &c
	return &c
}

// Best returns the current best route for p, or nil.
func (s *Speaker) Best(p netip.Prefix) *Route {
	if st := s.lookup(p); st != nil {
		return st.best
	}
	return nil
}

// BestSession returns the session the best route for p was learned on, an
// index into the node's adjacency list, or -1 when the route is locally
// originated or there is none.
func (s *Speaker) BestSession(p netip.Prefix) int {
	if st := s.lookup(p); st != nil && st.best != nil {
		return int(st.bestSess)
	}
	return -1
}

// AdjIn returns the adj-RIB-in routes for p, one per session (nil slots for
// sessions with no route). The slice is the caller's own; the routes are
// published and must not be modified.
func (s *Speaker) AdjIn(p netip.Prefix) []*Route {
	st := s.lookup(p)
	if st == nil {
		return nil
	}
	in := make([]*Route, len(st.adj))
	for sess := range in {
		in[sess] = s.in(st, sess)
	}
	return in
}

// KnownPrefixes returns every prefix with any state at this speaker, in
// comparePrefix order. The slice is the caller's own.
func (s *Speaker) KnownPrefixes() []netip.Prefix {
	var out []netip.Prefix
	for _, id := range s.net.order {
		if s.at(id) != nil {
			out = append(out, s.net.prefixes[id])
		}
	}
	return out
}

func (s *Speaker) originate(id int32, pol *OriginPolicy) {
	st := s.state(id)
	// A fresh origination is mandatory even on re-origination: the previous
	// route may be published (st.best, FIBs, feeds) and published routes are
	// immutable.
	st.origin = s.newOrigination(id, pol)
	s.recompute(st)
	// A policy change (e.g. new prepend depth) may alter exports even when
	// the best route is unchanged, so always reconsider every session.
	s.exportAll(st)
}

// newOrigination builds the loc-RIB entry of an origination of prefix id
// under pol, once per Originate instead of on every recompute.
func (s *Speaker) newOrigination(id int32, pol *OriginPolicy) *origination {
	return &origination{pol: pol, route: Route{Prefix: s.net.prefixes[id], MED: pol.MED, OriginNode: s.node.ID}}
}

func (s *Speaker) withdrawOrigin(id int32) {
	if st := s.at(id); st == nil || st.origin == nil {
		return
	}
	st := s.own(id)
	st.origin = nil
	s.recompute(st)
	s.exportAll(st)
}

// importPref maps the session relationship to LOCAL_PREF (Gao-Rexford).
func importPref(rel topology.Rel) int {
	switch rel {
	case topology.RelCustomer:
		return PrefCustomer
	case topology.RelPeer:
		return PrefPeer
	default:
		return PrefProvider
	}
}

// localPref is the LOCAL_PREF of a route learned on session sess: the
// import preference of the session's relationship, or the maximal
// preference of the local origination at sess -1.
func (s *Speaker) localPref(sess int) int {
	if sess < 0 {
		return 1 << 20
	}
	return importPref(s.node.Adj[sess].Rel)
}

// receive processes an UPDATE delivered on session sess.
func (s *Speaker) receive(sess int, u update) {
	s.msgCount++
	s.net.m.received.Inc()
	st := s.state(u.id)
	cur := s.in(st, sess)
	in := cur
	damping := s.net.cfg.Damping
	switch u.typ {
	case Announce:
		// Route-flap damping counts re-advertisements that change an
		// existing route as flaps (RFC 2439 §4.4.2).
		if damping && cur != nil && !sameWire(u.route, cur) {
			s.flap(st, sess)
		}
		r := u.route
		if r.ContainsASN(s.node.ASN) {
			// Receiver-side loop detection: the NLRI replaces whatever this
			// neighbor previously advertised, but the looping path is not
			// usable, so the net effect is a withdrawal of the old route.
			in = nil
		} else if cur != nil && sameWire(r, cur) {
			// Duplicate re-advertisement: keep the existing entry.
		} else {
			// The adj-RIB-in holds the sender's published adj-RIB-out
			// pointer; what is receiver-local follows from sess.
			in = r
		}
	case Withdraw:
		if cur == nil {
			return
		}
		if damping {
			s.flap(st, sess)
		}
		in = nil
	}
	if in != cur {
		s.setIn(st, sess, in)
	}
	if hasIn := in != nil; hasIn != (cur != nil) {
		if hasIn {
			s.net.m.adjIn.Add(1)
		} else {
			s.net.m.adjIn.Add(-1)
		}
	}
	// Only an UPDATE on the best route's session can promote another
	// session's route, and damping suppresses and releases routes as time
	// passes; both rescan. Any other UPDATE is one comparison (reselect).
	var changed bool
	if damping || (st.best != nil && sess == int(st.bestSess)) {
		changed = s.recompute(st)
	} else {
		changed = s.reselect(st, sess)
	}
	// An unchanged best exports nothing: desiredExport reads only the best
	// route, the origination and static wiring, and every export pass
	// leaves each up session carrying its intent or with an MRAI timer
	// queued.
	if changed {
		s.exportAll(st)
	}
}

// better reports whether a, learned on session aSess, should be preferred
// over b, learned on bSess, under the standard BGP decision process. Both
// must be non-nil; session -1 is the local origination. It is a strict
// total order, lexicographic on (LOCAL_PREF, path length, neighbor ASN,
// MED, session): MED only ever compares routes from one neighbor AS, and
// the neighbor-ASN tie-break orders all others before MED is reached, so
// MED cannot close a cycle. reselect's single comparison relies on this.
func (s *Speaker) better(a *Route, aSess int, b *Route, bSess int) bool {
	if la, lb := s.localPref(aSess), s.localPref(bSess); la != lb {
		return la > lb
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	// MED, compared only between routes from the same neighbor AS.
	aAS, bAS := s.neighborAS(aSess), s.neighborAS(bSess)
	if aAS == bAS && a.MED != b.MED {
		return a.MED < b.MED
	}
	// Deterministic tiebreaks: lowest neighbor ASN, then lowest session.
	if aAS != bAS {
		return aAS < bAS
	}
	return aSess < bSess
}

// neighborAS is the ASN across session sess; the speaker's own at -1.
func (s *Speaker) neighborAS(sess int) topology.ASN {
	if sess < 0 {
		return s.node.ASN
	}
	return s.net.topo.Node(s.node.Adj[sess].To).ASN
}

// recompute reselects the best route of st from a full scan of the
// candidates, fires FIB/feed callbacks on change and reports whether the
// best changed.
func (s *Speaker) recompute(st *prefixState) bool {
	s.mustOwn(st)
	best, bestSess := (*Route)(nil), -1
	if st.origin != nil {
		// Locally originated routes always win (empty AS path, maximal
		// preference — the analogue of administrative weight).
		best = &st.origin.route
	}
	damping := s.net.cfg.Damping
	for sess := range st.adj {
		r := s.in(st, sess)
		if r == nil {
			continue
		}
		if damping && s.dampSuppressed(st, sess) {
			continue
		}
		if best == nil || s.better(r, sess, best, bestSess) {
			best, bestSess = r, sess
		}
	}
	if routesEquivalent(best, bestSess, st.best, int(st.bestSess)) {
		return false
	}
	s.setBest(st, best, bestSess)
	return true
}

// reselect is recompute after an UPDATE on session sess when sess does not
// carry the best route and damping is off. Every other candidate is as it
// was, so the best of them is still st.best, and since better is a strict
// total order one comparison with sess's route picks what the full scan
// would.
func (s *Speaker) reselect(st *prefixState, sess int) bool {
	s.mustOwn(st)
	r := s.in(st, sess)
	if r == nil || (st.best != nil && !s.better(r, sess, st.best, int(st.bestSess))) {
		return false
	}
	s.setBest(st, r, sess)
	return true
}

// setBest installs a new best route and fires the FIB/feed callbacks.
func (s *Speaker) setBest(st *prefixState, best *Route, bestSess int) {
	st.best, st.bestSess = best, int32(bestSess)
	p := s.net.prefixes[st.id]
	for _, fn := range s.net.onBest {
		fn(s.node.ID, p, best, bestSess, s.sh.sim.Now())
	}
	s.notifyFeeds(p, best)
}

// mustOwn panics when st is not this speaker's to write: a frozen snapshot
// state (or another speaker's) reached a writer without passing through own,
// which would corrupt every world sharing it.
func (s *Speaker) mustOwn(st *prefixState) {
	if st.owner != s {
		panic("bgp: write to a prefix state " + s.net.prefixes[st.id].String() + " that speaker " + s.node.Name + " does not own")
	}
}

// routesEquivalent compares loc-RIB entries, each with the session it was
// learned on: the next hop, and through it the LOCAL_PREF.
func routesEquivalent(a *Route, aSess int, b *Route, bSess int) bool {
	if a == nil || b == nil {
		return a == b
	}
	return aSess == bSess && sameWire(a, b)
}

func (s *Speaker) notifyFeeds(p netip.Prefix, best *Route) {
	if len(s.feeds) == 0 {
		return
	}
	var u Update
	if best == nil {
		u = Update{Type: Withdraw, Prefix: p}
	} else {
		// best is published and therefore immutable; the feed shares it.
		u = Update{Type: Announce, Prefix: p, Route: best}
	}
	// Collector sessions see the update after a processing delay, like any
	// other neighbor, but in sending order (the session is TCP).
	at := s.sh.sim.Now() + s.sh.sim.Jitter(s.net.cfg.ProcMin, s.net.cfg.ProcMax)
	if at <= s.lastFeedDeliver {
		at = s.lastFeedDeliver + 1e-6
	}
	s.lastFeedDeliver = at
	peer := s.node.ID
	if s.net.runner != nil {
		// Feed consumers live on the control simulator; buffer the delivery
		// for the barrier merge. Its timestamp is at least one processing
		// delay past the send, which is never before the control clock.
		s.sh.feedOut = append(s.sh.feedOut, feedMsg{at: at, sp: s, peer: peer, u: u})
		return
	}
	feeds := s.feeds
	s.net.sim.At(at, func() {
		for _, fn := range feeds {
			fn(s.net.sim.Now(), peer, u)
		}
	})
}

// exportAll reconsiders what should be advertised to every session. The
// transit path is interned once for the pass, by the first session that
// needs it.
func (s *Speaker) exportAll(st *prefixState) {
	var transit []topology.ASN
	for sess := range s.node.Adj {
		s.exportPass(st, sess, &transit)
	}
}

// exportIntent describes what should be on the wire toward one session:
// an interned path, a shared (immutable) communities slice, and the scalar
// attributes. Computing an intent never allocates — a Route is materialized
// only when the wire state actually changes and no session of the prefix
// state already carries it (groupRoute).
type exportIntent struct {
	path       []topology.ASN
	comm       []uint32
	med        int
	originNode topology.NodeID
}

// desiredExport computes the export intent toward session sess, or ok=false
// if nothing should be advertised. *transit caches the best route's transit
// path across the sessions of one export pass; nil until first needed.
func (s *Speaker) desiredExport(st *prefixState, sess int, transit *[]topology.ASN) (it exportIntent, ok bool) {
	best := st.best
	if best == nil {
		return exportIntent{}, false
	}
	adj := s.node.Adj[sess]

	if st.bestSess == -1 {
		// Locally originated: apply the origination policy.
		pol := st.origin.pol
		prepend := pol.Prepend
		if np, ok := pol.PerNeighbor[adj.To]; ok {
			if !np.Export {
				return exportIntent{}, false
			}
			prepend = np.Prepend
		}
		return exportIntent{
			path:       s.sh.intern.repeat(s.node.ASN, 1+prepend),
			comm:       pol.Communities,
			med:        pol.MED,
			originNode: s.node.ID,
		}, true
	}

	// Transit route. Split horizon: never send a route back over the
	// session it was learned from.
	if int(st.bestSess) == sess {
		return exportIntent{}, false
	}
	// Well-known communities (RFC 1997): NO_ADVERTISE stops the route
	// here; NO_EXPORT confines it to the AS that received it (every
	// speaker is its own AS at this granularity, so both stop export).
	if best.HasCommunity(CommunityNoAdvertise) || best.HasCommunity(CommunityNoExport) {
		return exportIntent{}, false
	}
	// Gao-Rexford export: routes learned from peers or providers are only
	// exported to customers.
	learnedRel := s.node.Adj[st.bestSess].Rel
	if learnedRel != topology.RelCustomer && adj.Rel != topology.RelCustomer {
		return exportIntent{}, false
	}
	// Sender-side loop avoidance: the neighbor would reject a path
	// containing its own ASN.
	if best.ContainsASN(s.net.topo.Node(adj.To).ASN) {
		return exportIntent{}, false
	}
	if *transit == nil {
		*transit = s.sh.intern.extend(s.node.ASN, best.Path)
	}
	return exportIntent{
		path:       *transit,
		comm:       best.Communities,
		med:        0,
		originNode: best.OriginNode,
	}, true
}

// samePath compares AS paths with a pointer-equality fast path: interned
// paths with equal content are the same slice, so the content comparison
// only runs for slices from another intern table — a restored network's
// first exports against the snapshot's adj-RIB-out.
func samePath(a, b []topology.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

func sameComm(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

// intentMatches reports whether out (the last transmitted route on the
// session) already carries the intent on the wire. The prefix is implied:
// out routes are built for the prefix of the state they live in.
func intentMatches(it exportIntent, out *Route) bool {
	return out != nil && out.MED == it.med && samePath(out.Path, it.path) &&
		sameComm(out.Communities, it.comm)
}

// groupRoute returns the Route that carries intent it for st: the one
// export built last, else the one an adj-RIB-out slot already holds, else a
// new one. Every session of a prefix state that carries the same intent
// thus holds one pointer (an update group), and a best change materializes
// one Route however many sessions it reaches.
func (s *Speaker) groupRoute(st *prefixState, it exportIntent) *Route {
	carries := func(r *Route) bool { return intentMatches(it, r) && r.OriginNode == it.originNode }
	if carries(st.sent) {
		return st.sent
	}
	for sess := range st.adj {
		if r := s.out(st, sess); carries(r) {
			st.sent = r
			return r
		}
	}
	st.sent = &Route{Prefix: s.net.prefixes[st.id], Path: it.path, MED: it.med, OriginNode: it.originNode, Communities: it.comm}
	return st.sent
}

// export transmits the desired state toward session sess, honoring MRAI for
// advertisements. Withdrawals are sent immediately.
func (s *Speaker) export(st *prefixState, sess int) {
	var transit []topology.ASN
	s.exportPass(st, sess, &transit)
}

// exportPass is export as one session of a pass that shares the interned
// transit path in *transit (see desiredExport).
func (s *Speaker) exportPass(st *prefixState, sess int, transit *[]topology.ASN) {
	if u, ok := s.exportUpdate(st, sess, transit); ok {
		s.transmit(sess, u)
	}
}

// exportUpdate brings session sess's adj-RIB-out toward its export intent:
// it returns the update to put on the wire now, if any, or queues an MRAI
// timer when an advertisement must wait. Network.Install calls it too,
// with a transmit of its own, so a solved world's adj-RIBs follow the very
// rules a converge applies.
func (s *Speaker) exportUpdate(st *prefixState, sess int, transit *[]topology.ASN) (update, bool) {
	s.mustOwn(st)
	if s.sessDown(sess) {
		// Nothing can be sent on a down session; the full re-advertisement
		// at session establishment brings the neighbor up to date.
		return update{}, false
	}
	it, want := s.desiredExport(st, sess, transit)
	if out := s.out(st, sess); want {
		if intentMatches(it, out) {
			return update{}, false
		}
	} else if out == nil {
		return update{}, false
	}
	now := s.sh.sim.Now()
	if !want && !s.net.cfg.PaceWithdrawals {
		s.setOut(st, sess, nil)
		return update{typ: Withdraw, id: st.id}, true
	}
	a := &st.adj[sess]
	if now >= a.next {
		a.next = now + s.mraiInterval()
		if !want {
			s.setOut(st, sess, nil)
			return update{typ: Withdraw, id: st.id}, true
		}
		r := s.groupRoute(st, it)
		s.setOut(st, sess, r)
		return update{typ: Announce, id: st.id, route: r}, true
	}
	if st.pending == nil {
		st.pending = make([]bool, len(st.adj))
	}
	if !st.pending[sess] {
		st.pending[sess] = true
		pe := s.sh.newPendingExport()
		pe.st, pe.sess = st, sess
		s.sh.sim.AtCall(a.next, runPendingExport, pe)
	}
	return update{}, false
}

func (s *Speaker) mraiInterval() netsim.Seconds {
	cfg := s.net.cfg
	if cfg.MRAI <= 0 {
		return 0
	}
	j := cfg.MRAIJitter
	return cfg.MRAI * (1 + s.sh.sim.Jitter(-j, j))
}

// transmit delivers an update to the neighbor on session sess after link
// and processing delay.
//
//cdnlint:allocfree pinned by TestSendPathZeroAllocs
func (s *Speaker) transmit(sess int, u update) {
	adj := s.node.Adj[sess]
	peer := &s.net.speakers[adj.To]
	rev := s.reverse(sess)
	if rev < 0 {
		return // asymmetric link; Validate prevents this
	}
	s.net.m.sent.Inc()
	if u.typ == Withdraw {
		s.net.m.sentWdr.Inc()
	} else {
		s.net.m.sentAnn.Inc()
	}
	// The route rides the wire as-is: it is published (stored in this
	// speaker's adj-RIB-out) and therefore immutable, so the receiver can
	// share it. No clone.
	delay := adj.Delay + s.sh.sim.Jitter(s.net.cfg.ProcMin, s.net.cfg.ProcMax)
	at := s.sh.sim.Now() + delay
	// Preserve TCP's in-order delivery on the session.
	last := &s.net.last[int(s.base)+sess]
	if at <= *last {
		at = *last + 1e-6
	}
	*last = at
	if peer.sh != s.sh {
		// Cross-shard: buffer by value for the barrier merge. The delivery
		// time carries at least the lookahead window of latency, so it lands
		// strictly inside a later round on the destination shard.
		s.sh.sendCross(at, peer, rev, u)
		return
	}
	// The delivery payload captures the receiver-side session epoch: if the
	// session is reset (or the link fails) while this update is in flight,
	// the TCP connection it rode on is gone and the update must never be
	// delivered (checked by runDelivery).
	d := s.sh.newDelivery()
	d.peer, d.rev, d.epoch, d.u = peer, rev, peer.sessEpoch(rev), u
	s.sh.sim.AtCall(at, runDelivery, d)
}

// flushSession clears all per-session RIB state for sess — adj-RIB-in,
// adj-RIB-out, and MRAI pacing — as a session teardown does, then
// re-selects and re-exports every prefix whose best route was lost.
// Iteration is in Network.order (sorted prefix order) so fault injection
// stays deterministic.
func (s *Speaker) flushSession(sess int) {
	for _, id := range s.net.order {
		if s.at(id) == nil {
			continue
		}
		st := s.own(id)
		in := s.in(st, sess)
		s.setOut(st, sess, nil)
		st.adj[sess].next = 0
		if in == nil {
			continue
		}
		s.setIn(st, sess, nil)
		s.net.m.adjIn.Add(-1)
		s.recompute(st)
		s.exportAll(st)
	}
}

// readvertiseSession replays the full table toward sess, as a speaker does
// after session establishment (RFC 4271 §9.4: initial exchange of the
// entire Adj-RIB-Out). adj-RIB-out for the session is empty after the
// flush, so export sends everything the policy allows.
func (s *Speaker) readvertiseSession(sess int) {
	for _, id := range s.net.order {
		if s.at(id) != nil {
			s.export(s.own(id), sess)
		}
	}
}
