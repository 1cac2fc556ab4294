// Package bgp implements an AS-level BGP-4 simulator: UPDATE propagation,
// per-neighbor adj-RIB-in, the standard decision process, Gao-Rexford
// import preferences and export filtering, AS-path prepending, per-neighbor
// origination policies, and MRAI-paced advertisement with unpaced
// withdrawals.
//
// The model reproduces the two convergence regimes the paper's techniques
// depend on:
//
//   - Withdrawal of a prefix with no valid alternative origin triggers BGP
//     path exploration: routers fall back to progressively longer stale
//     routes, each re-advertisement paced by the neighbor's MRAI timer, so
//     convergence takes on the order of MRAI × exploration depth (the ~100 s
//     median / minutes tail of Appendix A, after Labovitz et al.).
//   - A new announcement (or a withdrawal when valid alternative origins
//     already exist, as in anycast) propagates in a single wave limited only
//     by per-hop processing and link delay (the ~10 s of Appendix B).
//
// Speakers correspond one-to-one with topology nodes. The CDN's sites are
// distinct speakers sharing one origin ASN, exactly like PEERING sites.
package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/topology"
)

// LOCAL_PREF values implementing Gao-Rexford import preferences: prefer
// customer routes over peer routes over provider routes.
const (
	PrefCustomer = 300
	PrefPeer     = 200
	PrefProvider = 100
)

// Well-known communities (RFC 1997).
const (
	// CommunityNoExport: routes carrying it are not propagated beyond the
	// receiving AS.
	CommunityNoExport uint32 = 0xFFFFFF01
	// CommunityNoAdvertise: routes carrying it are not advertised to any
	// peer at all.
	CommunityNoAdvertise uint32 = 0xFFFFFF02
)

// Route is a BGP path for one prefix as the sender put it on the wire.
//
// Immutability invariant: a Route is frozen the moment it is published —
// stored into an adj-RIB slot, handed to send, or passed to any callback.
// Only the speaker code that constructs a Route may set its fields, and only
// before publishing it. Everything downstream relies on this: export builds
// one Route per best change and shares it across every session whose wire
// attributes match (an update group), send puts that adj-RIB-out pointer on
// the wire, the receiver's adj-RIB-in holds the very same pointer, feeds and
// OnBestChange callbacks see live RIB pointers, AS paths are interned per
// Network, and snapshots share Route pointers copy-on-write across restored
// worlds. The receiver-local facts — LOCAL_PREF and the next hop — are not
// on the Route: they follow from the session a speaker learned it on.
// Mutating a published Route corrupts all of those at once — change state
// by building a new Route and swapping the pointer.
type Route struct {
	Prefix netip.Prefix
	// Path is the AS path. Path[0] is the ASN of the speaker that sent the
	// route (after its prepending); Path[len-1] is the origin ASN.
	Path []topology.ASN
	// Communities carried with the route (RFC 1997). Transitive: copied on
	// export unless a policy strips them.
	Communities []uint32
	// MED is transmitted and compared between routes from the same
	// neighbor AS.
	MED int
	// OriginNode is simulator-side bookkeeping naming an originating
	// speaker, for debugging; it takes no part in the decision process, and
	// nothing outside this package reads it. It is a breadcrumb, not where
	// the route leads: a transit speaker whose best moves between
	// wire-identical routes of two sites of one AS re-exports nothing, so
	// downstream of it a converged route names whichever site's route
	// arrived first. A solved world's routes (Network.Install) name where
	// the chain of best sessions ends. Digests omit it (appendRoute).
	OriginNode topology.NodeID
}

// HasCommunity reports whether the route carries community c.
func (r *Route) HasCommunity(c uint32) bool {
	return slices.Contains(r.Communities, c)
}

// ContainsASN reports whether asn appears in the AS path.
func (r *Route) ContainsASN(asn topology.ASN) bool {
	return slices.Contains(r.Path, asn)
}

// sameWire reports whether two routes are identical as transmitted on the
// wire (prefix, path, MED, communities).
func sameWire(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix && a.MED == b.MED && slices.Equal(a.Path, b.Path) &&
		slices.Equal(a.Communities, b.Communities)
}

// UpdateType distinguishes announcements from withdrawals.
type UpdateType int8

const (
	// Announce advertises a (new or replacement) path.
	Announce UpdateType = iota
	// Withdraw removes any previously advertised path for the prefix.
	Withdraw
)

// String returns "A" or "W", matching common BGP dump notation.
func (u UpdateType) String() string {
	if u == Withdraw {
		return "W"
	}
	return "A"
}

// Update is a single-prefix BGP UPDATE message.
type Update struct {
	Type   UpdateType
	Prefix netip.Prefix
	Route  *Route // nil for withdrawals
}

// update is an Update as it rides between speakers: the prefix by its id
// (Network.prefixes), 16 bytes where the public form is 48. Feeds and
// callbacks get the public form.
type update struct {
	typ   UpdateType
	id    int32
	route *Route // nil for withdrawals
}

// NeighborPolicy configures origination toward one specific neighbor.
type NeighborPolicy struct {
	// Export enables advertising the originated prefix to this neighbor.
	Export bool
	// Prepend adds this many extra copies of the origin ASN for this
	// neighbor (on top of the one mandatory copy).
	Prepend int
}

// OriginPolicy configures how a speaker originates a prefix.
//
// Like Route, an OriginPolicy is immutable once passed to Originate: the
// speaker stores the pointer, exports share its Communities slice directly,
// and snapshots share the policy across restored worlds. To change a
// policy, build a new one and re-originate.
type OriginPolicy struct {
	// Prepend adds extra copies of the origin ASN on all exports.
	Prepend int
	// MED is the multi-exit discriminator attached to the announcement.
	MED int
	// Communities attached to the announcement (RFC 1997). The well-known
	// CommunityNoExport confines the route to the receiving AS.
	Communities []uint32
	// PerNeighbor overrides Prepend/export for specific neighbors. A
	// neighbor present with Export=false is excluded entirely — used by the
	// scoped variant of proactive-prepending that announces backup routes
	// only to neighbors that also connect to the primary site.
	PerNeighbor map[topology.NodeID]NeighborPolicy
}

// FeedFunc receives a timestamped copy of every best-route change at a
// speaker, emulating a route collector session (RIS/RouteViews peer).
type FeedFunc func(now netsim.Seconds, peer topology.NodeID, u Update)

// BestChangeFunc is invoked when a speaker's best route for a prefix
// changes. route is nil when the prefix became unreachable. sess is the
// session route was learned on — an index into the node's adjacency list,
// so the next hop — or -1 for a local origination and for nil. at is the
// virtual time of the change on the changing speaker's own shard clock: in
// the middle of a sharded round the control simulator still sits at the
// previous barrier, so a subscriber that stamps what it records must use at.
// The callback runs on that speaker's shard goroutine and may write only
// state the node owns. Used by the data plane to maintain FIBs and to
// journal them for probers.
type BestChangeFunc func(node topology.NodeID, prefix netip.Prefix, route *Route, sess int, at netsim.Seconds)

// Config holds the timing constants of the protocol model.
type Config struct {
	// MRAI is the minimum route advertisement interval per (session,
	// prefix). RFC 4271 suggests 30 s for eBGP; withdrawals are not paced
	// (WRATE off), which is what makes path exploration slow relative to
	// announcement propagation.
	MRAI netsim.Seconds
	// MRAIJitter scales each speaker's MRAI by 1±jitter to avoid phase lock.
	MRAIJitter float64
	// ProcMin/ProcMax bound the per-update processing delay applied on
	// delivery, modeling router update processing and batching.
	ProcMin, ProcMax netsim.Seconds
	// Damping enables route-flap damping (RFC 2439, damping.go). Off by
	// default: the paper's measurement-era collectors largely post-date
	// widespread damping deployment, and the evaluation does not assume
	// it; BenchmarkAblationDamping quantifies its effect.
	Damping bool
	// PaceWithdrawals applies the MRAI timer to withdrawals as well as
	// advertisements. RFC 4271 exempts withdrawals, but deployed routers of
	// the era behind the measured ~100 s withdrawal convergence (Labovitz
	// et al., and this paper's Appendix A) paced all updates per peer;
	// without this, the invalidation cascade squelches path exploration in
	// seconds. The first update after a quiet period is never delayed, so
	// anycast failover (one withdrawal, pre-existing alternatives) stays
	// fast either way. Disabled in the zero value; enabled by
	// DefaultConfig.
	PaceWithdrawals bool
}

// DefaultConfig returns timing constants calibrated so that anycast
// announcement propagation lands near the paper's ~10 s median (Appendix B)
// and unicast withdrawal convergence near ~100 s median (Appendix A).
func DefaultConfig() Config {
	return Config{
		MRAI:            45,
		MRAIJitter:      0.3,
		ProcMin:         0.6,
		ProcMax:         4.5,
		PaceWithdrawals: true,
	}
}

// Network is the collection of all BGP speakers bound to a topology and a
// simulation kernel.
type Network struct {
	sim  *netsim.Sim        // the control simulator (== shards[0].sim when unsharded)
	topo *topology.Topology //cdnlint:nosnapshot immutable wiring; restore targets a network built over the same topology
	cfg  Config             //cdnlint:nosnapshot immutable wiring; restore targets a network built with the same config
	// speakers is the one slab every speaker is carved from, indexed by
	// node ID.
	speakers []Speaker
	onBest   []BestChangeFunc //cdnlint:nosnapshot subscriber wiring belongs to the target network, not the captured one

	// The per-session tables, one entry per session in the topology's
	// ReverseSessions numbering: session i of a speaker is entry base+i
	// (Speaker.base). rev is the topology's own pairing table, shared
	// read-only by every network over it.
	rev []int32 //cdnlint:nosnapshot immutable wiring: the topology's table
	// last[i] is the latest delivery time scheduled on session i. BGP runs
	// over TCP, so updates on one session must arrive in the order they
	// were sent even though per-update processing jitter varies; without
	// this, a withdrawal could overtake an in-flight announcement and
	// strand a stale route at the neighbor forever. Written on the sending
	// speaker's shard goroutine.
	last []netsim.Seconds
	// down[i] is true while session i is administratively or physically
	// down (link failure, maintenance): no updates are sent or accepted on
	// it. epoch[i] counts the session's establishments; deliveries
	// scheduled under an older epoch are dropped, because a session reset
	// tears down the TCP connection and in-flight updates never arrive.
	// Only the fault methods (faults.go) write them, in control context. A
	// nil table means every session is up at epoch 0, so a network that
	// never faulted allocates neither; a restored network shares its
	// snapshot's until its first fault clones them (ownSessions).
	down  []bool
	epoch []uint64
	// sessShared is true while down and epoch belong to a snapshot.
	sessShared bool //cdnlint:nosnapshot who may write down and epoch, not what they hold: Restore sets it

	// prefixes maps a prefix id to its prefix. A prefix gets the next id at
	// its first Originate, which runs only in control context, so shard
	// goroutines read the table and never see it change; the ids index
	// every speaker's rib and ride every UPDATE. order lists the ids in
	// comparePrefix order, the order of every digest and table walk.
	prefixes []netip.Prefix
	order    []int32

	// shards hold the per-shard kernels, intern tables, payload pools, and
	// mailboxes; see shard.go. Unsharded networks have exactly one shard
	// wrapping the control simulator.
	shards []*shard
	// runner coordinates barrier rounds across shards; nil when unsharded.
	runner *netsim.ShardRunner //cdnlint:nosnapshot wiring: rebuilt with the network it drives

	// Metrics are nil until Instrument attaches a registry; every update
	// method is nil-receiver safe, so the uninstrumented hot path pays
	// only the nil checks.
	m struct {
		sent         *obs.Counter
		sentAnn      *obs.Counter
		sentWdr      *obs.Counter
		received     *obs.Counter
		dampFlaps    *obs.Counter
		dampSupp     *obs.Counter
		prefixStates *obs.Counter
		adjIn        *obs.Gauge
		xshard       *obs.Counter
		xfeed        *obs.Counter
	}
}

// New builds a Network with one speaker per topology node, running entirely
// on sim.
func New(sim *netsim.Sim, topo *topology.Topology, cfg Config) *Network {
	sh := &shard{idx: 0, sim: sim, intern: newPathIntern(), out: make([][]xmsg, 1)}
	return build(sim, topo, cfg, []*shard{sh}, nil)
}

// build wires speakers to their shards. assign maps node ID to shard index;
// nil assigns everything to shard 0.
func build(sim *netsim.Sim, topo *topology.Topology, cfg Config, shards []*shard, assign []int) *Network {
	off, rev := topo.ReverseSessions()
	n := &Network{sim: sim, topo: topo, cfg: cfg, shards: shards, rev: rev, last: make([]netsim.Seconds, len(rev))}
	n.speakers = make([]Speaker, topo.Len())
	for v, node := range topo.Nodes {
		sh := shards[0]
		if assign != nil {
			sh = shards[assign[v]]
		}
		n.speakers[v] = Speaker{net: n, sh: sh, node: node, base: off[v]}
	}
	return n
}

// Instrument attaches protocol metrics to r: UPDATEs sent (split into
// announcements and withdrawals) and received, damping flaps and
// suppressions, per-prefix RIB state allocations, and the aggregate
// adj-RIB-in occupancy across all speakers. Instrumentation is pure
// counting — no randomness, no scheduling — so instrumented runs stay
// bit-identical to bare ones. A nil registry detaches.
func (n *Network) Instrument(r *obs.Registry) {
	n.m.sent = r.Counter("bgp_updates_sent_total")
	n.m.sentAnn = r.Counter("bgp_announcements_sent_total")
	n.m.sentWdr = r.Counter("bgp_withdrawals_sent_total")
	n.m.received = r.Counter("bgp_updates_received_total")
	n.m.dampFlaps = r.Counter("bgp_damping_flaps_total")
	n.m.dampSupp = r.Counter("bgp_damping_suppressions_total")
	n.m.prefixStates = r.Counter("bgp_prefix_states_total")
	n.m.adjIn = r.Gauge("bgp_adj_rib_in_entries")
	if len(n.shards) > 1 {
		// Inter-shard traffic volume, plus each shard kernel's own event
		// metrics (shards share the registry, so the netsim_* counters
		// aggregate across control and all shards).
		n.m.xshard = r.Counter("bgp_intershard_updates_total")
		n.m.xfeed = r.Counter("bgp_intershard_feed_updates_total")
		for _, sh := range n.shards {
			//lint:ignore cdnlint/shardsafe instrumentation attaches at construction, before any shard goroutine exists
			sh.sim.Instrument(r)
		}
		n.runner.Instrument(r)
	}
}

// MessageCount tallies UPDATE messages delivered across all speakers, for
// ablation studies. Each speaker counts its own deliveries (so shards never
// contend on a shared counter); this sums them.
func (n *Network) MessageCount() uint64 {
	var total uint64
	for i := range n.speakers {
		total += n.speakers[i].msgCount
	}
	return total
}

// Sim returns the simulation kernel the network runs on.
func (n *Network) Sim() *netsim.Sim { return n.sim }

// Topology returns the underlying AS graph.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Speaker returns the speaker for a node.
func (n *Network) Speaker(id topology.NodeID) *Speaker {
	if int(id) < 0 || int(id) >= len(n.speakers) {
		return nil
	}
	return &n.speakers[id]
}

// OnBestChange registers a callback fired on every loc-RIB best change at
// any speaker. Registration must happen before routes start flowing.
func (n *Network) OnBestChange(fn BestChangeFunc) {
	n.onBest = append(n.onBest, fn)
}

// Originate makes node announce prefix with the given policy. Passing a nil
// policy uses defaults (no prepending, export to all neighbors).
func (n *Network) Originate(node topology.NodeID, prefix netip.Prefix, pol *OriginPolicy) error {
	sp := n.Speaker(node)
	if sp == nil {
		return fmt.Errorf("bgp: no speaker for node %d", node)
	}
	if pol == nil {
		pol = &OriginPolicy{}
	}
	sp.originate(n.prefixIDOrNew(prefix), pol)
	return nil
}

// Withdraw removes node's origination of prefix. It is a no-op if the node
// does not originate the prefix.
func (n *Network) Withdraw(node topology.NodeID, prefix netip.Prefix) {
	sp := n.Speaker(node)
	if sp == nil {
		return
	}
	if id, ok := n.prefixID(prefix); ok {
		sp.withdrawOrigin(id)
	}
}

// search returns p's position in order and whether p has an id.
func (n *Network) search(p netip.Prefix) (int, bool) {
	return slices.BinarySearchFunc(n.order, p, func(id int32, p netip.Prefix) int {
		return comparePrefix(n.prefixes[id], p)
	})
}

// prefixID returns p's id, if any Originate has given it one.
func (n *Network) prefixID(p netip.Prefix) (int32, bool) {
	if i, ok := n.search(p); ok {
		return n.order[i], true
	}
	return 0, false
}

// prefixIDOrNew returns p's id, handing out the next one if p has none.
// Control context only. A restored network's tables are capacity-limited
// windows of the snapshot's, so the append and the insert copy them rather
// than write into arrays that sibling restores read.
func (n *Network) prefixIDOrNew(p netip.Prefix) int32 {
	i, ok := n.search(p)
	if ok {
		return n.order[i]
	}
	id := int32(len(n.prefixes))
	n.prefixes = append(n.prefixes, p)
	n.order = slices.Insert(n.order, i, id)
	return id
}

// AttachFeed registers a route-collector session at peer: every best-route
// change the peer would export is also delivered to fn (full feed, no
// export policy), after the usual processing delay.
func (n *Network) AttachFeed(peer topology.NodeID, fn FeedFunc) error {
	sp := n.Speaker(peer)
	if sp == nil {
		return fmt.Errorf("bgp: no speaker for node %d", peer)
	}
	sp.feeds = append(sp.feeds, fn)
	return nil
}

// ConvergeSynchronously runs the simulation until no BGP events remain or
// the next one lies more than maxVirtual seconds after the start, returning
// the virtual time consumed. No event past that budget executes, on one
// kernel or across shards (where the drain runs barrier rounds).
func (n *Network) ConvergeSynchronously(maxVirtual netsim.Seconds) netsim.Seconds {
	start := n.sim.Now()
	n.sim.Drain(start + maxVirtual)
	return n.sim.Now() - start
}
