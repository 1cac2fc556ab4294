package bgp

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"bestofboth/internal/topology"
)

// ErrSolveDamping refuses a solve under route-flap damping: a damped
// world's routing after a converge depends on when each route flapped, so
// it has no clock-free fixed point.
var ErrSolveDamping = errors.New("bgp: route-flap damping has no clock-free fixed point to solve")

// Origination is one announcement a solve starts from: Node originates
// Prefix under Policy, nil for a plain announcement (Network.Originate's
// arguments).
type Origination struct {
	Node   topology.NodeID
	Prefix netip.Prefix
	Policy *OriginPolicy
}

// Solution is the stable routing state of a set of originations: per
// ⟨node, prefix⟩ the route an event-driven converge of the same
// originations leaves in the loc-RIB, computed without a clock. See Solve.
type Solution struct {
	topo     *topology.Topology
	prefixes []netip.Prefix   // comparePrefix order
	origins  [][]Origination  // per prefix, one per originating node
	best     [][]solvedChoice // per prefix, per node
	// settled lists, per prefix, the nodes with a route in the order the
	// solve gave them one: origins first, and every node after the node its
	// route comes from (Network.Install's order).
	settled [][]topology.NodeID
}

// solvedChoice is one node's best route for one prefix: the session it was
// learned on (sessLocal, or sessNone for no route), its path length and the
// index of its origination. The path itself follows from the chain of
// choices (see Solution.Best).
type solvedChoice struct {
	sess int32
	plen int32
	org  int32
}

const (
	sessLocal = -1
	sessNone  = -2
)

// offer is a route on the wire toward node to, as to would hold it in
// adj-RIB-in slot sess: the decision key's fields and the origination.
type offer struct {
	to   topology.NodeID
	sess int32
	pref int32
	plen int32
	asn  topology.ASN // the neighbor AS the route comes from
	med  int
	org  int32
}

// prefer reports whether a is better than b for the same node: the
// decision process of DESIGN.md §3b, lexicographic on (LOCAL_PREF, path
// length, neighbor ASN, MED within one neighbor AS, session).
func prefer(a, b *offer) bool {
	switch {
	case a.pref != b.pref:
		return a.pref > b.pref
	case a.plen != b.plen:
		return a.plen < b.plen
	case a.asn != b.asn:
		return a.asn < b.asn
	case a.med != b.med:
		return a.med < b.med
	}
	return a.sess < b.sess
}

// Solve computes the converged routing of origs over topo. Under
// Gao-Rexford preferences and export rules, and the strict total order of
// prefer, each prefix has one stable routing (DESIGN.md "Solving the fixed
// point"), so it is found by a generalized Dijkstra rather than by
// exchanging UPDATEs: offers are queued by (relationship class, path
// length) and a node takes the best offer of the first bucket that reaches
// it. Customer routes fill up the provider hierarchy first, peer routes
// then go one hop, and provider routes last go down to customers. The
// export rules are desiredExport's. A repeated ⟨node, prefix⟩ keeps its last
// policy, as re-origination does; cfg only decides whether the solve is
// possible at all.
func Solve(topo *topology.Topology, cfg Config, origs []Origination) (*Solution, error) {
	if cfg.Damping {
		return nil, ErrSolveDamping
	}
	for _, o := range origs {
		if topo.Node(o.Node) == nil {
			return nil, fmt.Errorf("bgp: solve: no node %d", o.Node)
		}
	}
	sorted := slices.Clone(origs)
	slices.SortStableFunc(sorted, func(a, b Origination) int { return comparePrefix(a.Prefix, b.Prefix) })
	sv := newSolver(topo)
	sol := &Solution{topo: topo}
	for len(sorted) > 0 {
		n := 1
		for n < len(sorted) && sorted[n].Prefix == sorted[0].Prefix {
			n++
		}
		var group []Origination
		for _, o := range sorted[:n] {
			if o.Policy == nil {
				o.Policy = &OriginPolicy{}
			}
			if i := slices.IndexFunc(group, func(g Origination) bool { return g.Node == o.Node }); i >= 0 {
				group[i] = o
			} else {
				group = append(group, o)
			}
		}
		sol.prefixes = append(sol.prefixes, sorted[0].Prefix)
		sol.origins = append(sol.origins, group)
		best, settled := sv.solve(group)
		sol.best = append(sol.best, best)
		sol.settled = append(sol.settled, settled)
		sorted = sorted[n:]
	}
	return sol, nil
}

// solver holds one Solve's scratch state, reused across prefixes.
type solver struct {
	topo *topology.Topology
	// rev[off[v]+i] is the session by which v.Adj[i].To refers back to v.
	off []int32
	rev []int32

	best    []solvedChoice
	origins []Origination
	queue   [3][][]offer // by receiver-side relationship, then path length
	lo      [3]int       // lowest bucket of each class that may hold offers
	tent    []offer      // the best offer of the current bucket, per node
	seen    []bool
	touched []topology.NodeID
}

func newSolver(topo *topology.Topology) *solver {
	n := topo.Len()
	sv := &solver{topo: topo, tent: make([]offer, n), seen: make([]bool, n)}
	sv.off, sv.rev = reverseSessions(topo)
	return sv
}

// solve computes every node's choice for the prefix the origins announce,
// and the order the nodes with a route settled in.
func (sv *solver) solve(origins []Origination) ([]solvedChoice, []topology.NodeID) {
	sv.origins = origins
	sv.best = make([]solvedChoice, sv.topo.Len())
	for i := range sv.best {
		sv.best[i].sess = sessNone
	}
	var settled []topology.NodeID
	// A local origination beats every learned route.
	for i, o := range origins {
		sv.best[o.Node] = solvedChoice{sess: sessLocal, org: int32(i)}
		settled = append(settled, o.Node)
	}
	for _, o := range origins {
		sv.export(o.Node)
	}
	for {
		class, plen := sv.next()
		if class < 0 {
			break
		}
		batch := sv.queue[class][plen]
		for i := range batch {
			of := &batch[i]
			if sv.best[of.to].sess != sessNone {
				continue
			}
			if !sv.seen[of.to] {
				sv.seen[of.to] = true
				sv.tent[of.to] = *of
				sv.touched = append(sv.touched, of.to)
			} else if prefer(of, &sv.tent[of.to]) {
				sv.tent[of.to] = *of
			}
		}
		sv.queue[class][plen] = batch[:0]
		for _, u := range sv.touched {
			sv.seen[u] = false
			of := &sv.tent[u]
			sv.best[u] = solvedChoice{sess: of.sess, plen: of.plen, org: of.org}
		}
		for _, u := range sv.touched {
			sv.export(u)
		}
		settled = append(settled, sv.touched...)
		sv.touched = sv.touched[:0]
	}
	return sv.best, settled
}

// next returns the first non-empty bucket in (class, path length) order,
// class -1 when every bucket is empty.
func (sv *solver) next() (class, plen int) {
	for c := range sv.queue {
		for ; sv.lo[c] < len(sv.queue[c]); sv.lo[c]++ {
			if len(sv.queue[c][sv.lo[c]]) > 0 {
				return c, sv.lo[c]
			}
		}
	}
	return -1, 0
}

// export offers node v's chosen route to every neighbor that has none yet,
// under desiredExport's rules.
func (sv *solver) export(v topology.NodeID) {
	ch := sv.best[v]
	node := sv.topo.Nodes[v]
	o := &sv.origins[ch.org]
	for i, adj := range node.Adj {
		if sv.best[adj.To].sess != sessNone {
			continue
		}
		recv := sv.topo.Nodes[adj.To]
		var plen, med int
		if ch.sess == sessLocal {
			// Locally originated: the origination policy.
			prepend := o.Policy.Prepend
			if np, ok := o.Policy.PerNeighbor[adj.To]; ok {
				if !np.Export {
					continue
				}
				prepend = np.Prepend
			}
			plen, med = 1+prepend, o.Policy.MED
		} else {
			// Transit: split horizon, NO_ADVERTISE and NO_EXPORT,
			// Gao-Rexford export (peer and provider routes go to customers
			// only) and the sender-side loop check.
			if int(ch.sess) == i {
				continue
			}
			if slices.Contains(o.Policy.Communities, CommunityNoAdvertise) || slices.Contains(o.Policy.Communities, CommunityNoExport) {
				continue
			}
			if node.Adj[ch.sess].Rel != topology.RelCustomer && adj.Rel != topology.RelCustomer {
				continue
			}
			if sv.pathContains(v, recv.ASN) {
				continue
			}
			plen = int(ch.plen) + 1
		}
		// The receiver drops a path carrying its own ASN.
		if recv.ASN == node.ASN {
			continue
		}
		class := adj.Rel.Invert() // the relationship as the receiver sees it
		sv.push(int(class), offer{
			to:   adj.To,
			sess: sv.rev[sv.off[v]+int32(i)],
			pref: int32(importPref(class)),
			plen: int32(plen),
			asn:  node.ASN,
			med:  med,
			org:  ch.org,
		})
	}
}

func (sv *solver) push(class int, of offer) {
	q := sv.queue[class]
	for len(q) <= int(of.plen) {
		q = append(q, nil)
	}
	q[of.plen] = append(q[of.plen], of)
	sv.queue[class] = q
	sv.lo[class] = min(sv.lo[class], int(of.plen))
}

// pathContains reports whether the AS path of v's chosen route holds asn,
// walking the chain of choices from v toward the origin.
func (sv *solver) pathContains(v topology.NodeID, asn topology.ASN) bool {
	for sv.best[v].sess >= 0 {
		v = sv.topo.Nodes[v].Adj[sv.best[v].sess].To
		if sv.topo.Nodes[v].ASN == asn {
			return true
		}
	}
	return false
}

// Originations lists the network's live originations, node by node and in
// prefix order within a node: the input under which Solve reproduces what
// the network converges to. Control context only.
func (n *Network) Originations() []Origination {
	var out []Origination
	for _, sp := range n.speakers {
		for _, id := range n.order {
			if st := sp.at(id); st != nil && st.origin != nil {
				out = append(out, Origination{Node: sp.node.ID, Prefix: n.prefixes[id], Policy: st.origin.pol})
			}
		}
	}
	return out
}

// Prefixes returns the solved prefixes in (address, length) order. The
// slice is the solution's own.
func (s *Solution) Prefixes() []netip.Prefix { return s.prefixes }

// choice returns node's choice for p, ok false when p was not solved.
func (s *Solution) choice(node topology.NodeID, p netip.Prefix) (solvedChoice, int, bool) {
	i, ok := slices.BinarySearchFunc(s.prefixes, p, comparePrefix)
	if !ok || s.topo.Node(node) == nil {
		return solvedChoice{sess: sessNone}, 0, false
	}
	return s.best[i][node], i, true
}

// BestSession is Speaker.BestSession's answer in the solved state: the
// session node's best route for p was learned on, -1 for a local
// origination. ok is false when node has no route for p.
func (s *Solution) BestSession(node topology.NodeID, p netip.Prefix) (sess int, ok bool) {
	c, _, _ := s.choice(node, p)
	return int(c.sess), c.sess != sessNone
}

// Best is Speaker.Best's answer in the solved state: node's best route for
// p as a fresh Route (prefix, AS path, MED, communities, origin node), or
// nil.
func (s *Solution) Best(node topology.NodeID, p netip.Prefix) *Route {
	c, i, _ := s.choice(node, p)
	if c.sess == sessNone {
		return nil
	}
	o := s.origins[i][c.org]
	if c.sess == sessLocal {
		// The origin's own loc-RIB entry carries the policy's MED but not
		// its communities, which go onto the wire at export (originate).
		return &Route{Prefix: p, MED: o.Policy.MED, OriginNode: o.Node}
	}
	// Walk the chain: one ASN per transit hop, then the origin's ASN as
	// many times as the node next to it received it. Only that node holds
	// the policy's MED; transit exports carry 0.
	best := s.best[i]
	path := make([]topology.ASN, 0, c.plen)
	med := 0
	for v := node; ; {
		u := s.topo.Nodes[v].Adj[best[v].sess].To
		asn := s.topo.Nodes[u].ASN
		if best[u].sess != sessLocal {
			path = append(path, asn)
			v = u
			continue
		}
		for len(path) < int(c.plen) {
			path = append(path, asn)
		}
		if v == node {
			med = o.Policy.MED
		}
		return &Route{Prefix: p, Path: path, Communities: o.Policy.Communities, MED: med, OriginNode: o.Node}
	}
}
