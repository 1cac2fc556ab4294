// Package topology models an AS-level Internet graph: autonomous systems,
// business relationships between them (customer/provider/peer, after Gao &
// Rexford), link latencies derived from geography, and a synthetic generator
// that produces Internet-like graphs with a multi-site CDN attached — the
// simulator's stand-in for the PEERING testbed and the real Internet used in
// the paper's evaluation.
package topology

import (
	"fmt"
	"net/netip"
)

// ASN is an autonomous system number.
type ASN uint32

// NodeID identifies a BGP speaker in the simulation. Most ASes have exactly
// one node; the CDN AS has one node per site, mirroring how PEERING sites
// hold independent BGP sessions while sharing an origin AS.
type NodeID int32

// Rel is the business relationship of a link from one endpoint's
// perspective.
type Rel int8

const (
	// RelCustomer means the neighbor is my customer (I provide transit).
	RelCustomer Rel = iota
	// RelPeer means the neighbor is a settlement-free peer.
	RelPeer
	// RelProvider means the neighbor is my provider (I buy transit).
	RelProvider
)

// String returns the relationship name.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return fmt.Sprintf("Rel(%d)", int8(r))
	}
}

// Invert returns the relationship as seen from the other endpoint.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return RelPeer
	}
}

// Class categorizes an AS by its role in the Internet ecosystem. The
// generator uses classes to wire a realistic hierarchy, and the Appendix C.1
// analysis uses them to classify diverging paths (R&E vs. commercial).
type Class int8

const (
	// ClassTier1 is a transit-free backbone AS (peers with all other tier-1s).
	ClassTier1 Class = iota
	// ClassTransit is a regional or national commercial transit provider.
	ClassTransit
	// ClassREN is a research-and-education network (e.g. a gigapop or NREN).
	ClassREN
	// ClassEyeball is an access network hosting end users.
	ClassEyeball
	// ClassStub is a small content or enterprise edge AS.
	ClassStub
	// ClassHypergiant is a large content provider with dense peering.
	ClassHypergiant
	// ClassCDN is the emulated CDN under study (one node per site).
	ClassCDN
	// ClassCollector is a route collector (receive-only BGP sessions).
	ClassCollector
	// ClassUniversity is a campus network, customer of a REN.
	ClassUniversity
	// ClassIXRS is an IXP route-server-like AS used for dense local peering.
	ClassIXRS
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassTier1:
		return "tier1"
	case ClassTransit:
		return "transit"
	case ClassREN:
		return "ren"
	case ClassEyeball:
		return "eyeball"
	case ClassStub:
		return "stub"
	case ClassHypergiant:
		return "hypergiant"
	case ClassCDN:
		return "cdn"
	case ClassCollector:
		return "collector"
	case ClassUniversity:
		return "university"
	case ClassIXRS:
		return "ixrs"
	default:
		return fmt.Sprintf("Class(%d)", int8(c))
	}
}

// IsRE reports whether the class is part of the research-and-education
// ecosystem, used by the Appendix C.1 divergence analysis.
func (c Class) IsRE() bool { return c == ClassREN || c == ClassUniversity }

// Point is a position on the latency plane. Coordinates are scaled so that
// Euclidean distance approximates one-way propagation delay in milliseconds.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points (≈ one-way ms).
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return sqrt(dx*dx + dy*dy)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for latency math and avoid importing math
	// in the hot path... but clarity wins: use the stdlib.
	return mathSqrt(x)
}

// Adjacency is one directed half of a BGP session.
type Adjacency struct {
	To    NodeID
	Rel   Rel     // relationship from the owning node's perspective
	Delay float64 // one-way message/packet delay in seconds
}

// Node is a BGP speaker.
type Node struct {
	ID     NodeID
	ASN    ASN
	Name   string
	Class  Class
	Loc    Point
	Adj    []Adjacency
	Prefix netip.Prefix // host prefix originated by this node (may be zero)
	Site   string       // CDN site code for ClassCDN nodes (e.g. "sea1")
}

// Topology is an immutable AS-level graph. Build one with a Builder or the
// Generate function.
type Topology struct {
	Nodes  []*Node
	byName map[string]NodeID
}

// Node returns the node with the given id, or nil if out of range.
func (t *Topology) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(t.Nodes) {
		return nil
	}
	return t.Nodes[id]
}

// NodeByName returns the node with the given unique name.
func (t *Topology) NodeByName(name string) *Node {
	id, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.Nodes[id]
}

// NodesOfClass returns all nodes of a class in id order.
func (t *Topology) NodesOfClass(c Class) []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.Class == c {
			out = append(out, n)
		}
	}
	return out
}

// Len returns the number of nodes.
func (t *Topology) Len() int { return len(t.Nodes) }

// Adjacent reports whether a has a session to b and returns the relationship
// from a's perspective.
func (t *Topology) Adjacent(a, b NodeID) (Rel, bool) {
	na := t.Node(a)
	if na == nil {
		return 0, false
	}
	for _, adj := range na.Adj {
		if adj.To == b {
			return adj.Rel, true
		}
	}
	return 0, false
}

// Validate checks structural invariants: in-range endpoints, no self-links,
// symmetric adjacencies with inverted relationships, matching delays, unique
// names, and full reachability over the undirected graph.
func (t *Topology) Validate() error {
	names := make(map[string]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if n == nil {
			return fmt.Errorf("nil node present")
		}
		if names[n.Name] {
			return fmt.Errorf("duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		seen := make(map[NodeID]bool, len(n.Adj))
		for _, adj := range n.Adj {
			if t.Node(adj.To) == nil {
				return fmt.Errorf("node %s: adjacency to unknown node %d", n.Name, adj.To)
			}
			if adj.To == n.ID {
				return fmt.Errorf("node %s: self link", n.Name)
			}
			if seen[adj.To] {
				return fmt.Errorf("node %s: duplicate adjacency to %d", n.Name, adj.To)
			}
			seen[adj.To] = true
			if adj.Delay <= 0 {
				return fmt.Errorf("link %s->%d: non-positive delay %v", n.Name, adj.To, adj.Delay)
			}
			back, ok := t.Adjacent(adj.To, n.ID)
			if !ok {
				return fmt.Errorf("link %s->%d has no reverse half", n.Name, adj.To)
			}
			if back != adj.Rel.Invert() {
				return fmt.Errorf("link %s<->%s: relationship mismatch %v vs %v",
					n.Name, t.Node(adj.To).Name, adj.Rel, back)
			}
		}
	}
	// Reachability.
	if len(t.Nodes) > 0 {
		visited := make([]bool, len(t.Nodes))
		queue := []NodeID{0}
		visited[0] = true
		count := 1
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, adj := range t.Nodes[id].Adj {
				if !visited[adj.To] {
					visited[adj.To] = true
					count++
					queue = append(queue, adj.To)
				}
			}
		}
		if count != len(t.Nodes) {
			return fmt.Errorf("graph is disconnected: reached %d of %d nodes", count, len(t.Nodes))
		}
	}
	return nil
}

// Stats summarizes a topology for logs and `cdnsim topo`.
type Stats struct {
	Nodes, Links        int
	ByClass             map[Class]int
	CustomerLinks       int
	PeerLinks           int
	AvgDegree           float64
	TargetBearingPrefix int
}

// ComputeStats derives summary statistics.
func (t *Topology) ComputeStats() Stats {
	s := Stats{ByClass: map[Class]int{}}
	s.Nodes = len(t.Nodes)
	halves := 0
	for _, n := range t.Nodes {
		s.ByClass[n.Class]++
		halves += len(n.Adj)
		for _, adj := range n.Adj {
			switch adj.Rel {
			case RelCustomer:
				s.CustomerLinks++
			case RelPeer:
				s.PeerLinks++ // counted twice; halved below
			}
		}
		if n.Prefix.IsValid() {
			s.TargetBearingPrefix++
		}
	}
	s.Links = halves / 2
	s.PeerLinks /= 2
	if s.Nodes > 0 {
		s.AvgDegree = float64(halves) / float64(s.Nodes)
	}
	return s
}

// Builder incrementally constructs a topology.
type Builder struct {
	t    *Topology
	errs []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{t: &Topology{
		byName: map[string]NodeID{},
	}}
}

// AddNode creates a node and returns its id.
func (b *Builder) AddNode(asn ASN, name string, class Class, loc Point) NodeID {
	id := NodeID(len(b.t.Nodes))
	if _, dup := b.t.byName[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate node name %q", name))
	}
	n := &Node{ID: id, ASN: asn, Name: name, Class: class, Loc: loc}
	b.t.Nodes = append(b.t.Nodes, n)
	b.t.byName[name] = id
	return id
}

// Link connects a and b with relationship rel as seen from a, and a one-way
// delay in seconds. Duplicate links are rejected at Build time via Validate.
func (b *Builder) Link(a, bID NodeID, rel Rel, delay float64) {
	if a == bID {
		b.errs = append(b.errs, fmt.Errorf("self link on node %d", a))
		return
	}
	na, nb := b.t.Node(a), b.t.Node(bID)
	if na == nil || nb == nil {
		b.errs = append(b.errs, fmt.Errorf("link with unknown endpoint %d-%d", a, bID))
		return
	}
	na.Adj = append(na.Adj, Adjacency{To: bID, Rel: rel, Delay: delay})
	nb.Adj = append(nb.Adj, Adjacency{To: a, Rel: rel.Invert(), Delay: delay})
}

// Linked reports whether a session between a and b already exists.
func (b *Builder) Linked(a, bID NodeID) bool {
	_, ok := b.t.Adjacent(a, bID)
	return ok
}

// SetPrefix assigns the host prefix originated by node id.
func (b *Builder) SetPrefix(id NodeID, p netip.Prefix) {
	if n := b.t.Node(id); n != nil {
		n.Prefix = p
	}
}

// SetSite labels a CDN node with its site code.
func (b *Builder) SetSite(id NodeID, site string) {
	if n := b.t.Node(id); n != nil {
		n.Site = site
	}
}

// Build validates and returns the topology.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := b.t.Validate(); err != nil {
		return nil, err
	}
	return b.t, nil
}
