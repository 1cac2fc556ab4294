package bgp

import (
	"net/netip"
	"testing"

	"bestofboth/internal/topology"
)

// TestWriteRouteStateEdgeRoutes pins the encoder to the reference renderer
// on hand-built RIB states covering every formatting edge the fmt verbs
// had: nil versus empty slices, signed integers, originated routes, path
// shapes, per-neighbor policies in map order, and prefixes that render
// nothing. The speakers' three sessions reach a provider, a customer and a
// peer, so the adj-RIB-in renders every import LOCAL_PREF. The last cases
// hold the encoder's reuse of a route's text within a state to pointer
// identity: an out route that is not the one just rendered, an in route
// that is not best although it sits at best's session, and routes that
// differ from their neighbour in one attribute. Converged worlds cannot
// tell a wrong reuse rule: no state in them holds two differing out routes.
func TestWriteRouteStateEdgeRoutes(t *testing.T) {
	p4 := netip.MustParsePrefix("184.164.240.0/24")
	p6 := netip.MustParsePrefix("2804:269c:fe00::/40")
	routes := func(rs ...*Route) []*Route { return rs }
	// slots builds a state's per-session slots from its adj-RIB-in and -out.
	slots := func(in, out []*Route) []adjSlot {
		adj := make([]adjSlot, max(len(in), len(out)))
		for sess, r := range in {
			adj[sess].in = r
		}
		for sess, r := range out {
			adj[sess].out = r
		}
		return adj
	}
	// a and b are distinct routes, each shared between slots by pointer.
	a := &Route{Path: []topology.ASN{5, 2, 1}, MED: 7, Communities: []uint32{9}}
	b := &Route{Path: []topology.ASN{6, 2, 1}}
	cases := []struct {
		name string
		p    netip.Prefix
		st   *prefixState
	}{
		{"nil communities", p4, &prefixState{best: &Route{Path: []topology.ASN{47065}}, bestSess: 2}},
		{"empty communities", p4, &prefixState{best: &Route{Path: []topology.ASN{47065}, Communities: []uint32{}}, bestSess: 2}},
		{"communities", p4, &prefixState{adj: slots(routes(nil, nil, &Route{
			Path: []topology.ASN{3356, 47065}, Communities: []uint32{CommunityNoExport, 0, 65000<<16 | 7},
		}), nil)}},
		{"negative med", p4, &prefixState{adj: slots(nil, routes(&Route{Path: []topology.ASN{1}, MED: -5}))}},
		{"zero med", p4, &prefixState{adj: slots(routes(&Route{Path: []topology.ASN{1}}), nil)}},
		{"originated best", p4, &prefixState{origin: &origination{pol: &OriginPolicy{}},
			best:     &Route{Path: []topology.ASN{47065}},
			bestSess: -1,
		}},
		{"nil path", p4, &prefixState{best: &Route{}}},
		{"empty husk", p4, &prefixState{adj: slots(routes(nil, nil), routes(nil, nil))}},
		{"prepended path", p4, &prefixState{adj: slots(nil, routes(nil, nil, &Route{
			Path: []topology.ASN{47065, 47065, 47065, 47065}, MED: 10,
		}))}},
		{"origin policy", p4, &prefixState{origin: &origination{pol: &OriginPolicy{
			Prepend: 3, MED: -1, Communities: []uint32{CommunityNoAdvertise},
		}}}},
		{"origin per-neighbor", p4, &prefixState{origin: &origination{pol: &OriginPolicy{
			Prepend: 1,
			PerNeighbor: map[topology.NodeID]NeighborPolicy{
				40: {Export: true, Prepend: 3},
				7:  {Export: false},
				19: {Export: true},
				0:  {Export: true, Prepend: -1},
			},
		}}}},
		{"ipv6 prefix", p6, &prefixState{best: &Route{Path: []topology.ASN{4200000000}}, bestSess: 0}},
		{"every section", p4, &prefixState{origin: &origination{pol: &OriginPolicy{MED: 4}},
			best:     &Route{Path: []topology.ASN{2, 1}},
			bestSess: 1,
			adj: slots(routes(&Route{Path: []topology.ASN{9, 1}}, &Route{Path: []topology.ASN{2, 1}}),
				routes(&Route{Path: []topology.ASN{5, 2, 1}}, nil)),
		}},
		{"out A B A", p4, &prefixState{adj: slots(nil, routes(a, b, a))}},
		{"out equal content, distinct pointers", p4, &prefixState{adj: slots(nil, routes(a, &Route{
			Path: []topology.ASN{5, 2, 1}, MED: 7, Communities: []uint32{9},
		}, a))}},
		{"out differing only in med", p4, &prefixState{adj: slots(nil, routes(a, &Route{
			Path: []topology.ASN{5, 2, 1}, MED: 8, Communities: []uint32{9},
		}))}},
		{"out differing only in communities", p4, &prefixState{adj: slots(nil, routes(nil, a, &Route{
			Path: []topology.ASN{5, 2, 1}, MED: 7, Communities: []uint32{9, 10},
		}))}},
		{"in holding best", p4, &prefixState{best: a, bestSess: 1, adj: slots(routes(b, a, a), routes(b, nil, b))}},
		{"in at best's session is not best", p4, &prefixState{best: a, bestSess: 1, adj: slots(routes(a, &Route{
			Path: []topology.ASN{5, 2, 1}, MED: 8, Communities: []uint32{9},
		}, b), routes(a, a, nil))}},
	}

	adj := []topology.Adjacency{{Rel: topology.RelProvider}, {Rel: topology.RelCustomer}, {Rel: topology.RelPeer}}
	all := &Network{}
	whole := Speaker{net: all, node: &topology.Node{Name: "all-cases", Adj: adj}}
	for i, c := range cases {
		n := &Network{prefixes: []netip.Prefix{c.p}, order: []int32{0}}
		n.speakers = []Speaker{{net: n, node: &topology.Node{Name: "edge", Adj: adj}, rib: []*prefixState{c.st}}}
		want := RefRouteStateDigest(n)
		if got := n.RouteStateDigest(); got != want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, want)
		}
		if c.name == "empty husk" && want != "" {
			t.Errorf("empty husk rendered %q", want)
		}
		// The same states side by side, husk in the middle, so a rollback
		// that truncates too much or too little shows.
		st := *c.st
		st.id = int32(i)
		all.prefixes = append(all.prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16))
		all.order = append(all.order, st.id)
		whole.rib = append(whole.rib, &st)
	}
	all.speakers = []Speaker{whole, whole}
	if got, want := all.RouteStateDigest(), RefRouteStateDigest(all); got != want {
		t.Errorf("combined network:\n got %q\nwant %q", got, want)
	}
}
