package dataplane

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/iptrie"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// refEntry is one slot of a reference FIB: local delivery or a next hop.
type refEntry struct {
	local bool
	next  topology.NodeID
	delay float64 // one-way link delay to next, seconds
}

// RefFIB is the forwarding state as the plane kept it before FIBs became
// rows of a prefix table: one longest-prefix-match trie per node, written
// on every best-route change by its own OnBestChange subscription. It reads
// the failure flags of the plane it shadows. Like the plane's rows, the
// trie of a node is written only on that node's shard goroutine.
type RefFIB struct {
	plane *Plane
	fibs  []*iptrie.Trie[refEntry]
}

// NewRefFIB subscribes a reference FIB to plane's network. Like the plane,
// it must exist before the routes it is to see are originated.
func NewRefFIB(plane *Plane) *RefFIB {
	r := &RefFIB{plane: plane, fibs: make([]*iptrie.Trie[refEntry], len(plane.rows))}
	plane.net.OnBestChange(r.update)
	return r
}

func (r *RefFIB) update(node topology.NodeID, prefix netip.Prefix, route *bgp.Route, sess int, _ netsim.Seconds) {
	fib := r.fibs[node]
	if fib == nil {
		fib = iptrie.New[refEntry]()
		r.fibs[node] = fib
	}
	switch {
	case route == nil:
		fib.Delete(prefix)
	case sess < 0:
		fib.Insert(prefix, refEntry{local: true})
	default:
		adj := r.plane.topo.Node(node).Adj[sess]
		fib.Insert(prefix, refEntry{next: adj.To, delay: adj.Delay})
	}
}

// Forward is Plane.ForwardTrace over the reference FIBs.
func (r *RefFIB) Forward(src topology.NodeID, dst netip.Addr) ForwardResult {
	var res ForwardResult
	cur := src
	for hops := 0; hops <= MaxHops; hops++ {
		res.Path = append(res.Path, cur)
		var e refEntry
		ok := false
		if fib := r.fibs[cur]; fib != nil {
			_, e, ok = fib.Lookup(dst)
		}
		switch {
		case r.plane.down[cur]:
			res.Reason = DropNodeDown
			return res
		case !ok:
			res.Reason = DropNoRoute
			return res
		case e.local:
			res.Delivered, res.Dest = true, cur
			return res
		}
		res.Delay += e.delay
		cur = e.next
	}
	res.Reason = DropLoop
	return res
}

// fibRecord is one forwarding entry as refDumpFIB reports it.
type fibRecord struct {
	Prefix netip.Prefix
	Local  bool
	Next   topology.NodeID // meaningful when !Local
}

// refDumpFIB and Digest are the sort-and-fmt FIB renderer WriteFIB
// replaced, kept verbatim as the reference the encoder must match byte for
// byte (the FIB sha256 on the control plane's wire was defined by this
// text).
func refDumpFIB(fib *iptrie.Trie[refEntry]) []fibRecord {
	var out []fibRecord
	fib.Walk(func(pfx netip.Prefix, e refEntry) bool {
		out = append(out, fibRecord{Prefix: pfx, Local: e.local, Next: e.next})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Prefix, out[j].Prefix
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c < 0
		}
		return a.Bits() < b.Bits()
	})
	return out
}

// Digest renders the reference FIBs as WriteFIB's text.
func (r *RefFIB) Digest() string {
	var b strings.Builder
	for id, fib := range r.fibs {
		if fib == nil {
			continue
		}
		recs := refDumpFIB(fib)
		if len(recs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "node %d\n", id)
		for _, r := range recs {
			if r.Local {
				fmt.Fprintf(&b, "  %s local\n", r.Prefix)
			} else {
				fmt.Fprintf(&b, "  %s via %d\n", r.Prefix, r.Next)
			}
		}
	}
	return b.String()
}

// TestWriteFIBEdgeEntries pins the encoder to the reference renderer on
// hand-written FIBs, each change made through the plane's install path and
// the reference's alike: entries written out of order, nested prefixes
// sharing an address (/8 and /16, /19 and /24), a default route and host
// routes, local and forwarded entries, node 0 as a next hop, a prefix with
// host bits set, an IPv6 prefix, a row whose only entry was withdrawn, and
// empty FIBs before, between and after populated ones.
func TestWriteFIBEdgeEntries(t *testing.T) {
	// Node 1 links to every other node, so each is a possible next hop.
	b := topology.NewBuilder()
	var nodes []topology.NodeID
	for i := range 7 {
		nodes = append(nodes, b.AddNode(topology.ASN(100+i), fmt.Sprint("n", i), topology.ClassStub, topology.Point{X: float64(i)}))
	}
	for _, n := range nodes {
		if n != 1 {
			b.Link(1, n, topology.RelPeer, 0.001*float64(n+1))
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := New(bgp.New(netsim.New(1), topo, cfg()))
	ref := NewRefFIB(p)
	// via names a next hop; via -1 is local delivery.
	set := func(node topology.NodeID, prefix string, via int) {
		t.Helper()
		sess := -1
		if via >= 0 {
			sess = slices.IndexFunc(topo.Node(node).Adj, func(a topology.Adjacency) bool { return a.To == topology.NodeID(via) })
			if sess < 0 {
				t.Fatalf("node %d has no link to %d", node, via)
			}
		}
		pfx := netip.MustParsePrefix(prefix)
		p.onBestChange(node, pfx, &bgp.Route{}, sess, 0)
		ref.update(node, pfx, &bgp.Route{}, sess, 0)
	}
	unset := func(node topology.NodeID, prefix string) {
		pfx := netip.MustParsePrefix(prefix)
		p.onBestChange(node, pfx, nil, -1, 0)
		ref.update(node, pfx, nil, -1, 0)
	}
	set(1, "203.0.113.128/25", 6)
	set(1, "184.164.240.0/24", -1)
	set(1, "184.164.224.0/19", 0)
	set(1, "184.164.224.0/24", 3)
	set(1, "203.0.0.0/8", -1)
	set(1, "10.0.0.0/8", 2)
	set(1, "10.0.0.0/16", 4)
	set(1, "0.0.0.0/0", 5)
	set(3, "198.51.100.1/32", 1)
	set(4, "192.0.2.1/32", -1)
	set(4, "172.16.5.9/12", 1)  // not canonical: both file it as 172.16.0.0/12
	set(6, "2001:db8::/32", -1) // not IPv4: neither keeps it
	set(5, "10.0.0.0/16", 1)
	unset(5, "10.0.0.0/16")

	want := ref.Digest()
	if got := p.FIBDigest(); got != want {
		t.Errorf("FIBDigest:\n got %q\nwant %q", got, want)
	}
	if n := strings.Count(want, "node "); n != 3 {
		t.Errorf("reference rendered %d node blocks, want 3 (empty FIBs leave none)", n)
	}
	for _, dst := range []string{"10.0.0.1", "10.1.0.1", "184.164.224.9", "184.164.230.9", "203.0.113.200", "203.0.113.1", "8.8.8.8", "198.51.100.1", "172.20.0.1", "192.0.2.1"} {
		addr := netip.MustParseAddr(dst)
		for _, src := range []topology.NodeID{1, 4} {
			if got, want := p.ForwardTrace(src, addr), ref.Forward(src, addr); !reflect.DeepEqual(got, want) {
				t.Errorf("Forward(%d, %s) = %+v, reference %+v", src, dst, got, want)
			}
		}
	}
}
