package iptrie

// The bit-per-node trie that backed every FIB until the path-compressed one
// replaced it, kept (identifiers prefixed ref, IPv4 only as the live trie
// is) as the oracle FuzzTrie and the property tests compare the live
// implementation against: one node per prefix bit, so there is no split,
// merge or masking logic to get wrong.

import (
	"fmt"
	"net/netip"
)

// refTrie maps IPv4 prefixes to values of type V with longest-prefix-match
// lookup semantics. It refuses any other prefix, as Trie does.
//
// The zero value is not usable; call newRef.
type refTrie[V any] struct {
	// nodes[0] is the root. A child index of 0 means "no child": the root
	// is never anyone's child, so it doubles as the nil sentinel.
	nodes []refNode[V]
	size  int
}

type refNode[V any] struct {
	child [2]int32
	val   V
	set   bool
}

// newRef returns an empty reference trie.
func newRef[V any]() *refTrie[V] {
	return &refTrie[V]{nodes: make([]refNode[V], 1, 64)}
}

// newNode appends a fresh node to the slab and returns its index. The
// returned index stays valid across slab growth; node pointers do not, so
// code must re-index t.nodes after any newNode call.
func (t *refTrie[V]) newNode() int32 {
	t.nodes = append(t.nodes, refNode[V]{})
	return int32(len(t.nodes) - 1)
}

// Len returns the number of prefixes stored.
func (t *refTrie[V]) Len() int { return t.size }

func bitAt(b [4]byte, i int) int {
	return int(b[i/8]>>(7-i%8)) & 1
}

// Insert stores val under prefix p, replacing any previous value for the
// exact prefix. The prefix is canonicalized (masked) before insertion.
func (t *refTrie[V]) Insert(p netip.Prefix, val V) error {
	if !p.IsValid() || !p.Addr().Is4() {
		return fmt.Errorf("iptrie: %v is not a valid IPv4 prefix", p)
	}
	p = p.Masked()
	bits := p.Addr().As4()
	cur := int32(0)
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(bits, i)
		next := t.nodes[cur].child[b]
		if next == 0 {
			next = t.newNode()
			t.nodes[cur].child[b] = next
		}
		cur = next
	}
	n := &t.nodes[cur]
	if !n.set {
		t.size++
	}
	n.val, n.set = val, true
	return nil
}

// find returns the node holding exactly prefix p, set or not, or -1.
func (t *refTrie[V]) find(p netip.Prefix) int32 {
	if !p.IsValid() || !p.Addr().Is4() {
		return -1
	}
	p = p.Masked()
	bits := p.Addr().As4()
	cur := int32(0)
	for i := 0; i < p.Bits(); i++ {
		cur = t.nodes[cur].child[bitAt(bits, i)]
		if cur == 0 {
			return -1
		}
	}
	return cur
}

// Delete removes the exact prefix p. It reports whether the prefix was
// present. Interior nodes are left in place; the simulator's tries churn the
// same prefixes repeatedly, so retaining the skeleton avoids allocation.
func (t *refTrie[V]) Delete(p netip.Prefix) bool {
	i := t.find(p)
	if i < 0 || !t.nodes[i].set {
		return false
	}
	var zero V
	t.nodes[i].val, t.nodes[i].set = zero, false
	t.size--
	return true
}

// Get returns the value stored under the exact prefix p.
func (t *refTrie[V]) Get(p netip.Prefix) (V, bool) {
	i := t.find(p)
	if i < 0 || !t.nodes[i].set {
		var zero V
		return zero, false
	}
	return t.nodes[i].val, true
}

// Lookup performs a longest-prefix-match for the IPv4 address addr and
// returns the matched prefix and its value.
func (t *refTrie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var (
		zero    V
		bestVal V
		bestLen = -1
	)
	if !addr.Is4() {
		return netip.Prefix{}, zero, false
	}
	bits := addr.As4()
	cur := int32(0)
	for i := 0; ; i++ {
		n := &t.nodes[cur]
		if n.set {
			bestVal, bestLen = n.val, i
		}
		if i == 32 {
			break
		}
		b := bitAt(bits, i)
		if n.child[b] == 0 {
			break
		}
		cur = n.child[b]
	}
	if bestLen < 0 {
		return netip.Prefix{}, zero, false
	}
	p, err := addr.Prefix(bestLen)
	if err != nil {
		return netip.Prefix{}, zero, false
	}
	return p, bestVal, true
}

// Walk visits every stored prefix/value pair in ascending (address,
// length) order. If fn returns false, the walk stops.
func (t *refTrie[V]) Walk(fn func(p netip.Prefix, val V) bool) {
	var bits [4]byte // the address bits of the path walked so far
	t.walk(0, &bits, 0, fn)
}

// walk visits the subtree under n in pre-order.
func (t *refTrie[V]) walk(n int32, bits *[4]byte, depth int, fn func(netip.Prefix, V) bool) bool {
	if t.nodes[n].set {
		if !fn(netip.PrefixFrom(netip.AddrFrom4(*bits), depth), t.nodes[n].val) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if c := t.nodes[n].child[0]; c != 0 {
		if !t.walk(c, bits, depth+1, fn) {
			return false
		}
	}
	if c := t.nodes[n].child[1]; c != 0 {
		bits[depth/8] |= 1 << (7 - depth%8)
		ok := t.walk(c, bits, depth+1, fn)
		bits[depth/8] &^= 1 << (7 - depth%8)
		if !ok {
			return false
		}
	}
	return true
}
