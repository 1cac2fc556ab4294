package iptrie

// The bit-per-node trie that backed every FIB until the path-compressed one
// replaced it, kept verbatim (identifiers prefixed ref) as the oracle FuzzTrie
// and the property tests compare the live implementation against: one node
// per prefix bit, so there is no split, merge or masking logic to get wrong.

import (
	"fmt"
	"net/netip"
	"sort"
)

// refTrie maps IP prefixes to values of type V with longest-prefix-match
// lookup semantics. IPv4 and IPv6 entries live in disjoint sub-tries:
// lookups never cross families (4-in-6 mapped addresses are treated as
// IPv6).
//
// The zero value is not usable; call newRef.
type refTrie[V any] struct {
	// nodes[root4] and nodes[root6] are the family roots. A child index of
	// 0 means "no child": index 0 is the IPv4 root, which is never anyone's
	// child, so it doubles as the nil sentinel.
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
	return &refTrie[V]{nodes: make([]refNode[V], 2, 64)}
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

// rootFor extracts the family root, address bytes, and bit count. The
// address bytes are written into buf (caller stack space) so the returned
// slice never forces a heap allocation.
func (t *refTrie[V]) rootFor(a netip.Addr, buf *[16]byte) (int32, []byte, int) {
	if a.Is4() {
		b := a.As4()
		copy(buf[:4], b[:])
		return root4, buf[:4], 32
	}
	*buf = a.As16()
	return root6, buf[:], 128
}

func bitAt(b []byte, i int) int {
	return int(b[i/8]>>(7-i%8)) & 1
}

// Insert stores val under prefix p, replacing any previous value for the
// exact prefix. The prefix is canonicalized (masked) before insertion.
func (t *refTrie[V]) Insert(p netip.Prefix, val V) error {
	if !p.IsValid() {
		return fmt.Errorf("iptrie: invalid prefix %v", p)
	}
	p = p.Masked()
	var buf [16]byte
	cur, bits, max := t.rootFor(p.Addr(), &buf)
	if p.Bits() > max {
		return fmt.Errorf("iptrie: prefix %v too long", p)
	}
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

// Delete removes the exact prefix p. It reports whether the prefix was
// present. Interior nodes are left in place; the simulator's tries churn the
// same prefixes repeatedly, so retaining the skeleton avoids allocation.
func (t *refTrie[V]) Delete(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	p = p.Masked()
	var buf [16]byte
	cur, bits, max := t.rootFor(p.Addr(), &buf)
	if p.Bits() > max {
		return false
	}
	for i := 0; i < p.Bits(); i++ {
		cur = t.nodes[cur].child[bitAt(bits, i)]
		if cur == 0 {
			return false
		}
	}
	n := &t.nodes[cur]
	if !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	return true
}

// Get returns the value stored under the exact prefix p.
func (t *refTrie[V]) Get(p netip.Prefix) (V, bool) {
	var zero V
	if !p.IsValid() {
		return zero, false
	}
	p = p.Masked()
	var buf [16]byte
	cur, bits, max := t.rootFor(p.Addr(), &buf)
	if p.Bits() > max {
		return zero, false
	}
	for i := 0; i < p.Bits(); i++ {
		cur = t.nodes[cur].child[bitAt(bits, i)]
		if cur == 0 {
			return zero, false
		}
	}
	n := &t.nodes[cur]
	if !n.set {
		return zero, false
	}
	return n.val, true
}

// Lookup performs a longest-prefix-match for addr within its address
// family and returns the matched prefix and its value.
func (t *refTrie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var (
		zero    V
		bestVal V
		bestLen = -1
	)
	if !addr.IsValid() {
		return netip.Prefix{}, zero, false
	}
	var buf [16]byte
	cur, bits, max := t.rootFor(addr, &buf)
	for i := 0; ; i++ {
		n := &t.nodes[cur]
		if n.set {
			bestVal, bestLen = n.val, i
		}
		if i == max {
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

// Walk visits every stored prefix/value pair, IPv4 entries first, each
// family in ascending (address, length) order. If fn returns false, the
// walk stops.
func (t *refTrie[V]) Walk(fn func(p netip.Prefix, val V) bool) {
	var bits [16]byte // the address bits of the path walked so far
	if !t.walkFamily(root4, bits[:4], 0, fn) {
		return
	}
	t.walkFamily(root6, bits[:], 0, fn)
}

// walkFamily visits the subtree under n in pre-order; len(bits) is the
// family's address length and selects the prefix constructor.
func (t *refTrie[V]) walkFamily(n int32, bits []byte, depth int, fn func(netip.Prefix, V) bool) bool {
	if t.nodes[n].set {
		var addr netip.Addr
		if len(bits) == 4 {
			addr = netip.AddrFrom4([4]byte(bits))
		} else {
			addr = netip.AddrFrom16([16]byte(bits))
		}
		if !fn(netip.PrefixFrom(addr, depth), t.nodes[n].val) {
			return false
		}
	}
	if depth == 8*len(bits) {
		return true
	}
	if c := t.nodes[n].child[0]; c != 0 {
		if !t.walkFamily(c, bits, depth+1, fn) {
			return false
		}
	}
	if c := t.nodes[n].child[1]; c != 0 {
		bits[depth/8] |= 1 << (7 - depth%8)
		ok := t.walkFamily(c, bits, depth+1, fn)
		bits[depth/8] &^= 1 << (7 - depth%8)
		if !ok {
			return false
		}
	}
	return true
}

// Prefixes returns all stored prefixes sorted by address then length
// (IPv4 before IPv6 per netip ordering).
func (t *refTrie[V]) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, t.size)
	t.Walk(func(p netip.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}
