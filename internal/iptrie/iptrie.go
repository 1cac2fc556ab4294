// Package iptrie implements a longest-prefix-match trie over IPv4 prefixes.
//
// Two callers use it: the data plane's tests, whose RefFIB keeps one trie
// per node as the reference the prefix-table FIBs are checked against, and
// the benchmark's iptrie probes. No product path forwards through it, so it
// is the plainest trie that does the job: one node per prefix bit, with no
// split, merge or path compression to get wrong in a reference. The paper
// evaluates per-site IPv4 /24s (§5.2) and every prefix the simulator
// announces is IPv4, so the trie holds one address family and refuses the
// other.
//
// Nodes live in one slice per trie and link by int32 index rather than
// pointer, so inserting a prefix costs amortized slice growth instead of one
// allocation per node.
package iptrie

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Trie maps IPv4 prefixes to values of type V with longest-prefix-match
// lookup semantics. Insert refuses any other prefix, and Delete and Lookup
// of one miss; a 4-in-6 mapped address is not IPv4.
//
// The zero value is not usable; call New.
type Trie[V any] struct {
	// nodes[0] is the root, of length 0; a node at depth d stands for the
	// prefix its path's d bits spell. A child index of 0 means "no child":
	// the root is never anyone's child, so it doubles as the nil sentinel.
	// Nodes with set false are on the way to a prefix (or held a deleted
	// one) and hold no value.
	nodes []node[V]
}

type node[V any] struct {
	child [2]int32
	set   bool
	val   V
}

// New returns an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{nodes: make([]node[V], 1)}
}

// keyOf returns a's bits, and false when a is not an IPv4 address.
func keyOf(a netip.Addr) (uint32, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:]), true
}

// bitOf returns bit i (0 = most significant) of k.
func bitOf(k uint32, i int) int { return int(k>>uint(31-i)) & 1 }

// Insert stores val under prefix p, replacing any previous value for the
// exact prefix. Only the prefix's first Bits() bits choose its node, so a
// prefix with host bits set is stored as its masked form. An invalid or
// non-IPv4 prefix is refused with an error.
func (t *Trie[V]) Insert(p netip.Prefix, val V) error {
	if !p.IsValid() {
		return fmt.Errorf("iptrie: invalid prefix %v", p)
	}
	key, ok := keyOf(p.Addr())
	if !ok {
		return fmt.Errorf("iptrie: %v is not an IPv4 prefix", p)
	}
	cur := int32(0)
	for i := 0; i < p.Bits(); i++ {
		b := bitOf(key, i)
		next := t.nodes[cur].child[b]
		if next == 0 {
			t.nodes = append(t.nodes, node[V]{})
			next = int32(len(t.nodes) - 1)
			t.nodes[cur].child[b] = next
		}
		cur = next
	}
	t.nodes[cur].val, t.nodes[cur].set = val, true
	return nil
}

// Delete removes the exact prefix p. It reports whether the prefix was
// present. The node is left in place; the tries churn the same prefixes
// repeatedly, so retaining the skeleton avoids allocation.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	key, ok := keyOf(p.Addr())
	if !p.IsValid() || !ok {
		return false
	}
	cur := int32(0)
	for i := 0; i < p.Bits(); i++ {
		if cur = t.nodes[cur].child[bitOf(key, i)]; cur == 0 {
			return false
		}
	}
	n := &t.nodes[cur]
	if !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	return true
}

// Lookup performs a longest-prefix-match for the IPv4 address addr and
// returns the matched prefix and its value.
//
//cdnlint:allocfree the benchmark's iptrie.lookup_ns times it call by call
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var zero V
	key, ok := keyOf(addr)
	if !ok {
		return netip.Prefix{}, zero, false
	}
	cur, best, bestLen := int32(0), int32(-1), 0
	for i := 0; ; i++ {
		n := &t.nodes[cur]
		if n.set {
			best, bestLen = cur, i
		}
		if i == 32 {
			break
		}
		if cur = n.child[bitOf(key, i)]; cur == 0 {
			break
		}
	}
	if best < 0 {
		return netip.Prefix{}, zero, false
	}
	p, err := addr.Prefix(bestLen)
	if err != nil {
		return netip.Prefix{}, zero, false
	}
	return p, t.nodes[best].val, true
}

// Walk visits every stored prefix/value pair in ascending (address,
// length) order. If fn returns false, the walk stops.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, val V) bool) {
	t.walk(0, 0, 0, fn)
}

// walk visits the subtree under node i, at depth bits below the root with
// key holding the path's bits, in pre-order: a node sorts before its
// descendants (same leading bits, shorter), and the 0 branch before the 1.
func (t *Trie[V]) walk(i int32, key uint32, depth int, fn func(netip.Prefix, V) bool) bool {
	n := &t.nodes[i]
	if n.set {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], key)
		if !fn(netip.PrefixFrom(netip.AddrFrom4(b), depth), n.val) {
			return false
		}
	}
	for b, c := range n.child {
		if c != 0 && !t.walk(c, key|uint32(b)<<uint(31-depth), depth+1, fn) {
			return false
		}
	}
	return true
}
