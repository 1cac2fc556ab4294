// Package iptrie implements a longest-prefix-match trie over IPv4 prefixes.
//
// The trie backs every FIB in the simulator. It is a path-compressed
// (Patricia) binary trie: each node carries its whole prefix — the address
// as one uint32 plus a bit length — and a descent step compares a full
// prefix with one XOR and a leading-zero count instead of testing one bit
// per node. A FIB holds one to nine prefixes and a Figure 2 campaign looks a
// /24 up millions of times, hop by hop; that lookup is the root plus three
// descents here (4.3 node visits on average, measured over a Figure 2
// matrix) where a bit-per-node trie walks twenty-four dependent loads. (The
// bit-per-node trie survives as the test reference in ref_test.go.) The
// paper evaluates per-site IPv4 /24s (§5.2) and every prefix the simulator
// announces is IPv4, so the trie holds one address family and refuses the
// other.
//
// Nodes live in one contiguous slab per trie and link by int32 index rather
// than pointer. That matters three times over: inserting a prefix costs
// amortized slice growth instead of one allocation per trie node; for
// pointer-free value types, like FIB entries, the garbage collector never
// scans the node slab at all; and because links are indices, not addresses,
// Clone is one slab copy. The last is what world restores are built on — a
// restored data plane shares the snapshot's converged FIBs outright and
// clones only the tries of the nodes whose routes its fault moves, instead
// of rebuilding some nine hundred FIBs prefix by prefix per restore.
package iptrie

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// Trie maps IPv4 prefixes to values of type V with longest-prefix-match
// lookup semantics. Insert refuses any other prefix, and Get, Delete and
// Lookup of one miss; a 4-in-6 mapped address is not IPv4.
//
// The zero value is not usable; call New.
type Trie[V any] struct {
	// nodes[0] is the root, of length 0. A child index of 0 means "no
	// child": the root is never anyone's child, so it doubles as the nil
	// sentinel.
	//
	// Invariant: a child's prefix extends its parent's (it is strictly
	// longer and agrees on every parent bit), and the child hangs off the
	// slot named by its first bit past the parent's length. Nodes with set
	// false are branch points (or deleted entries) that hold no value.
	nodes []node[V]
	size  int
}

type node[V any] struct {
	key   uint32 // prefix bits, zero past plen
	child [2]int32
	plen  uint8 // prefix length in bits
	set   bool
	val   V
}

// slabCap is the initial node capacity, sized from the FIBs a world
// builds: one prefix per site plus at most a covering superprefix is
// ≤ 9 entries + 8 branch points + the root = 18 nodes (measured: 16 in
// nearly every FIB of every Figure 2 technique, never more). 18 FIB nodes
// of 32 bytes fill the allocator's 576-byte size class exactly, so a FIB
// never pays append's doubling and wastes no tail.
const slabCap = 18

// New returns an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{nodes: make([]node[V], 1, slabCap)}
}

// Clone returns an independent copy of t with the original's spare capacity:
// one allocation and one slab copy, whatever the trie holds. Values are
// copied by assignment. Cloning only reads t, so any number of goroutines
// may clone (and look up in) a trie nobody is writing.
func (t *Trie[V]) Clone() *Trie[V] {
	nodes := make([]node[V], len(t.nodes), cap(t.nodes))
	copy(nodes, t.nodes)
	return &Trie[V]{nodes: nodes, size: t.size}
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// keyOf returns a's bits, and false when a is not an IPv4 address.
func keyOf(a netip.Addr) (uint32, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:]), true
}

// bitOf returns bit i (0 = most significant) of k, and 0 for i = 32: a
// full-length node has no children, so descents may ask without checking.
func bitOf(k uint32, i int) int { return int(k << uint(i) >> 31) }

// common returns how many leading bits a and b share.
func common(a, b uint32) int { return bits.LeadingZeros32(a ^ b) }

// newNode appends n to the slab and returns its index. The returned index
// stays valid across slab growth; node pointers do not, so code must
// re-index t.nodes after any newNode call.
func (t *Trie[V]) newNode(n node[V]) int32 {
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// Insert stores val under prefix p, replacing any previous value for the
// exact prefix. The prefix is canonicalized (masked) before insertion. An
// invalid or non-IPv4 prefix is refused with an error.
func (t *Trie[V]) Insert(p netip.Prefix, val V) error {
	if !p.IsValid() {
		return fmt.Errorf("iptrie: invalid prefix %v", p)
	}
	key, ok := keyOf(p.Masked().Addr())
	if !ok {
		return fmt.Errorf("iptrie: %v is not an IPv4 prefix", p)
	}
	plen := p.Bits()
	cur := int32(0)
	for {
		n := &t.nodes[cur]
		if int(n.plen) == plen {
			if !n.set {
				t.size++
			}
			n.val, n.set = val, true
			return nil
		}
		b := bitOf(key, int(n.plen))
		c := n.child[b]
		add := node[V]{key: key, plen: uint8(plen), val: val, set: true}
		if c != 0 {
			cn := &t.nodes[c]
			cl := min(common(key, cn.key), plen)
			if cl >= int(cn.plen) {
				cur = c // c's prefix covers (or is) p
				continue
			}
			// p leaves c's prefix after cl bits, so a node of length cl takes
			// c's place and adopts it: p itself when p covers c, otherwise a
			// valueless branch point, p's first cl bits, with p as c's sibling.
			cb := bitOf(cn.key, cl)
			if cl < plen {
				br := node[V]{key: key &^ (^uint32(0) >> uint(cl)), plen: uint8(cl)}
				br.child[1-cb] = t.newNode(add)
				add = br
			}
			add.child[cb] = c
		}
		i := t.newNode(add) // before indexing: the append may move the slab
		t.nodes[cur].child[b] = i
		t.size++
		return nil
	}
}

// find returns the index of the node holding exactly prefix p, or -1.
func (t *Trie[V]) find(p netip.Prefix) int32 {
	if !p.IsValid() {
		return -1
	}
	key, ok := keyOf(p.Masked().Addr())
	if !ok {
		return -1
	}
	plen := p.Bits()
	cur := int32(0)
	for {
		n := &t.nodes[cur]
		if int(n.plen) == plen {
			if !n.set {
				return -1
			}
			return cur
		}
		c := n.child[bitOf(key, int(n.plen))]
		if c == 0 {
			return -1
		}
		cn := &t.nodes[c]
		if int(cn.plen) > plen || common(key, cn.key) < int(cn.plen) {
			return -1
		}
		cur = c
	}
}

// Delete removes the exact prefix p. It reports whether the prefix was
// present. The node is left in place as a branch point; the simulator's
// tries churn the same prefixes repeatedly, so retaining the skeleton avoids
// allocation.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	i := t.find(p)
	if i < 0 {
		return false
	}
	var zero V
	t.nodes[i].val, t.nodes[i].set = zero, false
	t.size--
	return true
}

// Get returns the value stored under the exact prefix p.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	i := t.find(p)
	if i < 0 {
		var zero V
		return zero, false
	}
	return t.nodes[i].val, true
}

// Lookup performs a longest-prefix-match for the IPv4 address addr and
// returns the matched prefix and its value.
//
//cdnlint:allocfree runs once per hop of every forwarded probe
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var zero V
	key, ok := keyOf(addr)
	if !ok {
		return netip.Prefix{}, zero, false
	}
	cur, best := int32(0), int32(-1)
	for {
		n := &t.nodes[cur]
		if n.set {
			best = cur
		}
		c := n.child[bitOf(key, int(n.plen))]
		if c == 0 {
			break
		}
		cn := &t.nodes[c]
		if common(key, cn.key) < int(cn.plen) {
			break
		}
		cur = c
	}
	if best < 0 {
		return netip.Prefix{}, zero, false
	}
	p, err := addr.Prefix(int(t.nodes[best].plen))
	if err != nil {
		return netip.Prefix{}, zero, false
	}
	return p, t.nodes[best].val, true
}

// Walk visits every stored prefix/value pair in ascending (address,
// length) order. If fn returns false, the walk stops.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, val V) bool) {
	t.walk(0, fn)
}

// walk visits the subtree under i in pre-order: a node sorts before its
// descendants (same leading bits, shorter), and the 0 branch before the 1.
func (t *Trie[V]) walk(i int32, fn func(netip.Prefix, V) bool) bool {
	n := &t.nodes[i]
	if n.set {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n.key)
		if !fn(netip.PrefixFrom(netip.AddrFrom4(b), int(n.plen)), n.val) {
			return false
		}
	}
	for _, c := range n.child {
		if c != 0 && !t.walk(c, fn) {
			return false
		}
	}
	return true
}

// Prefixes returns all stored prefixes in Walk's order: sorted by address,
// then length.
func (t *Trie[V]) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, t.size)
	t.Walk(func(p netip.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}
