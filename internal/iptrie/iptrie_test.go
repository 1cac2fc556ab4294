package iptrie

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInsertLookupExact(t *testing.T) {
	tr := New[string]()
	p := mustPrefix(t, "184.164.244.0/24")
	if err := tr.Insert(p, "site-a"); err != nil {
		t.Fatal(err)
	}
	got, ok := tr.Get(p)
	if !ok || got != "site-a" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestLongestPrefixMatchPrefersMoreSpecific(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "184.164.244.0/23"), "super")
	tr.Insert(mustPrefix(t, "184.164.244.0/24"), "specific")

	addr := netip.MustParseAddr("184.164.244.10")
	p, v, ok := tr.Lookup(addr)
	if !ok || v != "specific" || p.Bits() != 24 {
		t.Fatalf("Lookup = %v %q %v, want /24 specific", p, v, ok)
	}

	// Address in the superprefix but outside the /24 matches the /23.
	addr2 := netip.MustParseAddr("184.164.245.10")
	p2, v2, ok := tr.Lookup(addr2)
	if !ok || v2 != "super" || p2.Bits() != 23 {
		t.Fatalf("Lookup = %v %q %v, want /23 super", p2, v2, ok)
	}
}

func TestSuperprefixFallbackAfterDelete(t *testing.T) {
	// The proactive-superprefix mechanism in one test: when the /24
	// disappears, traffic falls through to the covering /23.
	tr := New[string]()
	tr.Insert(mustPrefix(t, "184.164.244.0/23"), "backup")
	tr.Insert(mustPrefix(t, "184.164.244.0/24"), "primary")
	addr := netip.MustParseAddr("184.164.244.77")

	if _, v, _ := tr.Lookup(addr); v != "primary" {
		t.Fatalf("before delete: got %q", v)
	}
	if !tr.Delete(mustPrefix(t, "184.164.244.0/24")) {
		t.Fatal("delete /24 failed")
	}
	_, v, ok := tr.Lookup(addr)
	if !ok || v != "backup" {
		t.Fatalf("after delete: got %q, %v; want backup", v, ok)
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New[int]()
	if tr.Delete(mustPrefix(t, "10.0.0.0/8")) {
		t.Fatal("deleting absent prefix reported true")
	}
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	if tr.Delete(mustPrefix(t, "10.0.0.0/16")) {
		t.Fatal("deleting absent sub-prefix reported true")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestLookupNoMatch(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("lookup outside any prefix matched")
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), "default")
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "ten")
	if _, v, _ := tr.Lookup(netip.MustParseAddr("8.8.8.8")); v != "default" {
		t.Fatalf("got %q, want default", v)
	}
	if _, v, _ := tr.Lookup(netip.MustParseAddr("10.1.2.3")); v != "ten" {
		t.Fatalf("got %q, want ten", v)
	}
}

func TestInsertReplacesValue(t *testing.T) {
	tr := New[int]()
	p := mustPrefix(t, "192.0.2.0/24")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if v, _ := tr.Get(p); v != 2 {
		t.Fatalf("got %d, want 2", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

// TestInsertRefusesNonIPv4 pins the trie to one address family: an IPv6
// or 4-in-6 prefix is refused with an error and leaves the trie as it was,
// and IPv6 and 4-in-6 prefixes and addresses miss in Get, Delete and Lookup
// even under an IPv4 default route.
func TestInsertRefusesNonIPv4(t *testing.T) {
	tr := New[string]()
	if err := tr.Insert(mustPrefix(t, "0.0.0.0/0"), "v4-default"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"::/0", "2001:db8::/32", "::ffff:10.0.0.0/104"} {
		p := mustPrefix(t, s)
		if err := tr.Insert(p, "refused"); err == nil {
			t.Errorf("Insert(%v) succeeded", p)
		}
		if tr.Len() != 1 {
			t.Fatalf("Len after Insert(%v) = %d, want 1", p, tr.Len())
		}
		if v, ok := tr.Get(p); ok {
			t.Errorf("Get(%v) = %q", p, v)
		}
		if tr.Delete(p) {
			t.Errorf("Delete(%v) reported true", p)
		}
	}
	for _, s := range []string{"2001:db8::1", "::ffff:10.0.0.1", "::"} {
		if p, v, ok := tr.Lookup(netip.MustParseAddr(s)); ok {
			t.Errorf("Lookup(%s) = %v %q", s, p, v)
		}
	}
	if p, v, ok := tr.Lookup(netip.MustParseAddr("10.0.0.1")); !ok || v != "v4-default" || p.Bits() != 0 {
		t.Fatalf("Lookup(10.0.0.1) = %v %q %v, want the default route", p, v, ok)
	}
	if ps := tr.Prefixes(); len(ps) != 1 || ps[0] != mustPrefix(t, "0.0.0.0/0") {
		t.Fatalf("Prefixes = %v", ps)
	}
}

func TestHostRoute(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "192.0.2.1/32"), "host")
	tr.Insert(mustPrefix(t, "192.0.2.0/24"), "net")
	if _, v, _ := tr.Lookup(netip.MustParseAddr("192.0.2.1")); v != "host" {
		t.Fatalf("got %q, want host", v)
	}
	if _, v, _ := tr.Lookup(netip.MustParseAddr("192.0.2.2")); v != "net" {
		t.Fatalf("got %q, want net", v)
	}
}

func TestWalkAndPrefixes(t *testing.T) {
	tr := New[int]()
	ps := []string{"10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24", "0.0.0.0/0"}
	for i, s := range ps {
		tr.Insert(mustPrefix(t, s), i)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	got := tr.Prefixes()
	if len(got) != 4 {
		t.Fatalf("Prefixes len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if c := a.Addr().Compare(b.Addr()); c > 0 || (c == 0 && a.Bits() >= b.Bits()) {
			t.Fatalf("Prefixes not sorted: %v before %v", a, b)
		}
	}
	n := 0
	tr.Walk(func(p netip.Prefix, v int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Walk early-stop visited %d, want 2", n)
	}
}

// TestWalkOrder pins the order Walk documents — ascending (address,
// length) — as exactly the comparator the FIB dump used to re-sort by, so
// the FIB digest encoder can emit entries straight from Walk.
func TestWalkOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := New[int]()
	var want []netip.Prefix
	for i := 0; i < 400; i++ {
		p := randPrefix(r)
		if i%8 == 1 {
			// keep nested prefixes that share an address in play
			p = netip.PrefixFrom(netip.IPv4Unspecified(), r.Intn(33))
		}
		if _, dup := tr.Get(p); dup {
			continue
		}
		if err := tr.Insert(p, i); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c < 0
		}
		return a.Bits() < b.Bits()
	})
	var got []netip.Prefix
	tr.Walk(func(p netip.Prefix, _ int) bool { got = append(got, p); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("Walk order differs from (address, length) order:\n got %v\nwant %v", got, want)
	}
}

func TestMaskedInsertCanonicalizes(t *testing.T) {
	tr := New[int]()
	// Non-canonical prefix: host bits set.
	p, err := netip.ParsePrefix("10.1.2.3/8")
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert(p, 7)
	if v, ok := tr.Get(mustPrefix(t, "10.0.0.0/8")); !ok || v != 7 {
		t.Fatalf("canonical get = %d, %v", v, ok)
	}
}

// naive is a reference LPM implementation used by the property test.
type naiveEntry struct {
	p netip.Prefix
	v int
}

func naiveLookup(entries []naiveEntry, a netip.Addr) (netip.Prefix, int, bool) {
	best := -1
	var bp netip.Prefix
	var bv int
	for _, e := range entries {
		if e.p.Contains(a) && e.p.Bits() > best {
			best, bp, bv = e.p.Bits(), e.p, e.v
		}
	}
	return bp, bv, best >= 0
}

func randPrefix(r *rand.Rand) netip.Prefix {
	bits := r.Intn(33)
	v := r.Uint32()
	a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	return netip.PrefixFrom(a, bits).Masked()
}

// Property: trie lookup agrees with a brute-force scan over all inserted
// prefixes, for random prefix sets and random probe addresses.
func TestLPMAgainstNaiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		tr := New[int]()
		var entries []naiveEntry
		seen := map[netip.Prefix]int{}
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			p := randPrefix(r)
			v := r.Intn(1000)
			tr.Insert(p, v)
			seen[p] = v
		}
		entries = entries[:0]
		for p, v := range seen {
			entries = append(entries, naiveEntry{p, v})
		}
		for probe := 0; probe < 50; probe++ {
			x := r.Uint32()
			a := netip.AddrFrom4([4]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
			wp, wv, wok := naiveLookup(entries, a)
			gp, gv, gok := tr.Lookup(a)
			if wok != gok {
				return false
			}
			if wok && (wp != gp || wv != gv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// Property: after inserting then deleting a random subset, lookups agree
// with the reference implementation over the surviving entries.
func TestInsertDeleteProperty(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func() bool {
		tr := New[int]()
		live := map[netip.Prefix]int{}
		for i := 0; i < 60; i++ {
			p := randPrefix(r)
			switch r.Intn(3) {
			case 0, 1:
				v := r.Intn(100)
				tr.Insert(p, v)
				live[p] = v
			case 2:
				_, present := live[p]
				got := tr.Delete(p)
				if got != present {
					return false
				}
				delete(live, p)
			}
			if tr.Len() != len(live) {
				return false
			}
		}
		var entries []naiveEntry
		for p, v := range live {
			entries = append(entries, naiveEntry{p, v})
		}
		for probe := 0; probe < 30; probe++ {
			x := r.Uint32()
			a := netip.AddrFrom4([4]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
			wp, wv, wok := naiveLookup(entries, a)
			gp, gv, gok := tr.Lookup(a)
			if wok != gok || (wok && (wp != gp || wv != gv)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New[int]()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		tr.Insert(randPrefix(r), i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		x := r.Uint32()
		addrs[i] = netip.AddrFrom4([4]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}
