package iptrie

import (
	"net/netip"
	"slices"
	"testing"
)

// fuzzStep is one decoded script step. A script is a byte string read in
// fixed-width records: an op byte, a length byte, then the address — 4
// bytes, or 16 when the op byte has fuzzV6 set (a truncated tail is
// zero-padded). fuzzMapped turns a 4-byte address into its 4-in-6 form
// ::ffff:a.b.c.d and shifts the length past the 96-bit mapping prefix, so
// the trie is offered, and must refuse, the very addresses the IPv4 steps
// store. fuzzClone makes the step clone the trie first: the step and
// everything after it run on the clone, and the trie left behind must never
// change again.
type fuzzStep struct {
	op      byte // fuzzInsert, fuzzDelete or fuzzProbe
	clone   bool
	nonIPv4 bool // a fuzzV6 or fuzzMapped step
	pfx     netip.Prefix
	addr    netip.Addr // the unmasked address, for lookups
}

const (
	fuzzInsert = iota // insert, or replace when the prefix is present
	fuzzDelete
	fuzzProbe         // no mutation: only the comparison every step ends with
	fuzzOpMask = 0x03 // 3 is a second insert, so scripts lean towards populated tries
	fuzzV6     = 0x04
	fuzzMapped = 0x08
	fuzzClone  = 0x10
)

func decodeFuzzScript(data []byte) []fuzzStep {
	var steps []fuzzStep
	for len(data) >= 2 {
		op, length := data[0], int(data[1])
		data = data[2:]
		var raw [16]byte
		width := 4
		if op&fuzzV6 != 0 {
			width = 16
		}
		data = data[copy(raw[:width], data):]
		var addr netip.Addr
		switch {
		case op&fuzzV6 != 0:
			addr, length = netip.AddrFrom16(raw), length%129
		case op&fuzzMapped != 0:
			addr = netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: raw[0], 13: raw[1], 14: raw[2], 15: raw[3]})
			length = 96 + length%33
		default:
			addr, length = netip.AddrFrom4([4]byte(raw[:4])), length%33
		}
		clone, nonIPv4 := op&fuzzClone != 0, op&(fuzzV6|fuzzMapped) != 0
		if op &= fuzzOpMask; op > fuzzProbe {
			op = fuzzInsert
		}
		steps = append(steps, fuzzStep{op: op, clone: clone, nonIPv4: nonIPv4, pfx: netip.PrefixFrom(addr, length), addr: addr})
	}
	return steps
}

// walked is one Walk visit; the fields are exported so a failure prints the
// prefix as text.
type walked struct {
	P netip.Prefix
	V int
}

// walkOf collects a whole Walk, of either implementation.
func walkOf(walk func(func(netip.Prefix, int) bool)) []walked {
	var out []walked
	walk(func(p netip.Prefix, v int) bool { out = append(out, walked{p, v}); return true })
	return out
}

// FuzzTrie runs an insert/delete/replace/lookup/get/clone script against
// the path-compressed trie and the bit-per-node reference. After every step
// Lookup, Get and Len must agree, and a step on an IPv6 or 4-in-6 prefix
// must be refused: Insert errs, Delete, Get and Lookup miss, and Len stays
// as it was. At the end the two Walk
// sequences must be equal element for element, order included, and every
// trie a clone step left behind must still walk as the reference did at the
// moment it was cloned — the property world restores rest on, since the
// tries a snapshot shares are exactly such originals. The seed corpus under
// testdata/fuzz/FuzzTrie runs as unit cases on every go test.
func FuzzTrie(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := New[int](), newRef[int]()
		type original struct {
			step int
			trie *Trie[int]
			walk []walked // the reference's, when the clone was taken
		}
		var originals []original
		for i, s := range decodeFuzzScript(data) {
			if s.clone {
				originals = append(originals, original{i, got, walkOf(want.Walk)})
				got = got.Clone()
			}
			size := got.Len()
			switch s.op {
			case fuzzInsert:
				// Unmasked on purpose: both sides must canonicalize alike.
				g, w := got.Insert(s.pfx, i), want.Insert(s.pfx, i)
				if (g == nil) != (w == nil) {
					t.Fatalf("step %d: Insert(%v) = %v, reference %v", i, s.pfx, g, w)
				}
				if s.nonIPv4 && g == nil {
					t.Fatalf("step %d: Insert(%v) of a non-IPv4 prefix succeeded", i, s.pfx)
				}
			case fuzzDelete:
				g, w := got.Delete(s.pfx), want.Delete(s.pfx)
				if g != w {
					t.Fatalf("step %d: Delete(%v) = %v, reference %v", i, s.pfx, g, w)
				}
				if s.nonIPv4 && g {
					t.Fatalf("step %d: Delete(%v) of a non-IPv4 prefix hit", i, s.pfx)
				}
			}
			gp, gv, lok := got.Lookup(s.addr)
			wp, wv, wok := want.Lookup(s.addr)
			if gp != wp || gv != wv || lok != wok {
				t.Fatalf("step %d: Lookup(%v) = %v %d %v, reference %v %d %v", i, s.addr, gp, gv, lok, wp, wv, wok)
			}
			gv, gok := got.Get(s.pfx)
			wv, wok = want.Get(s.pfx)
			if gv != wv || gok != wok {
				t.Fatalf("step %d: Get(%v) = %d %v, reference %d %v", i, s.pfx, gv, gok, wv, wok)
			}
			if got.Len() != want.Len() {
				t.Fatalf("step %d: Len = %d, reference %d", i, got.Len(), want.Len())
			}
			if s.nonIPv4 && (lok || gok || got.Len() != size) {
				t.Fatalf("step %d: non-IPv4 %v reached the trie: Lookup hit %v, Get hit %v, Len %d -> %d", i, s.pfx, lok, gok, size, got.Len())
			}
		}
		if gw, ww := walkOf(got.Walk), walkOf(want.Walk); !slices.Equal(gw, ww) {
			t.Fatalf("Walk differs:\n got %v\nwant %v", gw, ww)
		}
		for _, o := range originals {
			if gw := walkOf(o.trie.Walk); !slices.Equal(gw, o.walk) {
				t.Fatalf("trie cloned at step %d changed afterwards:\n got %v\nwant %v", o.step, gw, o.walk)
			}
		}
	})
}
