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
// the IPv6 sub-trie sees the addresses the IPv4 one does.
type fuzzStep struct {
	op   byte // fuzzInsert, fuzzDelete or fuzzProbe
	pfx  netip.Prefix
	addr netip.Addr // the unmasked address, for lookups
}

const (
	fuzzInsert = iota // insert, or replace when the prefix is present
	fuzzDelete
	fuzzProbe         // no mutation: only the comparison every step ends with
	fuzzOpMask = 0x03 // 3 is a second insert, so scripts lean towards populated tries
	fuzzV6     = 0x04
	fuzzMapped = 0x08
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
		if op &= fuzzOpMask; op > fuzzProbe {
			op = fuzzInsert
		}
		steps = append(steps, fuzzStep{op: op, pfx: netip.PrefixFrom(addr, length), addr: addr})
	}
	return steps
}

// walked is one Walk visit; the fields are exported so a failure prints the
// prefix as text.
type walked struct {
	P netip.Prefix
	V int
}

// FuzzTrie runs a mixed IPv4/IPv6 insert/delete/replace/lookup/get script
// against the path-compressed trie and the bit-per-node reference. After
// every step Lookup, Get and Len must agree; at the end the two Walk
// sequences must be equal element for element, order included. The seed
// corpus under testdata/fuzz/FuzzTrie runs as unit cases on every go test.
func FuzzTrie(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := New[int](), newRef[int]()
		for i, s := range decodeFuzzScript(data) {
			switch s.op {
			case fuzzInsert:
				// Unmasked on purpose: both sides must canonicalize alike.
				if g, w := got.Insert(s.pfx, i), want.Insert(s.pfx, i); (g == nil) != (w == nil) {
					t.Fatalf("step %d: Insert(%v) = %v, reference %v", i, s.pfx, g, w)
				}
			case fuzzDelete:
				if g, w := got.Delete(s.pfx), want.Delete(s.pfx); g != w {
					t.Fatalf("step %d: Delete(%v) = %v, reference %v", i, s.pfx, g, w)
				}
			}
			gp, gv, gok := got.Lookup(s.addr)
			wp, wv, wok := want.Lookup(s.addr)
			if gp != wp || gv != wv || gok != wok {
				t.Fatalf("step %d: Lookup(%v) = %v %d %v, reference %v %d %v", i, s.addr, gp, gv, gok, wp, wv, wok)
			}
			gv, gok = got.Get(s.pfx)
			wv, wok = want.Get(s.pfx)
			if gv != wv || gok != wok {
				t.Fatalf("step %d: Get(%v) = %d %v, reference %d %v", i, s.pfx, gv, gok, wv, wok)
			}
			if got.Len() != want.Len() {
				t.Fatalf("step %d: Len = %d, reference %d", i, got.Len(), want.Len())
			}
		}
		var gw, ww []walked
		got.Walk(func(p netip.Prefix, v int) bool { gw = append(gw, walked{p, v}); return true })
		want.Walk(func(p netip.Prefix, v int) bool { ww = append(ww, walked{p, v}); return true })
		if !slices.Equal(gw, ww) {
			t.Fatalf("Walk differs:\n got %v\nwant %v", gw, ww)
		}
	})
}
