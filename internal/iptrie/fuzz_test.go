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
// store. Bit 0x10 of the op byte, once a clone step, is ignored, so the
// committed corpus still decodes to the same inserts, deletes and lookups.
type fuzzStep struct {
	op      byte // fuzzInsert, fuzzDelete or fuzzProbe
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
		nonIPv4 := op&(fuzzV6|fuzzMapped) != 0
		if op &= fuzzOpMask; op > fuzzProbe {
			op = fuzzInsert
		}
		steps = append(steps, fuzzStep{op: op, nonIPv4: nonIPv4, pfx: netip.PrefixFrom(addr, length), addr: addr})
	}
	return steps
}

// walked is one Walk visit; the fields are exported so a failure prints the
// prefix as text.
type walked struct {
	P netip.Prefix
	V int
}

// FuzzTrie runs an insert/delete/replace/lookup script against the trie and
// the linear-scan reference (naiveEntry, naiveLookup). After every step
// Insert's error, Delete's result and Lookup must agree with the reference,
// and a step on an IPv6 or 4-in-6 prefix must be refused: Insert errs, and
// Delete and Lookup miss. At the end Walk must visit exactly the reference's
// entries in ascending (address, length) order. The seed corpus under
// testdata/fuzz/FuzzTrie runs as unit cases on every go test.
func FuzzTrie(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got := New[int]()
		var want []naiveEntry // one entry per stored (masked) prefix
		for i, s := range decodeFuzzScript(data) {
			at := slices.IndexFunc(want, func(e naiveEntry) bool { return e.p == s.pfx.Masked() })
			switch s.op {
			case fuzzInsert:
				// Unmasked on purpose: the trie must store the masked form.
				err := got.Insert(s.pfx, i)
				if (err != nil) != s.nonIPv4 {
					t.Fatalf("step %d: Insert(%v) = %v, want an error only for a non-IPv4 prefix", i, s.pfx, err)
				}
				switch {
				case err != nil:
				case at >= 0:
					want[at].v = i
				default:
					want = append(want, naiveEntry{s.pfx.Masked(), i})
				}
			case fuzzDelete:
				if g := got.Delete(s.pfx); g != (at >= 0) {
					t.Fatalf("step %d: Delete(%v) = %v, reference %v", i, s.pfx, g, at >= 0)
				}
				if at >= 0 {
					want = slices.Delete(want, at, at+1)
				}
			}
			gp, gv, gok := got.Lookup(s.addr)
			wp, wv, wok := naiveLookup(want, s.addr)
			if gp != wp || gv != wv || gok != wok {
				t.Fatalf("step %d: Lookup(%v) = %v %d %v, reference %v %d %v", i, s.addr, gp, gv, gok, wp, wv, wok)
			}
			if s.nonIPv4 && gok {
				t.Fatalf("step %d: Lookup(%v) of a non-IPv4 address hit %v", i, s.addr, gp)
			}
		}
		slices.SortFunc(want, func(a, b naiveEntry) int {
			if c := a.p.Addr().Compare(b.p.Addr()); c != 0 {
				return c
			}
			return a.p.Bits() - b.p.Bits()
		})
		ww := make([]walked, len(want))
		for i, e := range want {
			ww[i] = walked{e.p, e.v}
		}
		if gw := walkOf(got); !slices.Equal(gw, ww) {
			t.Fatalf("Walk differs:\n got %v\nwant %v", gw, ww)
		}
	})
}

// walkOf collects a whole Walk.
func walkOf(tr *Trie[int]) []walked {
	var out []walked
	tr.Walk(func(p netip.Prefix, v int) bool { out = append(out, walked{p, v}); return true })
	return out
}
