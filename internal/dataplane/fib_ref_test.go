package dataplane

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"bestofboth/internal/iptrie"
	"bestofboth/internal/topology"
)

// refDumpFIB and RefFIBDigest are the sort-and-fmt FIB renderer WriteFIB
// replaced, kept verbatim as the reference the encoder must match byte for
// byte (the FIB sha256 on the control plane's wire was defined by this
// text).
func refDumpFIB(p *Plane, node topology.NodeID) []FIBRecord {
	var out []FIBRecord
	p.fibs[node].Walk(func(pfx netip.Prefix, e fibEntry) bool {
		out = append(out, FIBRecord{Prefix: pfx, Local: e.local, Next: e.next})
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

func RefFIBDigest(p *Plane) string {
	var b strings.Builder
	for id := range p.fibs {
		recs := refDumpFIB(p, topology.NodeID(id))
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
// hand-built FIBs: IPv4 and IPv6 entries inserted out of order, nested
// prefixes sharing an address, local and forwarded entries, node 0 as a
// next hop, and empty FIBs before, between and after populated ones.
func TestWriteFIBEdgeEntries(t *testing.T) {
	fib := func(entries map[string]fibEntry) *iptrie.Trie[fibEntry] {
		tr := iptrie.New[fibEntry]()
		for s, e := range entries {
			if err := tr.Insert(netip.MustParsePrefix(s), e); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	p := &Plane{fibs: []*iptrie.Trie[fibEntry]{
		fib(nil),
		fib(map[string]fibEntry{
			"2804:269c:fe00::/40": {next: 12},
			"184.164.240.0/24":    {local: true},
			"184.164.224.0/19":    {next: 0},
			"184.164.224.0/24":    {next: 3},
			"2804:269c::/32":      {local: true},
			"10.0.0.0/8":          {next: 911},
			"::/0":                {next: 4},
			"0.0.0.0/0":           {next: 5},
		}),
		fib(nil),
		fib(map[string]fibEntry{"2001:db8::1/128": {next: 1}}),
		fib(map[string]fibEntry{"192.0.2.1/32": {local: true}}),
		fib(nil),
	}}
	want := RefFIBDigest(p)
	if got := p.FIBDigest(); got != want {
		t.Errorf("FIBDigest:\n got %q\nwant %q", got, want)
	}
	if n := strings.Count(want, "node "); n != 3 {
		t.Errorf("reference rendered %d node blocks, want 3 (empty FIBs leave none)", n)
	}
	if recs := p.DumpFIB(1); fmt.Sprint(recs) != fmt.Sprint(refDumpFIB(p, 1)) {
		t.Errorf("DumpFIB order:\n got %v\nwant %v", recs, refDumpFIB(p, 1))
	}
}
