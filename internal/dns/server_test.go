package dns

import (
	"encoding/hex"
	"net/netip"
	"testing"
)

// TestAnswerServesOnlyA pins the authoritative's answers to queries it has
// no per-type records for. The zone holds only A records: an AAAA (type 28)
// query for a name with A records is NOERROR/NODATA, for an unknown name
// NXDOMAIN, and at the apex (which holds SOA and NS) NOERROR/NODATA; each
// carries the SOA in the authority section. The expected bytes for the
// three non-apex names are the responses of the server that still kept an
// AAAA zone, which answered them the same way. A query carrying an OPT
// record with an EDNS Client Subnet option (RFC 6891, RFC 7871), built by
// hand since the codec writes no OPT, gets the static A answer and no
// additional records.
func TestAnswerServesOnlyA(t *testing.T) {
	auth := NewAuthoritative("cdn.example.")
	for _, name := range []string{"www", "ams"} {
		if err := auth.SetA(name, 600, netip.MustParseAddr("184.164.240.10")); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(q *Message) []byte {
		t.Helper()
		wire, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	exchange := func(wire []byte) ([]byte, *Message) {
		t.Helper()
		out, err := auth.HandleQuery(wire)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := Decode(out)
		if err != nil {
			t.Fatal(err)
		}
		return out, resp
	}
	aaaa := func(name string) []byte {
		return encode(&Message{Header: Header{ID: 7, RecursionDesired: true}, Question: []Question{{Name: name, Type: Type(28)}}})
	}

	for _, c := range []struct{ name, want string }{
		{"www.cdn.example.", "000785000001000000010000037777770363646e076578616d706c6500001c0001" +
			"c0100006000100000e100027036e7331c0100a686f73746d6173746572c0100000000300000e1000000258000151800000003c"},
		{"ams.cdn.example.", "00078500000100000001000003616d730363646e076578616d706c6500001c0001" +
			"c0100006000100000e100027036e7331c0100a686f73746d6173746572c0100000000300000e1000000258000151800000003c"},
		{"none.cdn.example.", "000785030001000000010000046e6f6e650363646e076578616d706c6500001c0001" +
			"c0110006000100000e100027036e7331c0110a686f73746d6173746572c0110000000300000e1000000258000151800000003c"},
	} {
		if got, _ := exchange(aaaa(c.name)); hex.EncodeToString(got) != c.want {
			t.Errorf("AAAA %s:\n got %x\nwant %s", c.name, got, c.want)
		}
	}

	_, apex := exchange(aaaa("cdn.example."))
	if apex.Header.RCode != RCodeNoError || len(apex.Answer) != 0 ||
		len(apex.Authority) != 1 || apex.Authority[0].Type != TypeSOA {
		t.Errorf("AAAA at the apex = %+v, want NOERROR/NODATA with the SOA", apex)
	}

	query := encode(&Message{
		Header:   Header{ID: 8},
		Question: []Question{{Name: "www.cdn.example.", Type: TypeA}},
	})
	query[11] = 1 // ARCOUNT
	// OPT: root name, type 41, UDP size 4096, TTL 0, RDLENGTH 11, then ECS
	// (option 8, length 7): family 1, source /24, scope 0, 20.1.2.
	opt, _ := hex.DecodeString("00" + "0029" + "1000" + "00000000" + "000b" +
		"0008" + "0007" + "0001" + "18" + "00" + "140102")
	_, ecs := exchange(append(query, opt...))
	if len(ecs.Answer) != 1 || ecs.Answer[0].A != netip.MustParseAddr("184.164.240.10") || ecs.Answer[0].TTL != 600 {
		t.Errorf("ECS-carrying A answer = %+v, want the static record", ecs.Answer)
	}
	if len(ecs.Additional) != 0 {
		t.Errorf("response carries additional records %+v", ecs.Additional)
	}
}
