package dns

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripBasic(t *testing.T) {
	m := &Message{
		Header: Header{ID: 0xBEEF, Response: true, Authoritative: true, RCode: RCodeNoError},
		Question: []Question{
			{Name: "www.cdn.example.", Type: TypeA},
		},
		Answer: []RR{
			{Name: "www.cdn.example.", Type: TypeA, TTL: 600, A: netip.MustParseAddr("184.164.244.10")},
			{Name: "www.cdn.example.", Type: TypeA, TTL: 600, A: netip.MustParseAddr("184.164.245.10")},
		},
		Authority: []RR{
			{Name: "cdn.example.", Type: TypeNS, TTL: 86400, Target: "ns1.cdn.example."},
		},
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != m.Header {
		t.Fatalf("header = %+v, want %+v", got.Header, m.Header)
	}
	if !reflect.DeepEqual(got.Question, m.Question) {
		t.Fatalf("question = %+v", got.Question)
	}
	if !reflect.DeepEqual(got.Answer, m.Answer) {
		t.Fatalf("answer = %+v, want %+v", got.Answer, m.Answer)
	}
	if !reflect.DeepEqual(got.Authority, m.Authority) {
		t.Fatalf("authority = %+v", got.Authority)
	}
}

func TestCompressionShrinksRepeatedNames(t *testing.T) {
	m := &Message{
		Question: []Question{{Name: "a.very.long.subdomain.cdn.example.", Type: TypeA}},
	}
	for i := 0; i < 5; i++ {
		m.Answer = append(m.Answer, RR{
			Name: "a.very.long.subdomain.cdn.example.", Type: TypeA, TTL: 60,
			A: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		})
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed, each answer name alone is 35 bytes; with compression
	// each repeat is a 2-byte pointer. 5 answers * (2+10) + header+question
	// must stay well under the uncompressed size.
	uncompressed := 12 + 39 + 5*(35+14)
	if len(wire) >= uncompressed-100 {
		t.Fatalf("wire = %d bytes; compression ineffective (uncompressed ~%d)", len(wire), uncompressed)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answer) != 5 || got.Answer[4].Name != "a.very.long.subdomain.cdn.example." {
		t.Fatalf("round trip lost answers: %+v", got.Answer)
	}
}

func TestSOARoundTrip(t *testing.T) {
	m := &Message{
		Answer: []RR{{
			Name: "cdn.example.", Type: TypeSOA, TTL: 3600,
			SOA: &SOA{MName: "ns1.cdn.example.", RName: "hostmaster.cdn.example.",
				Serial: 42, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 60},
		}},
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answer[0].SOA, m.Answer[0].SOA) {
		t.Fatalf("SOA = %+v", got.Answer[0].SOA)
	}
}

func TestRootNameRoundTrip(t *testing.T) {
	m := &Message{Question: []Question{{Name: ".", Type: TypeNS}}}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Question[0].Name != "." {
		t.Fatalf("root name decoded as %q", got.Question[0].Name)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	m := &Message{
		Question: []Question{{Name: "www.cdn.example.", Type: TypeA}},
		Answer: []RR{{Name: "www.cdn.example.", Type: TypeA, TTL: 60,
			A: netip.MustParseAddr("10.0.0.1")}},
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(wire); cut++ {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsPointerLoops(t *testing.T) {
	// Header + a name that is a pointer to itself.
	buf := make([]byte, 12, 16)
	buf[5] = 1 // QDCOUNT = 1
	buf = append(buf, 0xC0, 12)
	if _, err := Decode(buf); err == nil {
		t.Fatal("self-pointer accepted")
	}
	// Forward pointer (points beyond itself) must also be rejected.
	buf2 := make([]byte, 12, 20)
	buf2[5] = 1
	buf2 = append(buf2, 0xC0, 14, 0, 0, 1, 0, 1)
	if _, err := Decode(buf2); err == nil {
		t.Fatal("forward pointer accepted")
	}
}

func TestEncodeRejectsBadNames(t *testing.T) {
	long := strings.Repeat("a", 64) + ".example."
	m := &Message{Question: []Question{{Name: long, Type: TypeA}}}
	if _, err := m.Encode(); err == nil {
		t.Fatal("63+ byte label accepted")
	}
	huge := strings.Repeat("abcdefg.", 40)
	m2 := &Message{Question: []Question{{Name: huge, Type: TypeA}}}
	if _, err := m2.Encode(); err == nil {
		t.Fatal("255+ byte name accepted")
	}
}

func TestEncodeRejectsNonIPv4A(t *testing.T) {
	m := &Message{Answer: []RR{{Name: "x.example.", Type: TypeA, A: netip.MustParseAddr("2001:db8::1")}}}
	if _, err := m.Encode(); err == nil {
		t.Fatal("IPv6 in A record accepted")
	}
}

func TestCanonicalName(t *testing.T) {
	if CanonicalName("WWW.CDN.Example") != "www.cdn.example." {
		t.Fatal("CanonicalName broken")
	}
	if CanonicalName("x.") != "x." {
		t.Fatal("CanonicalName double-dots")
	}
}

func randomName(r *rand.Rand) string {
	labels := 1 + r.Intn(4)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".") + "."
}

// Property: encode→decode is the identity on well-formed messages.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	f := func() bool {
		m := &Message{Header: Header{
			ID:       uint16(r.Uint32()),
			Response: r.Intn(2) == 0, RecursionDesired: r.Intn(2) == 0,
			RCode: RCode(r.Intn(6)),
		}}
		m.Question = append(m.Question, Question{Name: randomName(r), Type: TypeA})
		nans := r.Intn(6)
		for i := 0; i < nans; i++ {
			v := r.Uint32()
			m.Answer = append(m.Answer, RR{
				Name: randomName(r), Type: TypeA, TTL: r.Uint32() % 1e6,
				A: netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}),
			})
		}
		if r.Intn(2) == 0 {
			m.Answer = append(m.Answer, RR{Name: randomName(r), Type: TypeCNAME, TTL: 300, Target: randomName(r)})
		}
		wire, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return got.Header == m.Header &&
			reflect.DeepEqual(got.Question, m.Question) &&
			reflect.DeepEqual(got.Answer, m.Answer)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDNSDecode feeds arbitrary bytes to Decode, the parser every wire
// message the authoritative, the resolver and the ECS client receive goes
// through. It must never panic, and whatever it accepts and Encode can
// serialize must decode again and re-encode to the same bytes: encoding is a
// fixed point. The decoded messages need not be equal, since Decode keeps a
// name's case and Encode lowercases it. The committed corpus
// (testdata/fuzz/FuzzDNSDecode) holds an A query, an ECS query, a compressed
// answer, an SOA and an AAAA built the way the tests above build them;
// mixed-case-name, a question for "0A00000." that Encode writes back as
// "0a00000.", the input that rules out comparing messages; and
// cascading-pointers, 34 uncompressed questions each one label longer than
// the last, which Encode compresses into a 33-pointer chain that a decoder
// bounded at 32 jumps refused.
func FuzzDNSDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			return // Decode keeps what Encode refuses, such as unknown types
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%x), the encoding of %+v: %v", enc, m, err)
		}
		reenc, err := again.Encode()
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", again, err)
		}
		if !bytes.Equal(reenc, enc) {
			t.Fatalf("encoding is not a fixed point:\n first %x\nsecond %x", enc, reenc)
		}
	})
}

func TestAAAARoundTrip(t *testing.T) {
	m := &Message{
		Answer: []RR{{
			Name: "www.cdn.example.", Type: TypeAAAA, TTL: 300,
			A: netip.MustParseAddr("2001:db8:244::10"),
		}},
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answer[0].A != m.Answer[0].A || got.Answer[0].Type != TypeAAAA {
		t.Fatalf("AAAA round trip = %+v", got.Answer[0])
	}
}

func TestAAAARejectsIPv4(t *testing.T) {
	m := &Message{Answer: []RR{{Name: "x.example.", Type: TypeAAAA, A: netip.MustParseAddr("10.0.0.1")}}}
	if _, err := m.Encode(); err == nil {
		t.Fatal("IPv4 in AAAA accepted")
	}
}
