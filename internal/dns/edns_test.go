package dns

import (
	"net/netip"
	"testing"
)

func TestEDNSRoundTrip(t *testing.T) {
	m := &Message{
		Header:   Header{ID: 9, RecursionDesired: true},
		Question: []Question{{Name: "www.cdn.example.", Type: TypeA}},
		Edns: &EDNS{UDPSize: 4096, ECS: &ClientSubnet{
			Subnet: netip.MustParsePrefix("20.1.2.0/24"),
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
	if got.Edns == nil || got.Edns.ECS == nil {
		t.Fatalf("EDNS lost: %+v", got)
	}
	if got.Edns.UDPSize != 4096 {
		t.Fatalf("udp size = %d", got.Edns.UDPSize)
	}
	if got.Edns.ECS.Subnet != m.Edns.ECS.Subnet || got.Edns.ECS.Scope != 0 {
		t.Fatalf("ECS = %+v", got.Edns.ECS)
	}
	if len(got.Additional) != 0 {
		t.Fatalf("OPT leaked into additional: %+v", got.Additional)
	}
}

func TestEDNSScopeRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{Response: true},
		Edns: &EDNS{ECS: &ClientSubnet{
			Subnet: netip.MustParsePrefix("20.1.0.0/16"),
			Scope:  12,
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
	if got.Edns.ECS.Scope != 12 || got.Edns.ECS.Subnet.Bits() != 16 {
		t.Fatalf("ECS = %+v", got.Edns.ECS)
	}
}

func TestEDNSRejectsIPv6Subnet(t *testing.T) {
	m := &Message{Edns: &EDNS{ECS: &ClientSubnet{
		Subnet: netip.MustParsePrefix("2001:db8::/32"),
	}}}
	if _, err := m.Encode(); err == nil {
		t.Fatal("IPv6 ECS accepted")
	}
}
