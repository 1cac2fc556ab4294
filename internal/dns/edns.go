package dns

// EDNS(0) (RFC 6891) with the Client Subnet option (RFC 7871).
//
// CDN redirection can answer differently per client location ("end-user
// mapping", Chen et al., SIGCOMM 2015 — the paper's reference [9] for
// DNS-based site selection): resolvers attach the client's subnet to the
// query, and the authoritative declares the scope its answer is valid for.
// This package's authoritative serves the same A records to every client;
// the codec still carries the option, because a server must parse what
// resolvers send.

import (
	"fmt"
	"net/netip"
)

// TypeOPT is the EDNS(0) pseudo-RR type.
const TypeOPT Type = 41

// optionClientSubnet is the ECS option code (RFC 7871).
const optionClientSubnet = 8

// ecsFamilyIPv4 is the IANA address family for IPv4.
const ecsFamilyIPv4 = 1

// ClientSubnet is the EDNS Client Subnet option.
type ClientSubnet struct {
	// Subnet is the client's (truncated) prefix as sent by the resolver.
	Subnet netip.Prefix
	// Scope is the prefix length the answer is valid for. Zero in
	// queries; set by the authoritative in responses.
	Scope uint8
}

// EDNS is the decoded OPT pseudo-record.
type EDNS struct {
	UDPSize uint16
	ECS     *ClientSubnet
}

// encodeOPT appends the OPT pseudo-RR to the encoder.
func (e *encoder) opt(ed *EDNS) error {
	// Root name.
	e.buf = append(e.buf, 0)
	e.u16(uint16(TypeOPT))
	size := ed.UDPSize
	if size == 0 {
		size = 1232
	}
	e.u16(size) // CLASS carries the UDP payload size
	e.u32(0)    // TTL carries extended RCODE/flags (unused here)
	lenAt := len(e.buf)
	e.u16(0) // RDLENGTH placeholder
	start := len(e.buf)
	if ecs := ed.ECS; ecs != nil {
		if !ecs.Subnet.Addr().Is4() {
			return fmt.Errorf("dns: ECS subnet %v is not IPv4", ecs.Subnet)
		}
		bits := ecs.Subnet.Bits()
		addrLen := (bits + 7) / 8
		e.u16(optionClientSubnet)
		e.u16(uint16(4 + addrLen))
		e.u16(ecsFamilyIPv4)
		e.buf = append(e.buf, byte(bits), ecs.Scope)
		a := ecs.Subnet.Masked().Addr().As4()
		e.buf = append(e.buf, a[:addrLen]...)
	}
	rdlen := len(e.buf) - start
	e.buf[lenAt] = byte(rdlen >> 8)
	e.buf[lenAt+1] = byte(rdlen)
	return nil
}

// decodeOPT parses the RDATA of an OPT record.
func decodeOPT(classField uint16, rdata []byte) (*EDNS, error) {
	ed := &EDNS{UDPSize: classField}
	for len(rdata) > 0 {
		if len(rdata) < 4 {
			return nil, ErrTruncated
		}
		code := uint16(rdata[0])<<8 | uint16(rdata[1])
		olen := int(uint16(rdata[2])<<8 | uint16(rdata[3]))
		rdata = rdata[4:]
		if len(rdata) < olen {
			return nil, ErrTruncated
		}
		opt := rdata[:olen]
		rdata = rdata[olen:]
		if code != optionClientSubnet {
			continue // unknown options are ignored
		}
		if olen < 4 {
			return nil, fmt.Errorf("dns: ECS option too short (%d)", olen)
		}
		family := uint16(opt[0])<<8 | uint16(opt[1])
		srcBits := int(opt[2])
		scope := opt[3]
		if family != ecsFamilyIPv4 {
			continue // only IPv4 modeled
		}
		if srcBits > 32 {
			return nil, fmt.Errorf("dns: ECS source prefix %d", srcBits)
		}
		addrLen := (srcBits + 7) / 8
		if len(opt) < 4+addrLen {
			return nil, ErrTruncated
		}
		var a [4]byte
		copy(a[:], opt[4:4+addrLen])
		ed.ECS = &ClientSubnet{
			Subnet: netip.PrefixFrom(netip.AddrFrom4(a), srcBits).Masked(),
			Scope:  scope,
		}
	}
	return ed, nil
}
