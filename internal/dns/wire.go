// Package dns implements the subset of the DNS protocol a CDN redirection
// system depends on: an RFC 1035 wire codec with name compression, an
// authoritative server for the CDN zone, and a caching recursive resolver
// with an empirical TTL-violation model.
//
// The paper's unicast baseline fails over only as fast as DNS lets it:
// records are cached by resolvers and clients, TTLs of popular domains are
// ~10 minutes at the median [Moura et al. 2019], and clients keep using
// records long after expiry (median 890 s past expiration [Allman 2020]).
// This package provides the machinery to quantify that baseline, which the
// paper argues cannot be measured on the real Internet without operating a
// popular service (§5).
package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Type is a DNS RR type.
type Type uint16

// Supported RR types: the ones the authoritative writes. Decode keeps the
// envelope of any other type and skips its RDATA; Encode refuses it.
const (
	TypeA   Type = 1
	TypeNS  Type = 2
	TypeSOA Type = 6
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeSOA:
		return "SOA"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// ClassIN is the Internet class, the only one supported.
const ClassIN uint16 = 1

// RCode is a DNS response code.
type RCode uint8

// Supported response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// Header is the fixed 12-byte DNS message header (flags unpacked).
type Header struct {
	ID                 uint16
	Response           bool
	Authoritative      bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is one entry of the question section.
type Question struct {
	Name string
	Type Type
}

// SOA holds the fields of an SOA record.
type SOA struct {
	MName, RName                            string
	Serial, Refresh, Retry, Expire, Minimum uint32
}

// RR is a resource record. Exactly one of A / Target / SOA is meaningful
// depending on Type.
type RR struct {
	Name   string
	Type   Type
	TTL    uint32
	A      netip.Addr // TypeA
	Target string     // TypeNS
	SOA    *SOA       // TypeSOA
}

// Message is a DNS message.
type Message struct {
	Header     Header
	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR
}

// CanonicalName lowercases and ensures a trailing dot.
func CanonicalName(name string) string {
	name = strings.ToLower(name)
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

var (
	// ErrTruncated indicates the buffer ended mid-field.
	ErrTruncated = errors.New("dns: message truncated")
	// ErrBadPointer indicates an invalid or looping compression pointer.
	ErrBadPointer = errors.New("dns: bad compression pointer")
	// ErrNameTooLong indicates a name exceeding RFC 1035 limits.
	ErrNameTooLong = errors.New("dns: name too long")
)

// encoder builds a wire-format message with name compression.
type encoder struct {
	buf     []byte
	offsets map[string]int // suffix -> offset for compression pointers
}

func (e *encoder) u16(v uint16) { e.buf = append(e.buf, byte(v>>8), byte(v)) }
func (e *encoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// name encodes a domain name, emitting a compression pointer when a suffix
// has been written before.
func (e *encoder) name(n string) error {
	n = CanonicalName(n)
	if len(n) > 255 {
		return ErrNameTooLong
	}
	labels := strings.Split(strings.TrimSuffix(n, "."), ".")
	if n == "." {
		labels = nil
	}
	for i := range labels {
		suffix := strings.Join(labels[i:], ".") + "."
		if off, ok := e.offsets[suffix]; ok && off < 0x4000 {
			e.u16(uint16(0xC000 | off))
			return nil
		}
		if len(e.buf) < 0x4000 {
			e.offsets[suffix] = len(e.buf)
		}
		label := labels[i]
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("dns: bad label %q in %q", label, n)
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) rr(r RR) error {
	if err := e.name(r.Name); err != nil {
		return err
	}
	e.u16(uint16(r.Type))
	e.u16(ClassIN)
	e.u32(r.TTL)
	lenAt := len(e.buf)
	e.u16(0) // RDLENGTH placeholder
	start := len(e.buf)
	switch r.Type {
	case TypeA:
		if !r.A.Is4() {
			return fmt.Errorf("dns: A record %q without IPv4 address", r.Name)
		}
		a := r.A.As4()
		e.buf = append(e.buf, a[:]...)
	case TypeNS:
		if err := e.name(r.Target); err != nil {
			return err
		}
	case TypeSOA:
		if r.SOA == nil {
			return fmt.Errorf("dns: SOA record %q without SOA data", r.Name)
		}
		if err := e.name(r.SOA.MName); err != nil {
			return err
		}
		if err := e.name(r.SOA.RName); err != nil {
			return err
		}
		e.u32(r.SOA.Serial)
		e.u32(r.SOA.Refresh)
		e.u32(r.SOA.Retry)
		e.u32(r.SOA.Expire)
		e.u32(r.SOA.Minimum)
	default:
		return fmt.Errorf("dns: cannot encode type %v", r.Type)
	}
	rdlen := len(e.buf) - start
	e.buf[lenAt] = byte(rdlen >> 8)
	e.buf[lenAt+1] = byte(rdlen)
	return nil
}

// Encode serializes m to wire format.
func (m *Message) Encode() ([]byte, error) {
	e := &encoder{offsets: map[string]int{}}
	e.u16(m.Header.ID)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode) & 0xF
	e.u16(flags)
	e.u16(uint16(len(m.Question)))
	e.u16(uint16(len(m.Answer)))
	e.u16(uint16(len(m.Authority)))
	e.u16(uint16(len(m.Additional)))
	for _, q := range m.Question {
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.u16(uint16(q.Type))
		e.u16(ClassIN)
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, r := range sec {
			if err := e.rr(r); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

// decoder parses wire format.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, ErrTruncated
	}
	v := uint16(d.buf[d.pos])<<8 | uint16(d.buf[d.pos+1])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrTruncated
	}
	v := uint32(d.buf[d.pos])<<24 | uint32(d.buf[d.pos+1])<<16 |
		uint32(d.buf[d.pos+2])<<8 | uint32(d.buf[d.pos+3])
	d.pos += 4
	return v, nil
}

// maxPointerJumps bounds the compression pointers one name may follow.
// Pointers only point backward and a name stops at 255 bytes, so decoding
// ends without it; the bound caps the work a chain of pointers costs. It
// must admit every name Encode writes: a 255-byte name has at most 127
// labels, and every pointer Encode emits lands on a label, so a name it
// writes follows no more pointers than it has labels.
const maxPointerJumps = 127

// name decodes a possibly compressed name starting at d.pos.
func (d *decoder) name() (string, error) {
	var sb strings.Builder
	pos := d.pos
	jumped := false
	jumps := 0
	for {
		if pos >= len(d.buf) {
			return "", ErrTruncated
		}
		b := d.buf[pos]
		switch {
		case b == 0:
			if !jumped {
				d.pos = pos + 1
			}
			if sb.Len() == 0 {
				return ".", nil
			}
			return sb.String(), nil
		case b&0xC0 == 0xC0:
			if pos+1 >= len(d.buf) {
				return "", ErrTruncated
			}
			target := int(b&0x3F)<<8 | int(d.buf[pos+1])
			if !jumped {
				d.pos = pos + 2
			}
			if target >= pos {
				return "", ErrBadPointer // pointers must point backward
			}
			jumps++
			if jumps > maxPointerJumps {
				return "", ErrBadPointer
			}
			pos = target
			jumped = true
		case b&0xC0 != 0:
			return "", fmt.Errorf("dns: reserved label type %#x", b&0xC0)
		default:
			n := int(b)
			if pos+1+n > len(d.buf) {
				return "", ErrTruncated
			}
			sb.Write(d.buf[pos+1 : pos+1+n])
			sb.WriteByte('.')
			if sb.Len() > 255 {
				return "", ErrNameTooLong
			}
			pos += 1 + n
		}
	}
}

func (d *decoder) rr() (RR, error) {
	var r RR
	name, err := d.name()
	if err != nil {
		return r, err
	}
	r.Name = name
	typ, err := d.u16()
	if err != nil {
		return r, err
	}
	r.Type = Type(typ)
	if _, err := d.u16(); err != nil { // CLASS
		return r, err
	}
	if r.TTL, err = d.u32(); err != nil {
		return r, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return r, err
	}
	end := d.pos + int(rdlen)
	if end > len(d.buf) {
		return r, ErrTruncated
	}
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, fmt.Errorf("dns: A record with rdlength %d", rdlen)
		}
		r.A = netip.AddrFrom4([4]byte(d.buf[d.pos:end]))
	case TypeNS:
		if r.Target, err = d.name(); err != nil {
			return r, err
		}
	case TypeSOA:
		var soa SOA
		if soa.MName, err = d.name(); err != nil {
			return r, err
		}
		if soa.RName, err = d.name(); err != nil {
			return r, err
		}
		for _, f := range []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			if *f, err = d.u32(); err != nil {
				return r, err
			}
		}
		r.SOA = &soa
	}
	// Every type resumes after its RDATA; unknown ones (AAAA, OPT, ...)
	// keep only the envelope.
	d.pos = end
	return r, nil
}

// Decode parses a wire-format message.
func Decode(buf []byte) (*Message, error) {
	d := &decoder{buf: buf}
	var m Message
	id, err := d.u16()
	if err != nil {
		return nil, err
	}
	m.Header.ID = id
	flags, err := d.u16()
	if err != nil {
		return nil, err
	}
	m.Header.Response = flags&(1<<15) != 0
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xF)
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		typ, err := d.u16()
		if err != nil {
			return nil, err
		}
		if _, err := d.u16(); err != nil {
			return nil, err
		}
		m.Question = append(m.Question, Question{Name: name, Type: Type(typ)})
	}
	for i, sec := range []*[]RR{&m.Answer, &m.Authority, &m.Additional} {
		for j := 0; j < int(counts[i+1]); j++ {
			r, err := d.rr()
			if err != nil {
				return nil, err
			}
			*sec = append(*sec, r)
		}
	}
	return &m, nil
}
