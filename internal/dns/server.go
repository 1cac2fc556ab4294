package dns

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"bestofboth/internal/obs"
)

// Authoritative is the CDN's authoritative DNS server. The CDN controller
// updates A records to steer clients to sites (DNS-based redirection, §2);
// the server answers queries over the wire codec.
//
// Authoritative is safe for concurrent use: examples and tools may query it
// from multiple goroutines even though the simulator itself is single
// threaded.
type Authoritative struct {
	mu     sync.RWMutex
	origin string   //cdnlint:nosnapshot construction-time zone identity, untouched by RestoreZone
	soa    SOA      //cdnlint:nosnapshot identity fields are construction-time; RestoreZone reinstates only Serial
	ns     []string //cdnlint:nosnapshot construction-time zone identity, untouched by RestoreZone
	a      map[string]aSet
	serial uint32
	// QueryCount tallies answered queries for reporting.
	QueryCount uint64

	// Metrics are nil until Instrument attaches a registry (nil-safe).
	mQueries     *obs.Counter
	mZoneUpdates *obs.Counter
}

type aSet struct {
	addrs []netip.Addr
	ttl   uint32
}

// NewAuthoritative builds a server authoritative for origin (e.g.
// "cdn.example.").
func NewAuthoritative(origin string) *Authoritative {
	origin = CanonicalName(origin)
	return &Authoritative{
		origin: origin,
		soa: SOA{
			MName:   "ns1." + origin,
			RName:   "hostmaster." + origin,
			Serial:  1,
			Refresh: 3600,
			Retry:   600,
			Expire:  86400,
			Minimum: 60,
		},
		ns:     []string{"ns1." + origin, "ns2." + origin},
		a:      map[string]aSet{},
		serial: 1,
	}
}

// Origin returns the zone origin.
func (s *Authoritative) Origin() string { return s.origin }

// Instrument attaches DNS metrics to r: queries answered and zone updates
// (every record change — the controller's failover "repoints" land here).
// A nil registry detaches.
func (s *Authoritative) Instrument(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mQueries = r.Counter("dns_queries_total")
	s.mZoneUpdates = r.Counter("dns_zone_updates_total")
}

// Serial returns the current zone serial, bumped on every record change.
func (s *Authoritative) Serial() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.serial
}

// SetA replaces the A records for name with addrs at the given TTL.
// The name may be relative to the origin or fully qualified.
func (s *Authoritative) SetA(name string, ttl uint32, addrs ...netip.Addr) error {
	fq := s.qualify(name)
	if !strings.HasSuffix(fq, s.origin) {
		return fmt.Errorf("dns: name %q outside zone %q", fq, s.origin)
	}
	for _, a := range addrs {
		if !a.Is4() {
			return fmt.Errorf("dns: non-IPv4 address %v for %q", a, fq)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.a[fq] = aSet{addrs: append([]netip.Addr(nil), addrs...), ttl: ttl}
	s.serial++
	s.soa.Serial = s.serial
	s.mZoneUpdates.Inc()
	return nil
}

// RemoveA deletes the A records for name.
func (s *Authoritative) RemoveA(name string) {
	fq := s.qualify(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.a[fq]; ok {
		delete(s.a, fq)
		s.serial++
		s.soa.Serial = s.serial
		s.mZoneUpdates.Inc()
	}
}

// Record is one exported record set of the zone, as returned by DumpZone.
type Record struct {
	Name  string
	Type  string // always "A"
	TTL   uint32
	Addrs []netip.Addr
}

// DumpZone returns every A record set, sorted by name — the deterministic
// zone dump the control-plane API serves and fingerprints.
func (s *Authoritative) DumpZone() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, 0, len(s.a))
	for name, set := range s.a {
		out = append(out, Record{Name: name, Type: "A", TTL: set.ttl, Addrs: append([]netip.Addr(nil), set.addrs...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns all names with A records, sorted.
func (s *Authoritative) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.a))
	for n := range s.a {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Authoritative) qualify(name string) string {
	name = strings.ToLower(name)
	if strings.HasSuffix(name, ".") {
		return name
	}
	return name + "." + s.origin
}

// HandleQuery answers a wire-format query and returns a wire-format
// response, exercising the full codec round trip.
func (s *Authoritative) HandleQuery(query []byte) ([]byte, error) {
	q, err := Decode(query)
	if err != nil {
		resp := &Message{Header: Header{Response: true, Authoritative: true, RCode: RCodeFormErr}}
		return resp.Encode()
	}
	resp := s.Answer(q)
	return resp.Encode()
}

// Answer builds the response message for a parsed query.
func (s *Authoritative) Answer(q *Message) *Message {
	s.mu.Lock()
	s.QueryCount++
	s.mQueries.Inc()
	s.mu.Unlock()

	resp := &Message{Header: Header{
		ID:               q.Header.ID,
		Response:         true,
		Authoritative:    true,
		RecursionDesired: q.Header.RecursionDesired,
	}}
	if len(q.Question) != 1 {
		resp.Header.RCode = RCodeFormErr
		return resp
	}
	question := q.Question[0]
	resp.Question = q.Question
	name := CanonicalName(question.Name)
	if !strings.HasSuffix(name, s.origin) {
		resp.Header.RCode = RCodeRefused
		return resp
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	switch question.Type {
	case TypeA:
		set, ok := s.a[name]
		if !ok {
			resp.Header.RCode = RCodeNXDomain
			resp.Authority = append(resp.Authority, s.soaRR())
			return resp
		}
		for _, a := range set.addrs {
			resp.Answer = append(resp.Answer, RR{Name: name, Type: TypeA, TTL: set.ttl, A: a})
		}
	case TypeNS:
		if name != s.origin {
			resp.Header.RCode = RCodeNXDomain
			resp.Authority = append(resp.Authority, s.soaRR())
			return resp
		}
		for _, ns := range s.ns {
			resp.Answer = append(resp.Answer, RR{Name: name, Type: TypeNS, TTL: 86400, Target: ns})
		}
	case TypeSOA:
		if name != s.origin {
			resp.Header.RCode = RCodeNXDomain
		}
		resp.Answer = append(resp.Answer, s.soaRR())
	default:
		// Name exists (or not) but type unsupported: NOERROR/NODATA or
		// NXDOMAIN accordingly.
		if _, ok := s.a[name]; !ok && name != s.origin {
			resp.Header.RCode = RCodeNXDomain
		}
		resp.Authority = append(resp.Authority, s.soaRR())
	}
	return resp
}

func (s *Authoritative) soaRR() RR {
	soa := s.soa
	return RR{Name: s.origin, Type: TypeSOA, TTL: 3600, SOA: &soa}
}
