package dns

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"bestofboth/internal/obs"
)

// Resolver is a caching recursive resolver. It answers from cache while the
// TTL holds and otherwise performs a full wire-format query/response
// exchange against the authoritative server. Time is supplied by the caller
// as virtual seconds so the resolver composes with the simulation kernel.
type Resolver struct {
	auth  *Authoritative
	cache map[string]cacheEntry
	// nextID numbers outgoing queries.
	nextID uint16
	// UpstreamQueries counts cache misses that reached the authoritative.
	UpstreamQueries uint64

	// Metrics are nil until Instrument attaches a registry (nil-safe).
	mUpstream *obs.Counter
	mExpired  *obs.Counter
}

type cacheEntry struct {
	addrs     []netip.Addr
	ttl       uint32
	fetchedAt float64
	// negative marks an RFC 2308 negative-cache entry (NXDOMAIN/NODATA).
	negative bool
}

// NewResolver builds a resolver forwarding to auth.
func NewResolver(auth *Authoritative) *Resolver {
	return &Resolver{auth: auth, cache: map[string]cacheEntry{}}
}

// ErrNoSuchName is returned for NXDOMAIN and empty answers.
var ErrNoSuchName = errors.New("dns: no such name")

// Instrument attaches resolver metrics to r: upstream queries (cache
// misses that reached the authoritative) and cache-entry expirations — the
// TTL expiries that gate unicast failover. A nil registry detaches.
func (r *Resolver) Instrument(reg *obs.Registry) {
	r.mUpstream = reg.Counter("dns_resolver_upstream_queries_total")
	r.mExpired = reg.Counter("dns_resolver_cache_expirations_total")
}

// Resolve returns the A records for name at virtual time now, consulting
// the cache first. The returned remaining TTL is how long the caller may
// cache the answer. Negative answers are cached per RFC 2308 using the
// zone SOA's minimum TTL.
func (r *Resolver) Resolve(now float64, name string) ([]netip.Addr, float64, error) {
	fq := CanonicalName(name)
	if e, ok := r.cache[fq]; ok {
		expire := e.fetchedAt + float64(e.ttl)
		if now < expire {
			if e.negative {
				return nil, 0, ErrNoSuchName
			}
			return e.addrs, expire - now, nil
		}
		delete(r.cache, fq)
		r.mExpired.Inc()
	}
	resp, addrs, ttl, err := r.exchange(fq)
	if err != nil {
		return nil, 0, err
	}
	if len(addrs) == 0 {
		if resp.Header.RCode != RCodeNoError || len(resp.Answer) == 0 {
			// Negative caching (RFC 2308): remember the miss for the SOA
			// minimum so repeated lookups of dead names do not hammer the
			// authoritative.
			if negTTL, ok := negativeTTL(resp); ok {
				r.cache[fq] = cacheEntry{ttl: negTTL, fetchedAt: now, negative: true}
			}
		}
		return nil, 0, ErrNoSuchName
	}
	r.cache[fq] = cacheEntry{addrs: addrs, ttl: ttl, fetchedAt: now}
	return addrs, float64(ttl), nil
}

// exchange sends one A query for fq to the authoritative and returns the
// response with its A records for fq and their minimum TTL. A response that
// is not NOERROR yields no addresses.
func (r *Resolver) exchange(fq string) (*Message, []netip.Addr, uint32, error) {
	r.nextID++
	r.UpstreamQueries++
	r.mUpstream.Inc()
	query := &Message{
		Header:   Header{ID: r.nextID, RecursionDesired: true},
		Question: []Question{{Name: fq, Type: TypeA}},
	}
	wire, err := query.Encode()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dns: encoding query: %w", err)
	}
	respWire, err := r.auth.HandleQuery(wire)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dns: authoritative failed: %w", err)
	}
	resp, err := Decode(respWire)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dns: decoding response: %w", err)
	}
	if resp.Header.ID != query.Header.ID {
		return nil, nil, 0, fmt.Errorf("dns: response ID %d does not match query %d", resp.Header.ID, query.Header.ID)
	}
	if resp.Header.RCode != RCodeNoError {
		return resp, nil, 0, nil
	}
	var addrs []netip.Addr
	ttl := uint32(math.MaxUint32)
	for _, rr := range resp.Answer {
		if rr.Type == TypeA && CanonicalName(rr.Name) == fq {
			addrs = append(addrs, rr.A)
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
		}
	}
	return resp, addrs, ttl, nil
}

// negativeTTL extracts the RFC 2308 negative-cache TTL: the minimum of the
// SOA record's TTL and its MINIMUM field, when the authority section
// carries one.
func negativeTTL(resp *Message) (uint32, bool) {
	for _, rr := range resp.Authority {
		if rr.Type == TypeSOA && rr.SOA != nil {
			ttl := rr.TTL
			if rr.SOA.Minimum < ttl {
				ttl = rr.SOA.Minimum
			}
			return ttl, true
		}
	}
	return 0, false
}

// Flush drops the entire cache.
func (r *Resolver) Flush() {
	r.cache = map[string]cacheEntry{}
}

// ViolationModel captures empirical TTL-violation behavior: a fraction of
// clients keep using a DNS record after its TTL expires. Allman [IMC 2020]
// measured connections initiated a median of 890 s after record expiry; we
// model the extra usage time as lognormal with that median.
type ViolationModel struct {
	// Prob is the probability that a given fetch will be used past expiry.
	Prob float64
	// MedianExtra is the median extra usage time in seconds.
	MedianExtra float64
	// Sigma is the lognormal shape parameter.
	Sigma float64
}

// DefaultViolationModel returns parameters matching the literature: ~11% of
// connections violate TTL with 890 s median overrun.
func DefaultViolationModel() ViolationModel {
	return ViolationModel{Prob: 0.11, MedianExtra: 890, Sigma: 1.2}
}

// SampleExtra draws the extra usage time past TTL expiry for one fetch
// (zero for non-violating fetches).
func (v ViolationModel) SampleExtra(rng *rand.Rand) float64 {
	if v.Prob <= 0 || rng.Float64() >= v.Prob {
		return 0
	}
	if v.MedianExtra <= 0 {
		return 0
	}
	// Lognormal with median MedianExtra: exp(ln(median) + sigma*N(0,1)).
	return math.Exp(math.Log(v.MedianExtra) + v.Sigma*rng.NormFloat64())
}

// Client is an end host using DNS redirection: it resolves the service name
// through a recursive resolver, caches the answer itself, and — per the
// violation model — may keep using a stale address long after the TTL
// expired, which is exactly what breaks unicast failover.
type Client struct {
	resolver  *Resolver
	name      string
	rng       *rand.Rand
	violation ViolationModel

	addrs      []netip.Addr
	fetchedAt  float64
	expiresAt  float64
	staleUntil float64
	haveCache  bool
	// Resolutions counts lookups that went to the resolver.
	Resolutions int
}

// NewClient builds a client for the given service name.
func NewClient(resolver *Resolver, name string, seed int64, violation ViolationModel) *Client {
	return &Client{
		resolver:  resolver,
		name:      CanonicalName(name),
		rng:       rand.New(rand.NewSource(seed)),
		violation: violation,
	}
}

// Addr returns the address the client would connect to at virtual time now.
func (c *Client) Addr(now float64) (netip.Addr, error) {
	if c.haveCache {
		if now < c.expiresAt || now < c.staleUntil {
			return c.pick(), nil
		}
	}
	addrs, ttl, err := c.resolver.Resolve(now, c.name)
	if err != nil {
		// Per RFC-agnostic client behavior: on failure, keep using what we
		// have rather than failing hard.
		if c.haveCache {
			return c.pick(), nil
		}
		return netip.Addr{}, err
	}
	c.Resolutions++
	c.addrs = addrs
	c.fetchedAt = now
	c.expiresAt = now + ttl
	c.staleUntil = c.expiresAt + c.violation.SampleExtra(c.rng)
	c.haveCache = true
	return c.pick(), nil
}

// Expiry returns when the client's cached record expires (TTL) and when the
// client will actually stop using it (including any violation overrun).
func (c *Client) Expiry() (ttlExpiry, usageExpiry float64, ok bool) {
	if !c.haveCache {
		return 0, 0, false
	}
	usage := c.staleUntil
	if c.expiresAt > usage {
		usage = c.expiresAt
	}
	return c.expiresAt, usage, true
}

func (c *Client) pick() netip.Addr {
	if len(c.addrs) == 1 {
		return c.addrs[0]
	}
	return c.addrs[c.rng.Intn(len(c.addrs))]
}
