package bestofboth

import (
	"net/netip"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/dns"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// Plane simulates packet forwarding over the FIBs the BGP layer produces.
type Plane = dataplane.Plane

// Prober reproduces the paper's Verfploeter-style probing (§5.2).
type Prober = dataplane.Prober

// ForwardResult reports one packet's fate.
type ForwardResult = dataplane.ForwardResult

// NewProber builds a prober emitting from a node with replies addressed to
// replyTo.
func NewProber(plane *Plane, from NodeID, replyTo netip.Addr) *Prober {
	return dataplane.NewProber(plane, from, replyTo)
}

// AnycastAddr returns the service address inside the shared anycast prefix.
func AnycastAddr() netip.Addr { return core.AnycastServiceAddr }

// ServiceAddr returns the conventional service address inside a prefix.
func ServiceAddr(p netip.Prefix) netip.Addr { return core.ServiceAddr(p) }

// SitePrefix returns the dedicated /24 of the i-th site.
func SitePrefix(i int) netip.Prefix { return core.SitePrefix(i) }

// Authoritative is the CDN zone's authoritative DNS server.
type Authoritative = dns.Authoritative

// Resolver is a caching recursive resolver.
type Resolver = dns.Resolver

// Client is an end host with an empirical TTL-violation model.
type DNSClient = dns.Client

// ViolationModel models clients using DNS records past expiry.
type ViolationModel = dns.ViolationModel

// DNSRecord is one record set of an authoritative zone dump.
type DNSRecord = dns.Record

// NewAuthoritative builds an authoritative server for the origin zone.
func NewAuthoritative(origin string) *Authoritative { return dns.NewAuthoritative(origin) }

// NewResolver builds a caching resolver backed by an authoritative server.
func NewResolver(auth *Authoritative) *Resolver { return dns.NewResolver(auth) }

// NewDNSClient builds a client resolving name through resolver.
func NewDNSClient(resolver *Resolver, name string, seed int64, v ViolationModel) *DNSClient {
	return dns.NewClient(resolver, name, seed, v)
}

// DefaultViolationModel returns the literature-derived TTL-violation model.
func DefaultViolationModel() ViolationModel { return dns.DefaultViolationModel() }

// NodeID identifies one node (AS) in the topology.
type NodeID = topology.NodeID

// Node is one autonomous system in the generated topology.
type Node = topology.Node

// Seconds is virtual time.
type Seconds = netsim.Seconds

// OriginPolicy customizes one origination (prepending, MED, communities).
type OriginPolicy = bgp.OriginPolicy
