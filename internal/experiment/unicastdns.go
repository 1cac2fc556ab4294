package experiment

import (
	"fmt"
	"math"

	"bestofboth/internal/core"
	"bestofboth/internal/dns"
	"bestofboth/internal/stats"
)

// UnicastDNSConfig parameterizes the unicast-baseline failover model. The
// paper could not measure unicast failover on the real Internet (its
// emulated CDN hosts no popular service, §5), so this experiment quantifies
// it from first principles using the machinery the paper cites: record TTL
// [Moura et al. 2019] and TTL-violating clients [Allman 2020].
type UnicastDNSConfig struct {
	// TTL of the service records in seconds (paper context: popular
	// domains use ~600 s at median; Akamai uses 20 s).
	TTL uint32
	// Clients is the client population size.
	Clients int
	// Violations models clients using records past expiry.
	Violations dns.ViolationModel
	// Horizon caps the measured failover time in seconds (CDF clamp).
	Horizon float64
}

// DefaultUnicastDNSConfig matches the literature's parameters.
func DefaultUnicastDNSConfig() UnicastDNSConfig {
	return UnicastDNSConfig{
		TTL:        600,
		Clients:    2000,
		Violations: dns.DefaultViolationModel(),
		Horizon:    7200,
	}
}

// UnicastDNSFailover simulates a site failure under pure unicast: every
// client cached the failed site's record at a uniformly random time before
// the failure, the CDN repoints DNS after its detection delay, and each
// client recovers when it actually re-resolves — at TTL expiry, or far
// later if it violates TTL. Returns the failover-time CDF across clients.
func UnicastDNSFailover(cfg WorldConfig, ucfg UnicastDNSConfig) (*stats.CDF, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.CDN.DNSTTL = ucfg.TTL
	if err := w.CDN.Deploy(core.Unicast{}); err != nil {
		return nil, fmt.Errorf("experiment: deploying unicast: %w", err)
	}
	w.Converge(3600)

	failed := w.CDN.Sites()[0]
	auth := w.CDN.Authoritative()
	name := failed.Code + ".cdn.example."
	rng := w.Sim.Rand()

	// Each client sits behind its own recursive resolver (clients across
	// the Internet use different resolvers) and resolved at a uniform time
	// in the TTL window preceding the failure, so cache expiries are
	// uniform over (t0, t0+TTL].
	type clientState struct {
		c         *dns.Client
		resolver  *dns.Resolver
		fetchedAt float64
	}
	t0 := w.Sim.Now() + float64(ucfg.TTL) // failure instant
	clients := make([]clientState, 0, ucfg.Clients)
	for i := 0; i < ucfg.Clients; i++ {
		resolver := dns.NewResolver(auth)
		c := dns.NewClient(resolver, name, cfg.Seed+int64(i)*7919, ucfg.Violations)
		fetchedAt := w.Sim.Now() + rng.Float64()*float64(ucfg.TTL)
		if _, err := c.Addr(fetchedAt); err != nil {
			return nil, fmt.Errorf("experiment: client resolve: %w", err)
		}
		clients = append(clients, clientState{c: c, resolver: resolver, fetchedAt: fetchedAt})
	}

	// Fail the site at t0; the controller repoints DNS after detection.
	w.Sim.RunUntil(t0)
	if _, err := w.CDN.FailSite(failed.Code); err != nil {
		return nil, err
	}
	w.Sim.RunUntil(t0 + core.DetectionDelay + 1)
	dnsUpdated := w.Sim.Now()

	var failover []float64
	for _, cs := range clients {
		// Resolver caches expire alongside the client records they fed;
		// flush so post-recovery verification sees the updated zone (the
		// client-side expiry is the binding constraint either way).
		cs.resolver.Flush()
		_, usageExpiry, ok := cs.c.Expiry()
		if !ok {
			continue
		}
		// The client keeps hitting the dead address until it re-resolves
		// (usageExpiry) and the new record is live (dnsUpdated).
		recover := math.Max(usageExpiry, dnsUpdated)
		ft := recover - t0
		if ft < 0 {
			ft = 0
		}
		if ft > ucfg.Horizon {
			ft = ucfg.Horizon
		}
		// Verify through the machinery: after recovery the client must
		// fetch a healthy address.
		if addr, err := cs.c.Addr(recover + 1); err == nil && addr == failed.Addr {
			return nil, fmt.Errorf("experiment: client still on failed address after recovery point")
		}
		failover = append(failover, ft)
	}
	return stats.NewCDF(failover), nil
}
