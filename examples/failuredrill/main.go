// Failuredrill: two operational exercises from the paper.
//
// First, the §4 debugging drill for reactive-anycast: before relying on
// reactive announcements in a real failure, a CDN rotates a test prefix
// through its sites — withdrawing it at one site at a time — and verifies
// clients are re-routed as expected.
//
// Second, the DNS side of the story: why unicast failover is slow. A
// client population with cached records (some violating TTL, per Allman
// 2020) keeps hitting a dead address long after the CDN updated DNS.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/dns"
	"bestofboth/internal/experiment"
	"bestofboth/internal/stats"
)

func main() {
	w, err := experiment.NewWorld(experiment.DefaultWorldConfig(
		experiment.WithSeed(33),
	))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.CDN.Deploy(core.ReactiveAnycast{}); err != nil {
		log.Fatal(err)
	}
	w.Converge(3600)

	// --- Drill 1: rotate a test prefix through the sites -----------------
	testPrefix := netip.MustParsePrefix("184.164.251.0/24")
	testAddr := core.ServiceAddr(testPrefix)
	probe := w.Targets()[42]

	fmt.Println("rotating test prefix through sites (§4 debugging drill):")
	sites := w.CDN.Sites()
	for i, s := range sites {
		// Announce the test prefix at this site and at the next site as
		// backup, then withdraw from the primary and verify traffic moves.
		backup := sites[(i+1)%len(sites)]
		w.Net.Originate(s.Node, testPrefix, nil)
		w.Net.Originate(backup.Node, testPrefix, &bgp.OriginPolicy{Prepend: 3})
		w.Converge(1200)

		before, _ := w.Plane.Catchment(probe.ID, testAddr)
		t0 := w.Sim.Now()
		w.Net.Withdraw(s.Node, testPrefix)
		w.Converge(1200)
		after, _ := w.Plane.Catchment(probe.ID, testAddr)

		status := "OK"
		if w.Topo.Node(after).Site != backup.Code {
			status = "UNEXPECTED"
		}
		fmt.Printf("  %-5s -> %-5s: probe moved %-5s -> %-5s in %4.1fs virtual  [%s]\n",
			s.Code, backup.Code,
			w.Topo.Node(before).Site, w.Topo.Node(after).Site, w.Sim.Now()-t0, status)

		w.Net.Withdraw(backup.Node, testPrefix)
		w.Converge(1200)
	}

	// --- Drill 2: the DNS failover tail ----------------------------------
	fmt.Println("\nDNS failover for comparison (why unicast alone is not enough):")
	auth := dns.NewAuthoritative("cdn.example.")
	failedAddr := netip.MustParseAddr("184.164.240.10")
	healthyAddr := netip.MustParseAddr("184.164.241.10")
	const ttl = 600
	if err := auth.SetA("www", ttl, failedAddr); err != nil {
		log.Fatal(err)
	}

	const clients = 3000
	var recoveries []float64
	for i := 0; i < clients; i++ {
		resolver := dns.NewResolver(auth)
		c := dns.NewClient(resolver, "www.cdn.example", int64(i), dns.DefaultViolationModel())
		fetchedAt := float64(i%ttl) + float64(i)/clients
		if _, err := c.Addr(fetchedAt); err != nil {
			log.Fatal(err)
		}
		// Site dies at t0 = 600; the CDN repoints DNS 2 s later.
		_, usageExpiry, _ := c.Expiry()
		recover := usageExpiry
		if recover < 602 {
			recover = 602
		}
		recoveries = append(recoveries, recover-600)
	}
	auth.SetA("www", ttl, healthyAddr)

	cdf := stats.NewCDF(recoveries)
	fmt.Printf("  %d clients cached the dead record (TTL %ds)\n", clients, ttl)
	fmt.Printf("  time until clients stop hitting the dead address:\n")
	fmt.Printf("    median %.0fs   p90 %.0fs   p99 %.0fs (TTL violations)\n",
		cdf.Median(), cdf.Percentile(90), cdf.Percentile(99))
	fmt.Println("\nreactive-anycast restored the test prefix in seconds above; the")
	fmt.Println("DNS path leaves the median client dark for minutes and the tail")
	fmt.Println("for much longer — the paper's core motivation (§1, §2).")
}
