package core

import (
	"net/netip"
	"testing"

	"bestofboth/internal/dns"
)

func TestMonitorDetectsCrash(t *testing.T) {
	w := newWorld(t, 20)
	if err := w.cdn.Deploy(ReactiveAnycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()

	var detectedCode string
	var detectedAt float64
	mon, err := w.cdn.StartMonitor(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	mon.OnDetect = func(code string, at float64) {
		detectedCode, detectedAt = code, at
	}
	// Let a few healthy probe cycles pass: no detections.
	w.sim.RunFor(5)
	if mon.Detections != 0 {
		t.Fatalf("false positive: %d detections on healthy sites", mon.Detections)
	}

	crashAt := w.sim.Now()
	if _, err := w.cdn.CrashSite("atl"); err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(30)

	if mon.Detections != 1 || detectedCode != "atl" {
		t.Fatalf("detections = %d (%q), want 1 (atl)", mon.Detections, detectedCode)
	}
	lag := detectedAt - crashAt
	if lag <= 0 || lag > 5 {
		t.Fatalf("detection lag %.2fs outside (0, 5s] for 0.5s×3 probing", lag)
	}
	// The reaction ran: reactive announcements restored reachability.
	// (Stop the monitor so the event queue can drain; a running monitor
	// reschedules itself forever.)
	mon.Stop()
	w.sim.RunFor(300)
	client := w.someClient(t)
	after := w.cdn.CatchmentOf(client.ID, w.cdn.Site("atl").Addr)
	if after == nil || after.Code == "atl" {
		t.Fatalf("monitor-triggered reaction did not restore reachability: %+v", after)
	}
}

// TestMonitorIgnoresSitesWithoutOwnPrefix runs the monitor over healthy
// worlds whose technique never announces a site's own prefix: the health
// check has nothing to reach, so those sites must not be watched at all,
// let alone declared down.
func TestMonitorIgnoresSitesWithoutOwnPrefix(t *testing.T) {
	for _, tech := range []Technique{Anycast{}, LoadShed{}, LoadShift{}} {
		w := newWorld(t, 24)
		if err := w.cdn.Deploy(tech); err != nil {
			t.Fatal(err)
		}
		w.converge()
		mon, err := w.cdn.StartMonitor(MonitorInterval, MonitorMisses)
		if err != nil {
			t.Fatal(err)
		}
		w.sim.RunFor(30)
		mon.Stop()
		if mon.Detections != 0 || len(w.cdn.HealthySites()) != len(w.cdn.Sites()) {
			t.Errorf("%s: %d detections, %d of %d sites healthy on a fault-free run",
				tech.Name(), mon.Detections, len(w.cdn.HealthySites()), len(w.cdn.Sites()))
		}
	}
}

func TestMonitorStop(t *testing.T) {
	w := newWorld(t, 21)
	w.cdn.Deploy(Anycast{})
	w.converge()
	mon, err := w.cdn.StartMonitor(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	w.cdn.CrashSite("ams")
	w.sim.RunFor(20)
	if mon.Detections != 0 {
		t.Fatal("stopped monitor still detected")
	}
}

func TestMonitorRequiresDeployAndValidParams(t *testing.T) {
	w := newWorld(t, 22)
	if _, err := w.cdn.StartMonitor(0.5, 3); err == nil {
		t.Fatal("monitor started without technique")
	}
	w.cdn.Deploy(Anycast{})
	if _, err := w.cdn.StartMonitor(0, 3); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := w.cdn.StartMonitor(1, 0); err == nil {
		t.Fatal("zero misses accepted")
	}
}

func TestReactToFailureIdempotentAndGuarded(t *testing.T) {
	w := newWorld(t, 23)
	w.cdn.Deploy(ReactiveAnycast{})
	w.converge()
	if err := w.cdn.ReactToFailure("ams"); err == nil {
		t.Fatal("reaction on healthy site accepted")
	}
	if err := w.cdn.ReactToFailure("zzz"); err == nil {
		t.Fatal("reaction on unknown site accepted")
	}
	w.cdn.CrashSite("ams")
	if err := w.cdn.ReactToFailure("ams"); err != nil {
		t.Fatal(err)
	}
	msgs := w.net.MessageCount()
	w.converge()
	after := w.net.MessageCount()
	// Second reaction is a no-op: no new announcements.
	if err := w.cdn.ReactToFailure("ams"); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if w.net.MessageCount() != after {
		t.Fatalf("duplicate reaction generated traffic (%d -> %d, initial %d)",
			after, w.net.MessageCount(), msgs)
	}
}

func TestEndUserMappingAnswersPerClient(t *testing.T) {
	w := newWorld(t, 24)
	w.cdn.Deploy(Unicast{})
	w.converge()
	w.cdn.EnableEndUserMapping()

	resolver := dns.NewResolver(w.cdn.Authoritative())
	// Two clients in different regions should (typically) map to
	// different sites; at minimum both get valid steering addresses of
	// healthy sites they can reach.
	var clients []netip.Addr
	for _, n := range w.topo.Nodes {
		if n.Prefix.IsValid() {
			clients = append(clients, n.Prefix.Addr().Next())
		}
		if len(clients) >= 40 {
			break
		}
	}
	distinct := map[netip.Addr]bool{}
	for _, caddr := range clients {
		addrs, _, err := resolver.ResolveFor(0, "www.cdn.example", caddr)
		if err != nil {
			t.Fatalf("client %v: %v", caddr, err)
		}
		if len(addrs) != 1 {
			t.Fatalf("client %v got %d answers", caddr, len(addrs))
		}
		distinct[addrs[0]] = true
		if !SuperPrefix.Contains(addrs[0]) {
			t.Fatalf("answer %v outside the site prefix plan", addrs[0])
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("end-user mapping returned a single site for all %d clients", len(clients))
	}
	if w.cdn.Authoritative().ECSAnswered == 0 {
		t.Fatal("no ECS-answered queries recorded")
	}
}

func TestEndUserMappingAvoidsFailedSite(t *testing.T) {
	w := newWorld(t, 25)
	w.cdn.Deploy(Unicast{})
	w.converge()
	w.cdn.EnableEndUserMapping()
	resolver := dns.NewResolver(w.cdn.Authoritative())

	// Find a client mapped to some site, then fail that site and confirm
	// the mapper immediately moves the client.
	client := w.someClient(t)
	caddr := client.Prefix.Addr().Next()
	addrs, _, err := resolver.ResolveFor(0, "www.cdn.example", caddr)
	if err != nil {
		t.Fatal(err)
	}
	var mapped *Site
	for _, s := range w.cdn.Sites() {
		if s.Addr == addrs[0] {
			mapped = s
		}
	}
	if mapped == nil {
		t.Fatalf("answer %v is not a site address", addrs[0])
	}
	w.cdn.FailSite(mapped.Code)
	w.converge()
	resolver.Flush()
	addrs2, _, err := resolver.ResolveFor(w.sim.Now(), "www.cdn.example", caddr)
	if err != nil {
		t.Fatal(err)
	}
	if addrs2[0] == mapped.Addr {
		t.Fatalf("mapper still hands out failed site %s", mapped.Code)
	}
}

func TestBestSiteForPrefersSteerableNearest(t *testing.T) {
	w := newWorld(t, 26)
	w.cdn.Deploy(Unicast{})
	w.converge()
	client := w.someClient(t)
	best := w.cdn.BestSiteFor(client.ID)
	if best == nil {
		t.Fatal("no best site")
	}
	// Under unicast every site is steerable, so best must be the latency
	// minimum across all sites.
	for _, s := range w.cdn.Sites() {
		if w.plane.StaticDelay(s.Node, client.ID) < w.plane.StaticDelay(best.Node, client.ID)-1e-12 {
			t.Fatalf("site %s is closer than chosen %s", s.Code, best.Code)
		}
	}
}
