package core

import (
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// newSharedWorld builds a world where all CDN sites share two tier-1
// providers — the real-CDN deployment of §4 that makes scoped
// announcements viable.
func newSharedWorld(t *testing.T, seed int64) *world {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Seed: seed, NumStub: 80, NumEyeball: 60, NumUniversity: 16,
		CDNSharedProviders: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(seed)
	net := bgp.New(sim, topo, bgp.Config{MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.02, ProcMax: 0.3})
	plane := dataplane.New(net)
	cdn, err := New(net, plane)
	if err != nil {
		t.Fatal(err)
	}
	return &world{sim: sim, topo: topo, net: net, plane: plane, cdn: cdn}
}

func TestSharedProvidersGiveScopedCoverage(t *testing.T) {
	w := newSharedWorld(t, 50)
	if err := w.cdn.Deploy(ProactivePrepending{Prepends: 3, Scoped: true}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	client := w.someClient(t)

	// Control: with backups scoped to the shared tier-1s, every site
	// remains fully steerable (the backup never outranks the primary at a
	// neighbor that hears both).
	for _, s := range w.cdn.Sites() {
		if !w.cdn.CanSteer(client.ID, s) {
			t.Fatalf("scoped prepending with shared providers cannot steer to %s", s.Code)
		}
	}

	// Availability: failing any site leaves its prefix reachable via the
	// scoped backups at the shared providers — no reconfiguration needed.
	failed := w.cdn.Site("atl")
	w.cdn.FailSite("atl")
	w.converge()
	after := w.cdn.CatchmentOf(client.ID, failed.Addr)
	if after == nil {
		t.Fatal("scoped backups did not provide failover despite shared providers")
	}
	if after.Node == failed.Node {
		t.Fatal("traffic still reaches the failed site")
	}
}

func TestDisjointProvidersLimitScopedCoverage(t *testing.T) {
	// The PEERING-faithful default: atl shares no neighbor ASN with any
	// other site, so scoped prepending installs no backups for it and the
	// prefix goes dark on failure — the reason the paper's evaluation
	// prepends from all sites (§5.2).
	w := newWorld(t, 51)
	if err := w.cdn.Deploy(ProactivePrepending{Prepends: 3, Scoped: true}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	client := w.someClient(t)
	failed := w.cdn.Site("atl")
	w.cdn.FailSite("atl")
	w.converge()
	if after := w.cdn.CatchmentOf(client.ID, failed.Addr); after != nil {
		t.Fatalf("expected no failover coverage for atl under disjoint providers, got %s", after.Code)
	}
}

func TestSharedProvidersMEDFailover(t *testing.T) {
	w := newSharedWorld(t, 52)
	if err := w.cdn.Deploy(ProactiveMED{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	client := w.someClient(t)
	for _, s := range w.cdn.Sites() {
		if !w.cdn.CanSteer(client.ID, s) {
			t.Fatalf("MED with shared providers cannot steer to %s", s.Code)
		}
	}
	failed := w.cdn.Site("msn")
	w.cdn.FailSite("msn")
	w.converge()
	after := w.cdn.CatchmentOf(client.ID, failed.Addr)
	if after == nil || after.Node == failed.Node {
		t.Fatalf("MED failover with shared providers broken: %+v", after)
	}
}
