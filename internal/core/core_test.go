package core

import (
	"net/netip"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/dns"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

type world struct {
	sim   *netsim.Sim
	topo  *topology.Topology
	net   *bgp.Network
	plane *dataplane.Plane
	cdn   *CDN
}

func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: seed, NumStub: 80, NumEyeball: 60, NumUniversity: 16})
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

// converge drains all pending control-plane events.
func (w *world) converge() { w.sim.Run() }

// someClient returns a prefix-bearing node that is reachable.
func (w *world) someClient(t *testing.T) *topology.Node {
	t.Helper()
	for _, n := range w.topo.Nodes {
		if n.Class == topology.ClassStub && n.Prefix.IsValid() {
			return n
		}
	}
	t.Fatal("no client node found")
	return nil
}

func TestNewCDNSites(t *testing.T) {
	w := newWorld(t, 1)
	sites := w.cdn.Sites()
	if len(sites) != 8 {
		t.Fatalf("got %d sites", len(sites))
	}
	seenPrefix := map[netip.Prefix]bool{}
	seenCode := map[string]bool{}
	for _, s := range sites {
		if seenPrefix[s.Prefix] {
			t.Fatalf("duplicate site prefix %v", s.Prefix)
		}
		seenPrefix[s.Prefix] = true
		if seenCode[s.Code] {
			t.Fatalf("duplicate site code %v", s.Code)
		}
		seenCode[s.Code] = true
		if !SuperPrefix.Contains(s.Addr) {
			t.Fatalf("site addr %v outside superprefix %v", s.Addr, SuperPrefix)
		}
		if !s.Prefix.Contains(s.Addr) {
			t.Fatalf("site addr %v outside its prefix %v", s.Addr, s.Prefix)
		}
		if w.cdn.Site(s.Code) != s {
			t.Fatal("Site lookup broken")
		}
	}
	if w.cdn.Site("nope") != nil {
		t.Fatal("unknown site lookup returned non-nil")
	}
}

func TestSitePrefixPlan(t *testing.T) {
	for i := 0; i < 8; i++ {
		p := SitePrefix(i)
		if !SuperPrefix.Contains(p.Addr()) || p.Bits() != 24 {
			t.Fatalf("SitePrefix(%d) = %v not a /24 under %v", i, p, SuperPrefix)
		}
	}
	if SitePrefix(0) == SitePrefix(1) {
		t.Fatal("site prefixes collide")
	}
	a := ServiceAddr(SitePrefix(3))
	if a != netip.MustParseAddr("184.164.243.10") {
		t.Fatalf("ServiceAddr = %v", a)
	}
}

func TestUnicastSteersEveryClientToEverySite(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	client := w.someClient(t)
	for _, s := range w.cdn.Sites() {
		if !w.cdn.CanSteer(client.ID, s) {
			t.Fatalf("unicast cannot steer client to %s", s.Code)
		}
	}
}

func TestDeployTwiceFails(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	if err := w.cdn.Deploy(Anycast{}); err == nil {
		t.Fatal("second Deploy accepted")
	}
}

func TestAnycastSingleCatchmentPerClient(t *testing.T) {
	w := newWorld(t, 3)
	if err := w.cdn.Deploy(Anycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	counts := map[string]int{}
	for _, n := range w.topo.Nodes {
		if !n.Prefix.IsValid() {
			continue
		}
		s := w.cdn.CatchmentOf(n.ID, AnycastServiceAddr)
		if s == nil {
			t.Fatalf("client %s cannot reach the anycast prefix", n.Name)
		}
		counts[s.Code]++
	}
	if len(counts) < 3 {
		t.Fatalf("anycast catchments collapsed to %d sites: %v", len(counts), counts)
	}
	// SteerAddr is the shared address for every site.
	for _, s := range w.cdn.Sites() {
		if (Anycast{}).SteerAddr(w.cdn, s) != AnycastServiceAddr {
			t.Fatal("anycast SteerAddr differs per site")
		}
	}
}

func TestUnicastFailureBlackholesUntilDNS(t *testing.T) {
	w := newWorld(t, 4)
	w.cdn.Deploy(Unicast{})
	w.converge()
	client := w.someClient(t)
	failed := w.cdn.Sites()[0]

	if _, err := w.cdn.FailSite(failed.Code); err != nil {
		t.Fatal(err)
	}
	w.converge()
	// Data plane: the failed site's address is unreachable (no other site
	// announces it).
	if s := w.cdn.CatchmentOf(client.ID, failed.Addr); s != nil {
		t.Fatalf("failed unicast address still reaches %s", s.Code)
	}
	// DNS was repointed at a healthy site.
	auth := w.cdn.Authoritative()
	resp := authQueryA(t, auth, failed.Code+".cdn.example.")
	if len(resp) != 1 || resp[0] == failed.Addr {
		t.Fatalf("DNS for failed site = %v", resp)
	}
	if w.cdn.Failed(failed.Code) != true {
		t.Fatal("Failed() not reporting")
	}
	if got := len(w.cdn.HealthySites()); got != 7 {
		t.Fatalf("HealthySites = %d", got)
	}
}

func TestFailSiteErrors(t *testing.T) {
	w := newWorld(t, 1)
	if _, err := w.cdn.FailSite("ams"); err == nil {
		t.Fatal("FailSite before Deploy accepted")
	}
	w.cdn.Deploy(Unicast{})
	if _, err := w.cdn.FailSite("zzz"); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := w.cdn.FailSite("ams"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.cdn.FailSite("ams"); err == nil {
		t.Fatal("double failure accepted")
	}
	if _, err := w.cdn.RecoverSite("bos"); err == nil {
		t.Fatal("recovering healthy site accepted")
	}
	if _, err := w.cdn.RecoverSite("zzz"); err == nil {
		t.Fatal("recovering unknown site accepted")
	}
}

func TestReactiveAnycastRestoresReachability(t *testing.T) {
	w := newWorld(t, 5)
	w.cdn.Deploy(ReactiveAnycast{})
	w.converge()
	client := w.someClient(t)
	failed := w.cdn.Sites()[2]

	before := w.cdn.CatchmentOf(client.ID, failed.Addr)
	if before == nil || before.Node != failed.Node {
		t.Fatalf("before failure client routed to %+v", before)
	}
	w.cdn.FailSite(failed.Code)
	w.converge()
	after := w.cdn.CatchmentOf(client.ID, failed.Addr)
	if after == nil {
		t.Fatal("reactive-anycast left the failed prefix unreachable")
	}
	if after.Node == failed.Node {
		t.Fatal("traffic still reaches the failed site")
	}
}

func TestProactiveSuperprefixRestoresReachability(t *testing.T) {
	w := newWorld(t, 6)
	w.cdn.Deploy(ProactiveSuperprefix{})
	w.converge()
	client := w.someClient(t)
	failed := w.cdn.Sites()[1]
	w.cdn.FailSite(failed.Code)
	w.converge()
	after := w.cdn.CatchmentOf(client.ID, failed.Addr)
	if after == nil || after.Node == failed.Node {
		t.Fatalf("superprefix fallback failed: %+v", after)
	}
}

func TestProactivePrependingControlAndFailover(t *testing.T) {
	w := newWorld(t, 7)
	w.cdn.Deploy(ProactivePrepending{Prepends: 3})
	w.converge()

	// Control: across a sample of clients, steering must work for a
	// meaningful fraction (anycast alone would not steer them all).
	clients := 0
	steerable := 0
	for _, n := range w.topo.Nodes {
		if !n.Prefix.IsValid() || clients >= 60 {
			continue
		}
		clients++
		if w.cdn.CanSteer(n.ID, w.cdn.Site("ath")) {
			steerable++
		}
	}
	if steerable == 0 {
		t.Fatal("prepending steers no clients at all")
	}

	failed := w.cdn.Site("ath")
	client := w.someClient(t)
	w.cdn.FailSite(failed.Code)
	w.converge()
	after := w.cdn.CatchmentOf(client.ID, failed.Addr)
	if after == nil || after.Node == failed.Node {
		t.Fatalf("prepending failover broken: %+v", after)
	}
}

func TestScopedPrependingRestrictsExports(t *testing.T) {
	w := newWorld(t, 8)
	w.cdn.Deploy(ProactivePrepending{Prepends: 3, Scoped: true})
	w.converge()
	// Every backup announcement must have gone only to neighbors that also
	// connect to the owner site. Verify via the BGP layer: any AS holding a
	// prepended route directly from a backup site must also neighbor the
	// owner site.
	topo := w.topo
	for _, owner := range w.cdn.Sites() {
		ownerASNs := map[topology.ASN]bool{}
		for _, adj := range topo.Node(owner.Node).Adj {
			ownerASNs[topo.Node(adj.To).ASN] = true
		}
		for _, backup := range w.cdn.Sites() {
			if backup.Node == owner.Node {
				continue
			}
			for _, adj := range topo.Node(backup.Node).Adj {
				nb := w.net.Speaker(adj.To)
				for _, r := range nb.AdjIn(owner.Prefix) {
					if r == nil || r.OriginNode != backup.Node {
						continue
					}
					if !ownerASNs[topo.Node(adj.To).ASN] {
						t.Fatalf("scoped prepending leaked %s's prefix from %s to non-shared neighbor %s",
							owner.Code, backup.Code, topo.Node(adj.To).Name)
					}
				}
			}
		}
	}
}

func TestCombinedFailover(t *testing.T) {
	w := newWorld(t, 9)
	w.cdn.Deploy(Combined{})
	w.converge()
	client := w.someClient(t)
	failed := w.cdn.Sites()[3]
	w.cdn.FailSite(failed.Code)
	w.converge()
	after := w.cdn.CatchmentOf(client.ID, failed.Addr)
	if after == nil || after.Node == failed.Node {
		t.Fatalf("combined failover broken: %+v", after)
	}
}

func TestRecoverSiteRestoresSteering(t *testing.T) {
	for _, tech := range AllTechniques() {
		w := newWorld(t, 10)
		if err := w.cdn.Deploy(tech); err != nil {
			t.Fatalf("%s: %v", tech.Name(), err)
		}
		w.converge()
		client := w.someClient(t)
		site := w.cdn.Sites()[0]
		w.cdn.FailSite(site.Code)
		w.converge()
		if _, err := w.cdn.RecoverSite(site.Code); err != nil {
			t.Fatalf("%s: recover: %v", tech.Name(), err)
		}
		w.converge()
		got := w.cdn.CatchmentOf(client.ID, tech.SteerAddr(w.cdn, site))
		if got == nil {
			t.Fatalf("%s: site unreachable after recovery", tech.Name())
		}
		// For unicast-addressed techniques the client must land exactly on
		// the recovered site again.
		if tech.SteerAddr(w.cdn, site) == site.Addr && got.Node != site.Node {
			t.Fatalf("%s: steering after recovery lands on %s", tech.Name(), got.Code)
		}
		if w.cdn.Failed(site.Code) {
			t.Fatalf("%s: site still marked failed", tech.Name())
		}
	}
}

func TestTradeoffsMatchTable2(t *testing.T) {
	cases := map[string]Tradeoffs{
		"proactive-prepending":  {Medium, High, Low},
		"reactive-anycast":      {High, High, High},
		"proactive-superprefix": {High, Medium, Low},
		"anycast":               {Low, High, Low},
		"unicast":               {High, Low, Low},
	}
	for _, tech := range AllTechniques() {
		want, ok := cases[tech.Name()]
		if !ok {
			continue
		}
		if got := tech.Tradeoffs(); got != want {
			t.Fatalf("%s tradeoffs = %+v, want %+v", tech.Name(), got, want)
		}
	}
}

func TestDNSDeployPublishesSiteNames(t *testing.T) {
	w := newWorld(t, 11)
	w.cdn.Deploy(Unicast{})
	for _, s := range w.cdn.Sites() {
		addrs := authQueryA(t, w.cdn.Authoritative(), s.Code+".cdn.example.")
		if len(addrs) != 1 || addrs[0] != s.Addr {
			t.Fatalf("DNS for %s = %v, want %v", s.Code, addrs, s.Addr)
		}
	}
	if got := authQueryA(t, w.cdn.Authoritative(), "www.cdn.example."); len(got) != 1 {
		t.Fatalf("www record = %v", got)
	}
}

// authQueryA resolves an A record directly against the authoritative,
// round-tripping through the wire codec.
func authQueryA(t *testing.T, auth *dns.Authoritative, name string) []netip.Addr {
	t.Helper()
	q := &dns.Message{
		Header:   dns.Header{ID: 1},
		Question: []dns.Question{{Name: name, Type: dns.TypeA}},
	}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := auth.HandleQuery(wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dns.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netip.Addr
	for _, rr := range resp.Answer {
		if rr.Type == dns.TypeA {
			addrs = append(addrs, rr.A)
		}
	}
	return addrs
}
