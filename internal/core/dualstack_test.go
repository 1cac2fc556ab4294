package core

import (
	"net/netip"
	"testing"

	"bestofboth/internal/dns"
)

func TestDualStackPrefixPlan(t *testing.T) {
	for i := 0; i < 8; i++ {
		p := SitePrefix6(i)
		if p.Bits() != 48 || !SuperPrefix6.Contains(p.Addr()) {
			t.Fatalf("SitePrefix6(%d) = %v not a /48 under %v", i, p, SuperPrefix6)
		}
		if !p.Contains(ServiceAddr6(p)) {
			t.Fatalf("service addr outside prefix: %v", ServiceAddr6(p))
		}
	}
	if SitePrefix6(0) == SitePrefix6(1) {
		t.Fatal("v6 site prefixes collide")
	}
}

func TestDualStackCatchmentsMirrorV4(t *testing.T) {
	w := newWorld(t, 80)
	if err := w.cdn.EnableDualStack(); err != nil {
		t.Fatal(err)
	}
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if !w.cdn.DualStack() {
		t.Fatal("DualStack() false")
	}
	client := w.someClient(t)
	// Every site is reachable over both families and v4/v6 catchments
	// agree: the announcement algebra is identical.
	for _, s := range w.cdn.Sites() {
		got4 := w.cdn.CatchmentOf(client.ID, s.Addr)
		dest6, ok := w.plane.Catchment(client.ID, s.Addr6)
		if got4 == nil || !ok {
			t.Fatalf("site %s unreachable: v4=%v v6ok=%v", s.Code, got4, ok)
		}
		if got4.Node != dest6 {
			t.Fatalf("site %s: v4 catchment %d != v6 catchment %d", s.Code, got4.Node, dest6)
		}
	}
}

func TestDualStackReactiveFailoverOnV6(t *testing.T) {
	w := newWorld(t, 81)
	if err := w.cdn.EnableDualStack(); err != nil {
		t.Fatal(err)
	}
	if err := w.cdn.Deploy(ReactiveAnycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	client := w.someClient(t)
	failed := w.cdn.Site("atl")

	before, ok := w.plane.Catchment(client.ID, failed.Addr6)
	if !ok || before != failed.Node {
		t.Fatalf("v6 steering broken before failure: %v, %v", before, ok)
	}
	if _, err := w.cdn.FailSite("atl"); err != nil {
		t.Fatal(err)
	}
	w.converge()
	after, ok := w.plane.Catchment(client.ID, failed.Addr6)
	if !ok {
		t.Fatal("reactive-anycast left the /48 unreachable")
	}
	if after == failed.Node {
		t.Fatal("v6 traffic still reaches the failed site")
	}
	// Recovery restores the v6 steering too.
	if _, err := w.cdn.RecoverSite("atl"); err != nil {
		t.Fatal(err)
	}
	w.converge()
	restored, ok := w.plane.Catchment(client.ID, failed.Addr6)
	if !ok || restored != failed.Node {
		t.Fatalf("v6 steering not restored: %v, %v", restored, ok)
	}
}

func TestDualStackAnycastV6(t *testing.T) {
	w := newWorld(t, 82)
	w.cdn.EnableDualStack()
	if err := w.cdn.Deploy(Anycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	client := w.someClient(t)
	d4, ok4 := w.plane.Catchment(client.ID, AnycastServiceAddr)
	d6, ok6 := w.plane.Catchment(client.ID, AnycastServiceAddr6)
	if !ok4 || !ok6 || d4 != d6 {
		t.Fatalf("anycast catchments differ across families: %v/%v %v/%v", d4, ok4, d6, ok6)
	}
}

func TestDualStackDNSServesAAAA(t *testing.T) {
	w := newWorld(t, 83)
	w.cdn.EnableDualStack()
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	q := &dns.Message{
		Header:   dns.Header{ID: 1},
		Question: []dns.Question{{Name: "atl.cdn.example.", Type: dns.TypeAAAA}},
	}
	resp := w.cdn.Authoritative().Answer(q)
	if len(resp.Answer) != 1 || resp.Answer[0].A != w.cdn.Site("atl").Addr6 {
		t.Fatalf("AAAA answer = %+v", resp.Answer)
	}
	// After failure, the AAAA is repointed like the A record.
	w.cdn.FailSite("atl")
	w.converge()
	resp = w.cdn.Authoritative().Answer(q)
	if len(resp.Answer) != 1 || resp.Answer[0].A == w.cdn.Site("atl").Addr6 {
		t.Fatalf("AAAA not repointed after failure: %+v", resp.Answer)
	}
	if !resp.Answer[0].A.Is6() {
		t.Fatal("repointed AAAA is not IPv6")
	}
}

// TestDualStackDrainAllRemovesAAAA drains every site under dual stack: once
// no healthy site is left, no name may still resolve over either family to
// a site that is out of service.
func TestDualStackDrainAllRemovesAAAA(t *testing.T) {
	w := newWorld(t, 81)
	if err := w.cdn.EnableDualStack(); err != nil {
		t.Fatal(err)
	}
	if err := w.cdn.Deploy(ReactiveAnycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	for _, s := range w.cdn.Sites() {
		if _, err := w.cdn.DrainSite(s.Code); err != nil {
			t.Fatal(err)
		}
	}
	w.converge()
	auth := w.cdn.Authoritative()
	for _, name := range []string{"www", "msn"} {
		if a := authQueryA(t, auth, name); len(a) != 0 {
			t.Errorf("%s still answers A %v with every site drained", name, a)
		}
		q := &dns.Message{Question: []dns.Question{{Name: name + ".cdn.example.", Type: dns.TypeAAAA}}}
		if resp := auth.Answer(q); len(resp.Answer) != 0 {
			t.Errorf("%s still answers AAAA %v with every site drained", name, resp.Answer[0].A)
		}
	}
}

func TestEnableDualStackAfterDeployFails(t *testing.T) {
	w := newWorld(t, 84)
	w.cdn.Deploy(Unicast{})
	if err := w.cdn.EnableDualStack(); err == nil {
		t.Fatal("EnableDualStack after Deploy accepted")
	}
	if a := w.cdn.SteerAddr6(w.cdn.Sites()[0]); a != (netip.Addr{}) {
		t.Fatalf("SteerAddr6 without dual stack = %v", a)
	}
}
