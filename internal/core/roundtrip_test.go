package core

import (
	"fmt"
	"strings"
	"testing"

	"bestofboth/internal/dns"
)

// dnsRecordDigest renders the zone's A records as canonical text. Serial
// and query counters legitimately differ after a failure episode, so the
// digest compares what clients can actually resolve.
func dnsRecordDigest(t *testing.T, auth *dns.Authoritative) string {
	t.Helper()
	var b strings.Builder
	for _, name := range auth.Names() {
		fmt.Fprintf(&b, "%s:", name)
		for _, a := range authQueryA(t, auth, name) {
			fmt.Fprintf(&b, " %s", a)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestCrashRecoverRoundTrip is the leaked-state regression test: for every
// technique, failing a site, letting the controller react, recovering it,
// and converging must land in exactly the RIB/FIB/DNS state of a world
// that never failed. A recovery that forgets to withdraw a reactive
// announcement, or to restore a plan entry or a DNS record, diverges here.
func TestCrashRecoverRoundTrip(t *testing.T) {
	const seed, failCode = 7, "sea1"
	for _, tech := range recoveryTechniques() {
		t.Run(tech.Name(), func(t *testing.T) {
			ref := newWorld(t, seed)
			if err := ref.cdn.Deploy(tech); err != nil {
				t.Fatal(err)
			}
			ref.converge()

			sub := newWorld(t, seed)
			if err := sub.cdn.Deploy(tech); err != nil {
				t.Fatal(err)
			}
			sub.converge()
			if _, err := sub.cdn.FailSite(failCode); err != nil {
				t.Fatal(err)
			}
			sub.converge() // withdrawal, detection, reaction all drain
			if _, err := sub.cdn.RecoverSite(failCode); err != nil {
				t.Fatal(err)
			}
			sub.converge()

			if got, want := sub.net.RouteStateDigest(), ref.net.RouteStateDigest(); got != want {
				t.Errorf("RIB state differs from never-failed world after fail+recover:\n%s",
					firstDiffLine(want, got))
			}
			if got, want := sub.plane.FIBDigest(), ref.plane.FIBDigest(); got != want {
				t.Errorf("FIB state differs from never-failed world after fail+recover:\n%s",
					firstDiffLine(want, got))
			}
			if got, want := dnsRecordDigest(t, sub.cdn.Authoritative()), dnsRecordDigest(t, ref.cdn.Authoritative()); got != want {
				t.Errorf("DNS records differ from never-failed world after fail+recover:\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// firstDiffLine locates the first differing line of two large digests so
// failures are readable.
func firstDiffLine(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestDrainSite checks the graceful-maintenance path: announcements are
// withdrawn and DNS repointed immediately, the data plane keeps forwarding
// until the operator stops it, and recovery restores the pre-drain state.
func TestDrainSite(t *testing.T) {
	w := newWorld(t, 11)
	if err := w.cdn.Deploy(ReactiveAnycast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	before := w.net.RouteStateDigest()

	s := w.cdn.Site("atl")
	if _, err := w.cdn.DrainSite("atl"); err != nil {
		t.Fatal(err)
	}
	// Draining is graceful: the site still forwards while routes move.
	if w.plane.IsDown(s.Node) {
		t.Fatal("drain stopped the data plane immediately")
	}
	if !w.cdn.Failed("atl") {
		t.Fatal("drained site not marked failed")
	}
	// The controller reacted immediately (no detection delay): the site's
	// DNS name no longer points at it.
	for _, a := range authQueryA(t, w.cdn.Authoritative(), "atl") {
		if a == s.Addr {
			t.Fatal("drained site's DNS name still points at it")
		}
	}
	w.converge()
	if _, err := w.cdn.RecoverSite("atl"); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if got := w.net.RouteStateDigest(); got != before {
		t.Errorf("state after drain+recover differs:\n%s", firstDiffLine(before, got))
	}
}

func TestDrainSiteErrors(t *testing.T) {
	w := newWorld(t, 11)
	if _, err := w.cdn.DrainSite("atl"); err == nil {
		t.Fatal("drain before deploy should fail")
	}
	if err := w.cdn.Deploy(Unicast{}); err != nil {
		t.Fatal(err)
	}
	w.converge()
	if _, err := w.cdn.DrainSite("nope"); err == nil {
		t.Fatal("drain of unknown site should fail")
	}
	if _, err := w.cdn.DrainSite("atl"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.cdn.DrainSite("atl"); err == nil {
		t.Fatal("double drain should fail")
	}
}
