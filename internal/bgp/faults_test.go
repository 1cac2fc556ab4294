package bgp

import (
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// convergedDiamond builds the diamond topology with O originating the test
// prefix and runs to convergence.
func convergedDiamond(t *testing.T) (*netsim.Sim, *Network) {
	t.Helper()
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	if err := net.Originate(3, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return sim, net
}

// linkDown reads the down flag of the a-b session at a.
func linkDown(t *testing.T, net *Network, a, b topology.NodeID) bool {
	t.Helper()
	sa, _, ia, _, err := net.sessionPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return sa.downSess[ia]
}

func TestLinkDownWithdrawsRoutesLearnedOverLink(t *testing.T) {
	sim, net := convergedDiamond(t)
	// T initially prefers its customer route via C (lowest neighbor ASN).
	if p := net.Speaker(0).Best(testPrefix).Path; len(p) != 2 || p[0] != 20 {
		t.Fatalf("T best path = %v, want via C [20 40]", p)
	}

	// Fail the O—C link: C loses its direct customer route; everything
	// must re-select paths avoiding the link.
	if err := net.SetLinkDown(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if !linkDown(t, net, 3, 1) {
		t.Fatal("link O-C not reported down")
	}
	// T re-selects the customer route via D.
	p := net.Speaker(0).Best(testPrefix).Path
	if len(p) != 2 || p[0] != 30 || p[1] != 40 {
		t.Fatalf("after link down, T path = %v, want [30 40]", p)
	}
	// C still reaches the prefix — via its peer D (O is its customer's
	// prefix, learned from D's announcement O -> D -> peer C).
	cBest := net.Speaker(1).Best(testPrefix)
	if cBest == nil {
		t.Fatal("C lost all routes after O-C link failure")
	}
	if cBest.Path[0] == 40 && len(cBest.Path) == 1 {
		t.Fatalf("C still uses the failed direct link: path %v", cBest.Path)
	}
	// O must not retain any adj-RIB-in/out state on the dead session.
	for sess, r := range net.Speaker(3).AdjIn(testPrefix) {
		if r != nil && net.Speaker(3).Node().Adj[sess].To == 1 {
			t.Fatal("O retains adj-RIB-in from C over a down link")
		}
	}
}

func TestLinkRestoreReconvergesToPreFaultState(t *testing.T) {
	sim, net := convergedDiamond(t)
	before := net.RouteStateDigest()

	if err := net.SetLinkDown(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if net.RouteStateDigest() == before {
		t.Fatal("link failure left routing state unchanged")
	}
	if err := net.SetLinkUp(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if got := net.RouteStateDigest(); got != before {
		t.Errorf("state after link restore differs from pre-fault state:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}

func TestSessionResetReconvergesToSameState(t *testing.T) {
	sim, net := convergedDiamond(t)
	before := net.RouteStateDigest()
	msgs := net.MessageCount()

	if err := net.ResetSession(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if net.MessageCount() == msgs {
		t.Fatal("session reset produced no update churn")
	}
	if got := net.RouteStateDigest(); got != before {
		t.Errorf("state after session reset differs:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}

func TestLinkFaultsAreIdempotentAndValidated(t *testing.T) {
	sim, net := convergedDiamond(t)
	if err := net.SetLinkDown(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown(3, 1); err != nil {
		t.Fatalf("second SetLinkDown: %v", err)
	}
	// Resetting a down session is an error; restoring twice is not.
	if err := net.ResetSession(3, 1); err == nil {
		t.Fatal("ResetSession on a down link should fail")
	}
	if err := net.SetLinkUp(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkUp(3, 1); err != nil {
		t.Fatalf("second SetLinkUp: %v", err)
	}
	sim.Run()
	// Nonexistent links are rejected.
	if err := net.SetLinkDown(0, 3); err == nil {
		t.Fatal("SetLinkDown on nonexistent T-O link should fail")
	}
}

func TestInFlightUpdatesDroppedOnLinkFailure(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(1)
	net := New(sim, topo, quickCfg())
	if err := net.Originate(3, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	// O's announcements toward C and D are now in flight. Kill the O—C
	// link before they deliver: the O->C update must be dropped, so C can
	// only learn the prefix via D.
	if err := net.SetLinkDown(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	for sess, r := range net.Speaker(1).AdjIn(testPrefix) {
		if r != nil && net.Speaker(1).Node().Adj[sess].To == 3 {
			t.Fatal("C received an update over a link that failed while it was in flight")
		}
	}
	best := net.Speaker(1).Best(testPrefix)
	if best == nil {
		t.Fatal("C has no route at all")
	}
	if len(best.Path) == 1 {
		t.Fatalf("C best %v can only exist via the dead link", best.Path)
	}
}

func TestSnapshotCarriesSessionState(t *testing.T) {
	sim, net := convergedDiamond(t)
	if err := net.SetLinkDown(3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	digest := net.RouteStateDigest()

	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sim2 := netsim.New(1)
	net2 := New(sim2, diamond(t), quickCfg())
	if err := net2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !linkDown(t, net2, 3, 1) {
		t.Fatal("restored network lost the link-down flag")
	}
	if got := net2.RouteStateDigest(); got != digest {
		t.Errorf("restored digest differs:\n--- want ---\n%s--- got ---\n%s", digest, got)
	}
	// The restored world must behave like the original: restoring the link
	// re-converges to a state where T prefers C again.
	if err := net2.SetLinkUp(3, 1); err != nil {
		t.Fatal(err)
	}
	sim2.Run()
	if p := net2.Speaker(0).Best(testPrefix).Path; len(p) != 2 || p[0] != 20 {
		t.Fatalf("restored+healed T path = %v, want [20 40]", p)
	}
}
