package bgp

import (
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

func dampCfg() Config {
	return Config{
		MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.01, ProcMax: 0.05,
		Damping: true,
	}
}

func TestDampingSuppressesFlappingRoute(t *testing.T) {
	topo := lineTopo(t) // O -- A -- B
	sim := netsim.New(1)
	net := New(sim, topo, dampCfg())

	// Flap the prefix from O repeatedly: announce/withdraw cycles spaced
	// past the MRAI so every transition actually reaches A (flaps hidden
	// inside one MRAI window are absorbed by pacing and must not count).
	for i := 0; i < 3; i++ {
		net.Originate(0, testPrefix, nil)
		sim.RunFor(40)
		net.Withdraw(0, testPrefix)
		sim.RunFor(40)
	}
	// After three flaps (penalty ≈ 2800 > 2000 cutoff), A has suppressed
	// the route from O: a fresh announcement is withheld.
	net.Originate(0, testPrefix, nil)
	sim.RunFor(40)
	if best := net.Speaker(1).Best(testPrefix); best != nil {
		t.Fatalf("A still selects the flapping route: %+v", best)
	}

	// After the penalty decays below reuse (half-life 900 s), the route is
	// reinstated without any new announcement.
	sim.RunFor(3 * 900)
	if best := net.Speaker(1).Best(testPrefix); best == nil {
		t.Fatal("suppressed route never reinstated after decay")
	}
	if best := net.Speaker(2).Best(testPrefix); best == nil {
		t.Fatal("B never recovered the route after A's reuse")
	}
}

func TestDampingDoesNotAffectFirstAnnouncement(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(2)
	net := New(sim, topo, dampCfg())
	net.Originate(0, testPrefix, nil)
	sim.RunFor(30)
	for id := topology.NodeID(0); id < 3; id++ {
		if net.Speaker(id).Best(testPrefix) == nil {
			t.Fatalf("node %d lacks route; damping penalized a non-flap", id)
		}
	}
}

func TestDampingSingleWithdrawalNotSuppressed(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(3)
	net := New(sim, topo, dampCfg())
	net.Originate(0, testPrefix, nil)
	sim.RunFor(30)
	net.Withdraw(0, testPrefix)
	sim.RunFor(30)
	// One withdrawal is one flap: penalty 1000 < 2000 cutoff. A fresh
	// announcement must go through.
	net.Originate(0, testPrefix, nil)
	sim.RunFor(30)
	if best := net.Speaker(2).Best(testPrefix); best == nil {
		t.Fatal("single withdrawal triggered suppression")
	}
}

func TestDampingDisabledByDefault(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(4)
	net := New(sim, topo, quickCfg()) // no Damping
	for i := 0; i < 10; i++ {
		net.Originate(0, testPrefix, nil)
		sim.RunFor(5)
		net.Withdraw(0, testPrefix)
		sim.RunFor(5)
	}
	net.Originate(0, testPrefix, nil)
	sim.RunFor(30)
	if net.Speaker(2).Best(testPrefix) == nil {
		t.Fatal("route suppressed with damping disabled")
	}
}

func TestDampStateDecay(t *testing.T) {
	d := dampState{penalty: 2000, lastUpdate: 0}
	d.decayTo(900)
	if d.penalty < 999 || d.penalty > 1001 {
		t.Fatalf("penalty after one half-life = %v, want ≈1000", d.penalty)
	}
	d.decayTo(900 + 9000) // ten more half-lives: negligible
	if d.penalty != 0 {
		t.Fatalf("penalty should floor to 0, got %v", d.penalty)
	}
}
