package bgp

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// TestSendPathZeroAllocs pins the zero-copy send→receive path: once the
// network has converged (intern table and event free-lists warm), a
// re-advertisement of an unchanged route must flow sender → wire → receiver
// without a single heap allocation. Any reintroduced per-message Route
// clone, path copy, or scheduling closure fails this test.
func TestSendPathZeroAllocs(t *testing.T) {
	topo := lineTopo(t)
	sim := netsim.New(7)
	net := New(sim, topo, quickCfg())
	if err := net.Originate(0, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	sp := net.Speaker(0)
	st := sp.lookup(testPrefix)
	sess := -1
	for i, a := range st.adj {
		if a.out != nil {
			sess = i
			break
		}
	}
	if sess < 0 {
		t.Fatal("origin speaker has no adj-RIB-out entry")
	}
	r := st.adj[sess].out

	avg := testing.AllocsPerRun(100, func() {
		sp.send(sess, Update{Type: Announce, Prefix: testPrefix, Route: r})
		for sim.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("duplicate re-advertisement allocated %.1f times per send; want 0", avg)
	}
}

// TestExportPathAllocBudget bounds the allocation cost of a real route
// change rippling through a small network. The budget covers the genuinely
// new state — one origin route, and one Route per speaker whose best
// changed, shared by every session it is exported on and held by reference
// in every receiver's adj-RIB-in — and nothing per session or per message.
// A Route per session, an import copy, or the pre-interning kernel's clone
// of the route and its AS path on every hop each blows past it.
func TestExportPathAllocBudget(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(9)
	net := New(sim, topo, quickCfg())

	pols := [2]*OriginPolicy{{}, {Prepend: 1}}
	if err := net.Originate(3, testPrefix, pols[0]); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	// Warm the intern table for both policies before measuring.
	net.Originate(3, testPrefix, pols[1])
	sim.Run()
	net.Originate(3, testPrefix, pols[0])
	sim.Run()

	i := 0
	avg := testing.AllocsPerRun(16, func() {
		i++
		net.Originate(3, testPrefix, pols[i%2])
		sim.Run()
	})
	// One full flap across 4 nodes costs 5 allocations: the origin route and
	// one exported Route at each speaker. A Route per session costs 8, an
	// import copy per received announcement 12, per-message cloning hundreds.
	const budget = 7
	if avg > budget {
		t.Fatalf("route change allocated %.1f times per flap; budget %d", avg, budget)
	}
}

// TestRestoreAllocBudget pins the restore-by-reference contract: a
// no-divergence Restore points every speaker at the snapshot's frozen
// states and allocates the one network-wide pointer array, whatever the
// prefix count — nothing per prefix, per route or per speaker. Every
// restored loc-RIB best must be pointer-identical to the live network's.
func TestRestoreAllocBudget(t *testing.T) {
	topo := diamond(t)
	simA := netsim.New(5)
	netA := New(simA, topo, quickCfg())
	var prefixes []netip.Prefix
	for i := 0; i < 16; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", i))
		prefixes = append(prefixes, p)
		if err := netA.Originate(topology.NodeID(i%4), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	simA.Run()
	snap, err := netA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	states := 0
	for _, ss := range snap.speakers {
		states += len(ss.rib)
	}
	if states < 4*len(prefixes) {
		t.Fatalf("snapshot too small to be meaningful: %d prefix states", states)
	}

	// Mallocs is process-wide, so a runtime or leftover goroutine allocating
	// inside the window can only add to it: the least of a few attempts is
	// Restore's own count.
	var netB *Network
	mallocs := ^uint64(0)
	for attempt := 0; attempt < 5 && mallocs > 2; attempt++ {
		netB = New(netsim.New(5), topo, quickCfg())
		var m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m1)
		if err := netB.Restore(snap); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m2)
		mallocs = min(mallocs, m2.Mallocs-m1.Mallocs)
	}
	if mallocs > 2 {
		t.Fatalf("no-divergence Restore made %d allocations for %d prefix states; want at most 2 at any size",
			mallocs, states)
	}

	for id := topology.NodeID(0); id < 4; id++ {
		sp := netB.Speaker(id)
		for k, st := range sp.rib {
			if st != &snap.speakers[id].rib[k] {
				t.Fatalf("node %d rib[%d] is a copy, not the snapshot's frozen state", id, k)
			}
		}
		for _, p := range prefixes {
			if a, b := netA.Speaker(id).Best(p), sp.Best(p); a != b {
				t.Fatalf("node %d prefix %s: restored best %p is not the shared snapshot route %p", id, p, b, a)
			}
		}
	}
}

// TestPrefixStateAllocs pins the prefix state's layout: a state's
// per-session RIB and pacing slots are one array. A speaker's first state
// for a prefix therefore costs the state and that array, and the first
// write to a snapshot's frozen state copies the same two; one array for the
// adj-RIBs beside one for the MRAI deadlines costs three. AdjIn hands out a
// copy, so writing into it leaves the speaker as it was.
func TestPrefixStateAllocs(t *testing.T) {
	topo := diamond(t)
	sim := netsim.New(5)
	net := New(sim, topo, quickCfg())
	if err := net.Originate(3, testPrefix, nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("own", func(t *testing.T) {
		restored := New(netsim.New(5), topo, quickCfg())
		if err := restored.Restore(snap); err != nil {
			t.Fatal(err)
		}
		sp := restored.Speaker(0)
		i, ok := sp.find(testPrefix)
		if !ok {
			t.Fatal("restored speaker has no state for the prefix")
		}
		frozen := sp.rib[i]
		allocs := testing.AllocsPerRun(20, func() {
			sp.rib[i] = frozen
			sp.own(i)
		})
		if allocs != 2 {
			t.Fatalf("owning a frozen state made %v allocations; want 2", allocs)
		}
		if st := sp.rib[i]; st == frozen || st.owner != sp || frozen.owner != nil {
			t.Fatal("own did not replace the frozen state with a private copy")
		}
	})

	t.Run("first state", func(t *testing.T) {
		sp := New(netsim.New(5), topo, quickCfg()).Speaker(0)
		sp.rib = make([]*prefixState, 0, 1)
		allocs := testing.AllocsPerRun(20, func() {
			sp.rib = sp.rib[:0]
			sp.state(testPrefix)
		})
		if allocs != 2 {
			t.Fatalf("a speaker's first state for a prefix made %v allocations; want 2", allocs)
		}
	})

	t.Run("AdjIn is the caller's", func(t *testing.T) {
		sp := net.Speaker(0)
		in := sp.AdjIn(testPrefix)
		held := 0
		for sess, r := range in {
			if r != nil {
				held++
			}
			in[sess] = nil
		}
		if held == 0 {
			t.Fatal("speaker 0 learned no route; the check proved nothing")
		}
		for _, a := range sp.lookup(testPrefix).adj {
			if a.in != nil {
				held--
			}
		}
		if held != 0 {
			t.Fatal("clearing the slice AdjIn returned cleared the speaker's adj-RIB-in")
		}
	})
}
