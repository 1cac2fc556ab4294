package dataplane

import (
	"math"
	"net/netip"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

var (
	prefixA = netip.MustParsePrefix("184.164.244.0/24")
	superP  = netip.MustParsePrefix("184.164.244.0/23")
	addrA   = netip.MustParseAddr("184.164.244.10")
	addrSup = netip.MustParseAddr("184.164.245.10")
)

func cfg() bgp.Config {
	return bgp.Config{MRAI: 30, MRAIJitter: 0.2, ProcMin: 0.01, ProcMax: 0.05}
}

// twoSite builds:
//
//	T1 ---- T2        (tier-1 peers)
//	 |        \
//	S1 (site)  S2 (site)      S1, S2 customers of T1, T2 respectively
//	 |
//	 C  (client stub, customer of T1)
func twoSite(t *testing.T) (*topology.Topology, map[string]topology.NodeID) {
	t.Helper()
	b := topology.NewBuilder()
	ids := map[string]topology.NodeID{}
	ids["t1"] = b.AddNode(10, "t1", topology.ClassTier1, topology.Point{})
	ids["t2"] = b.AddNode(11, "t2", topology.ClassTier1, topology.Point{X: 5})
	ids["s1"] = b.AddNode(47065, "s1", topology.ClassCDN, topology.Point{Y: 2})
	ids["s2"] = b.AddNode(47065, "s2", topology.ClassCDN, topology.Point{X: 5, Y: 2})
	ids["c"] = b.AddNode(30, "c", topology.ClassStub, topology.Point{Y: 4})
	b.Link(ids["t1"], ids["t2"], topology.RelPeer, 0.005)
	b.Link(ids["s1"], ids["t1"], topology.RelProvider, 0.002)
	b.Link(ids["s2"], ids["t2"], topology.RelProvider, 0.002)
	b.Link(ids["c"], ids["t1"], topology.RelProvider, 0.002)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, ids
}

func TestForwardDeliversToOrigin(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()

	res := plane.ForwardTrace(ids["c"], addrA)
	if !res.Delivered || res.Dest != ids["s1"] {
		t.Fatalf("Forward = %+v, want delivery at s1", res)
	}
	if len(res.Path) != 3 { // c -> t1 -> s1
		t.Fatalf("path = %v, want 3 hops", res.Path)
	}
	if res.Delay <= 0 || res.Delay > 0.1 {
		t.Fatalf("delay = %v out of range", res.Delay)
	}
}

func TestForwardNoRoute(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	sim.Run()
	res := plane.Forward(ids["c"], addrA)
	if res.Delivered || res.Reason != DropNoRoute {
		t.Fatalf("Forward = %+v, want no-route", res)
	}
}

func TestDownNodeDropsPackets(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()

	plane.SetDown(ids["s1"], true)
	res := plane.Forward(ids["c"], addrA)
	if res.Delivered || res.Reason != DropNodeDown {
		t.Fatalf("Forward = %+v, want node-down drop", res)
	}
	plane.SetDown(ids["s1"], false)
	if !plane.Forward(ids["c"], addrA).Delivered {
		t.Fatal("recovery did not restore delivery")
	}
	if plane.down[ids["s1"]] {
		t.Fatal("failure flag stale")
	}
}

func TestSuperprefixFallback(t *testing.T) {
	// s1 announces the /24, s2 the covering /23. While the /24 exists,
	// traffic goes to s1; after it is withdrawn and converges, the /23
	// carries traffic to s2 — the proactive-superprefix mechanism.
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	net.Originate(ids["s2"], superP, nil)
	sim.Run()

	if res := plane.Forward(ids["c"], addrA); !res.Delivered || res.Dest != ids["s1"] {
		t.Fatalf("specific prefix should win: %+v", res)
	}
	// An address only covered by the superprefix goes to s2 already.
	if res := plane.Forward(ids["c"], addrSup); !res.Delivered || res.Dest != ids["s2"] {
		t.Fatalf("superprefix address should reach s2: %+v", res)
	}

	net.Withdraw(ids["s1"], prefixA)
	sim.Run()
	if res := plane.Forward(ids["c"], addrA); !res.Delivered || res.Dest != ids["s2"] {
		t.Fatalf("after withdrawal traffic should fall back to s2: %+v", res)
	}
}

func TestCatchmentAnycast(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	net.Originate(ids["s2"], prefixA, nil)
	sim.Run()

	// c is customer of t1; t1 hears [47065] from customer s1 (1 hop) and
	// [t2 47065] via peer; customer route wins, so c lands on s1.
	site, ok := plane.Catchment(ids["c"], addrA)
	if !ok || site != ids["s1"] {
		t.Fatalf("catchment = %d, %v; want s1", site, ok)
	}
}

func TestStaticDelaySymmetricAndPositive(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	d1 := plane.StaticDelay(ids["c"], ids["s2"])
	d2 := plane.StaticDelay(ids["s2"], ids["c"])
	if d1 <= 0 || d1 != d2 {
		t.Fatalf("static delay asymmetric: %v vs %v", d1, d2)
	}
	// c -> t1 -> t2 -> s2 = 0.002+0.005+0.002
	want := 0.009
	if diff := d1 - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("static delay = %v, want %v", d1, want)
	}
	if d := plane.StaticDelay(ids["c"], ids["c"]); d != 0 {
		t.Fatalf("self delay = %v", d)
	}
}

func TestProberCapturesReplies(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()

	pr := NewProber(plane, ids["s2"], addrA)
	pr.Ping(ids["c"])
	sim.RunUntil(sim.Now() + 1) // probes are not events: Run would not wait for the reply

	if pr.Answered() != 1 {
		t.Fatalf("capture has %d entries, want 1", pr.Answered())
	}
	tr := pr.Trace(ids["c"])
	e := tr.Replies[0]
	if e.Site != ids["s1"] || tr.Target != ids["c"] || e.Seq != 1 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Time <= 0 {
		t.Fatal("entry time not positive")
	}
}

func TestProberLostReplyNotCaptured(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	// No announcement: replies have no route.
	pr := NewProber(plane, ids["s2"], addrA)
	pr.Ping(ids["c"])
	sim.RunUntil(sim.Now() + 1)
	if pr.Answered() != 0 {
		t.Fatalf("capture has %d entries, want 0", pr.Answered())
	}
}

func TestPingEveryCadence(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()

	pr := NewProber(plane, ids["s2"], addrA)
	pr.PingEvery(ids["c"], 1.5, 15)
	sim.RunUntil(sim.Now() + 20)
	// 15/1.5 = 10 pings (t=0..13.5).
	if got := pr.Answered(); got != 10 {
		t.Fatalf("captured %d replies, want 10", got)
	}
	es := pr.Trace(ids["c"]).Replies
	for i := 1; i < len(es); i++ {
		if es[i].Time <= es[i-1].Time {
			t.Fatal("capture not time ordered")
		}
		if es[i].Seq != es[i-1].Seq+1 {
			t.Fatal("sequence numbers not consecutive")
		}
	}

	// A zero interval would re-arm every tick at the current instant and
	// never reach the deadline: it panics before sending anything.
	defer func() {
		if recover() == nil || pr.Sent() != 10 {
			t.Fatalf("PingEvery with a zero interval: want a panic and no ping, sent %d", pr.Sent()-10)
		}
	}()
	pr.PingEvery(ids["c"], 0, 15)
}

func TestRTTMatchesPaths(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()

	pr := NewProber(plane, ids["s1"], addrA)
	rtt, ok := pr.RTT(ids["c"])
	if !ok {
		t.Fatal("RTT not measurable")
	}
	// forward c<-s1: 0.004 static; reverse c->t1->s1: 0.004.
	want := 0.008
	if diff := rtt - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

// TestTraceInvariants pins what the prober promises about a trace, where it
// writes it.
func TestTraceInvariants(t *testing.T) {
	t.Run("two targets under loss across a withdrawal", func(t *testing.T) {
		topo, ids := twoSite(t)
		sim := netsim.New(7)
		net := bgp.New(sim, topo, cfg())
		plane := New(net)
		net.Originate(ids["s1"], prefixA, nil)
		net.Originate(ids["s2"], superP, nil)
		sim.Run()

		pr := NewProber(plane, ids["s2"], addrA)
		pr.LossRate = 0.3
		targets := []topology.NodeID{ids["c"], ids["t2"]}
		for i := 0; i < 200; i++ {
			sim.After(float64(i)*0.5, func() { pr.Ping(targets[i%2]) })
		}
		sim.After(30, func() {
			plane.SetDown(ids["s1"], true)
			net.Withdraw(ids["s1"], prefixA)
		})
		sim.RunUntil(sim.Now() + 120) // past the last ping's reply

		if pr.Trace(ids["t1"]) != nil {
			t.Fatal("Trace of a never-pinged target is not nil")
		}
		probes, replies := 0, 0
		for _, id := range targets {
			tr := pr.Trace(id)
			if tr == nil || tr.Target != id {
				t.Fatalf("Trace(%d) = %+v", id, tr)
			}
			if len(tr.Probes) != 100 || len(tr.Replies) == 0 || len(tr.Replies) == len(tr.Probes) {
				t.Fatalf("target %d: %d probes, %d replies; want 100 probes, some but not all answered", id, len(tr.Probes), len(tr.Replies))
			}
			answered := 0
			for i, p := range tr.Probes {
				if i > 0 && (p.Seq <= tr.Probes[i-1].Seq || p.Time < tr.Probes[i-1].Time) {
					t.Fatalf("target %d: probe %d out of emission order", id, i)
				}
				if p.Reply < 0 {
					continue
				}
				answered++
				if int(p.Reply) >= len(tr.Replies) || tr.Replies[p.Reply].Seq != p.Seq {
					t.Fatalf("target %d: probe %d (seq %d) links to reply %d", id, i, p.Seq, p.Reply)
				}
			}
			for i := 1; i < len(tr.Replies); i++ {
				if tr.Replies[i].Time < tr.Replies[i-1].Time {
					t.Fatalf("target %d: reply %d out of arrival order", id, i)
				}
			}
			// Seqs are unique, so a reply no probe links to leaves this short.
			if answered != len(tr.Replies) {
				t.Fatalf("target %d: %d answered probes, %d replies", id, answered, len(tr.Replies))
			}
			probes += len(tr.Probes)
			replies += len(tr.Replies)
		}
		if probes != pr.Sent() || replies != pr.Answered() {
			t.Fatalf("traces hold %d probes / %d replies, prober counted %d / %d", probes, replies, pr.Sent(), pr.Answered())
		}
	})

	// The case the two orders exist for: a route change to a nearer origin
	// between two pings lets the later probe's reply overtake the earlier one.
	t.Run("a reply overtakes an earlier one", func(t *testing.T) {
		b := topology.NewBuilder()
		t1 := b.AddNode(10, "t1", topology.ClassTier1, topology.Point{})
		far := b.AddNode(47065, "far", topology.ClassCDN, topology.Point{X: 9})
		near := b.AddNode(47065, "near", topology.ClassCDN, topology.Point{Y: 1})
		c := b.AddNode(30, "c", topology.ClassStub, topology.Point{Y: 2})
		b.Link(far, t1, topology.RelProvider, 5)
		b.Link(near, t1, topology.RelProvider, 0.001)
		b.Link(c, t1, topology.RelProvider, 0.001)
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sim := netsim.New(1)
		net := bgp.New(sim, topo, cfg())
		plane := New(net)
		net.Originate(far, superP, nil)
		sim.Run()

		pr := NewProber(plane, near, addrA)
		first := pr.Ping(c) // replies to far, 5 s away
		net.Originate(near, prefixA, nil)
		sim.RunUntil(sim.Now() + 2) // the more specific reaches c well within 2 s
		second := pr.Ping(c)        // replies to near, milliseconds away
		sim.RunUntil(sim.Now() + 10)

		tr := pr.Trace(c)
		if len(tr.Probes) != 2 || tr.Probes[0].Seq != first || tr.Probes[1].Seq != second {
			t.Fatalf("Probes = %+v, want emission order %d, %d", tr.Probes, first, second)
		}
		if len(tr.Replies) != 2 || tr.Replies[0].Seq != second || tr.Replies[1].Seq != first {
			t.Fatalf("Replies = %+v, want arrival order %d, %d", tr.Replies, second, first)
		}
		if tr.Replies[0].Site != near || tr.Replies[1].Site != far || tr.Probes[0].Reply != 1 || tr.Probes[1].Reply != 0 {
			t.Fatalf("trace = %+v", tr)
		}
	})

	// The reservation is capacity sized from a duration that can come from
	// outside the program.
	t.Run("PingEvery reserves only plausible campaigns", func(t *testing.T) {
		topo, ids := twoSite(t)
		plane := New(bgp.New(netsim.New(1), topo, cfg()))
		for _, d := range []float64{-5, math.NaN(), 1e300, math.Inf(1)} {
			pr := NewProber(plane, ids["s2"], addrA)
			pr.PingEvery(ids["c"], 1.5, d) // simulation not run: at most the first ping
			if tr := pr.Trace(ids["c"]); cap(tr.Probes) > 8 || cap(tr.Replies) != 0 {
				t.Errorf("duration %v reserved %d probes, %d replies", d, cap(tr.Probes), cap(tr.Replies))
			}
		}
		pr := NewProber(plane, ids["s2"], addrA)
		pr.PingEvery(ids["c"], 1.5, 600)
		if tr := pr.Trace(ids["c"]); cap(tr.Probes) < 400 || cap(tr.Replies) < 400 {
			t.Errorf("600 s at 1.5 s reserved %d probes, %d replies, want 400 each", cap(tr.Probes), cap(tr.Replies))
		}
	})
}

func TestDropReasonStrings(t *testing.T) {
	for d, want := range map[DropReason]string{
		DropNone: "delivered", DropNoRoute: "no-route", DropLoop: "loop", DropNodeDown: "node-down",
	} {
		if d.String() != want {
			t.Fatalf("%d.String() = %q", d, d.String())
		}
	}
}

// TestTransientBlackholeDuringWithdrawalConvergence exercises the §3
// mechanism: during unicast withdrawal convergence with a superprefix
// backup, some replies are lost or misrouted before converging onto the
// covering prefix.
func TestTransientBlackholeDuringWithdrawalConvergence(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(7)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	net.Originate(ids["s2"], superP, nil)
	sim.Run()

	pr := NewProber(plane, ids["s2"], addrA)
	plane.SetDown(ids["s1"], true)
	net.Withdraw(ids["s1"], prefixA)
	pr.PingEvery(ids["c"], 1.5, 60)
	sim.RunUntil(sim.Now() + 90)

	// All captured replies must have landed at s2 (s1 is down), and the
	// first capture must come after the withdrawal reached t1.
	for _, e := range pr.Trace(ids["c"]).Replies {
		if e.Site != ids["s2"] {
			t.Fatalf("reply captured at %d while s1 down", e.Site)
		}
	}
	if pr.Answered() == 0 {
		t.Fatal("no replies ever reached s2; superprefix fallback broken")
	}
}

func TestProberLossRate(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(9)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()

	pr := NewProber(plane, ids["s2"], addrA)
	pr.LossRate = 0.3
	const n = 2000
	for i := 0; i < n; i++ {
		pr.Ping(ids["c"])
	}
	sim.RunUntil(sim.Now() + 1)
	got := pr.Answered()
	// Request and reply each dropped at 30%: delivery ≈ 0.49.
	if got < n*40/100 || got > n*58/100 {
		t.Fatalf("captured %d/%d with 30%% bidirectional loss, want ≈49%%", got, n)
	}
	if pr.Sent() != n {
		t.Fatalf("sent log has %d entries, want %d", pr.Sent(), n)
	}
}

func TestProberZeroLossCapturesAll(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(10)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()
	pr := NewProber(plane, ids["s2"], addrA)
	for i := 0; i < 100; i++ {
		pr.Ping(ids["c"])
	}
	sim.RunUntil(sim.Now() + 1)
	if pr.Answered() != 100 {
		t.Fatalf("lost replies with zero loss rate: %d/100", pr.Answered())
	}
}

// TestPlaneSnapshotSharesUntilWritten pins the copy-on-write contract of
// Plane.Snapshot/Restore: a restored plane forwards through the very tries
// the snapshot froze, the flags travel with them, and a FIB write on either
// side — the plane the snapshot was taken of included — lands in a clone
// and leaves the snapshot's trie as it was.
func TestPlaneSnapshotSharesUntilWritten(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	live := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()
	live.SetDown(ids["s2"], true)
	snap := live.Snapshot()
	want := live.FIBDigest()

	restore := func() *Plane {
		p := New(bgp.New(netsim.New(1), topo, cfg()))
		if err := p.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := restore()
	if got := a.FIBDigest(); got != want {
		t.Fatalf("restored FIBs:\n%s\nwant:\n%s", got, want)
	}
	if !a.down[ids["s2"]] || a.down[ids["s1"]] {
		t.Fatal("restored plane lost the forwarding flags")
	}
	c := ids["c"]
	if a.fibs[c] != live.fibs[c] || a.fibs[c] == nil {
		t.Fatal("restored plane does not share the snapshot's trie")
	}
	if a.fibs[ids["s2"]] != nil {
		t.Fatal("a node that never had a route restored with a trie")
	}

	// The source plane moves on: its writes must not reach the snapshot.
	net.Withdraw(ids["s1"], prefixA)
	sim.Run()
	if live.FIBDigest() == want {
		t.Fatal("withdrawal left the live FIBs unmoved")
	}
	if live.fibs[c] == a.fibs[c] {
		t.Fatal("live plane wrote without cloning the frozen trie")
	}
	// So does a restored plane.
	a.onBestChange(c, superP, &bgp.Route{}, 0, 0)
	if got := refDumpFIB(a, c); len(got) != 2 || got[0].Prefix != superP {
		t.Fatalf("restored plane did not install its own route: %v", got)
	}
	if got := restore().FIBDigest(); got != want {
		t.Fatalf("snapshot changed after both sides wrote:\n%s\nwant:\n%s", got, want)
	}

	b := topology.NewBuilder()
	b.Link(b.AddNode(1, "a", topology.ClassTier1, topology.Point{}), b.AddNode(2, "b", topology.ClassStub, topology.Point{X: 1}), topology.RelCustomer, 0.001)
	small, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := New(bgp.New(netsim.New(1), small, cfg())).Restore(snap); err == nil {
		t.Fatal("restore into a plane of another size accepted")
	}
}
