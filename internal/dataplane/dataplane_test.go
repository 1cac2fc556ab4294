package dataplane

import (
	"math"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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
	pr.ping(ids["c"])
	sim.RunUntil(sim.Now() + 1) // probes are not events: Run would not wait for the reply

	if pr.Answered() != 1 {
		t.Fatalf("capture has %d entries, want 1", pr.Answered())
	}
	o, ok := pr.Outcome(ids["c"])
	if !ok || o.Sent != 1 || o.Answered != 1 || o.Final != ids["s1"] || !o.Stable || o.Since != o.First {
		t.Fatalf("outcome = %+v", o)
	}
	if o.First <= 0 {
		t.Fatal("reply time not positive")
	}
}

func TestProberLostReplyNotCaptured(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	// No announcement: replies have no route.
	pr := NewProber(plane, ids["s2"], addrA)
	pr.ping(ids["c"])
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
	if o, _ := pr.Outcome(ids["c"]); o.Sent != 10 || o.Switches != 0 || o.Gaps != 0 || !o.Stable || o.Since != o.First {
		t.Fatalf("outcome = %+v, want ten probes answered at one site", o)
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

// TestTraceInvariants pins what the prober promises about a target's fold,
// and what it costs.
func TestTraceInvariants(t *testing.T) {
	t.Run("two targets under loss across a withdrawal", func(t *testing.T) {
		topo, ids := twoSite(t)
		targets := []topology.NodeID{ids["c"], ids["t2"]}
		run := func(reference bool) (*Prober, *refProber) {
			sim := netsim.New(7)
			net := bgp.New(sim, topo, cfg())
			plane := New(net)
			net.Originate(ids["s1"], prefixA, nil)
			net.Originate(ids["s2"], superP, nil)
			sim.Run()
			pr, ref := NewProber(plane, ids["s2"], addrA), newRefProber(sim, plane, ids["s2"], addrA)
			pr.LossRate, ref.LossRate = 0.3, 0.3
			for i := 0; i < 200; i++ {
				sim.After(float64(i)*0.5, func() {
					if reference {
						ref.ping(targets[i%2])
					} else {
						pr.ping(targets[i%2])
					}
				})
			}
			sim.After(30, func() {
				plane.SetDown(ids["s1"], true)
				net.Withdraw(ids["s1"], prefixA)
			})
			sim.RunUntil(sim.Now() + 120) // past the last ping's reply
			return pr, ref
		}
		pr, _ := run(false)
		_, ref := run(true)

		if _, ok := pr.Outcome(ids["t1"]); ok {
			t.Fatal("Outcome of a never-pinged target is ok")
		}
		sent, answered := 0, 0
		for _, id := range targets {
			o, ok := pr.Outcome(id)
			if !ok || o.Sent != 100 || o.Answered == 0 || o.Answered == o.Sent {
				t.Fatalf("target %d: %+v; want 100 probes, some but not all answered", id, o)
			}
			if want := logOutcome(ref.Trace(id)); o != want {
				t.Fatalf("target %d: outcome %+v, the calendar reference's logs read %+v", id, o, want)
			}
			sent += o.Sent
			answered += o.Answered
		}
		if sent != pr.Sent() || answered != pr.Answered() {
			t.Fatalf("targets hold %d probes / %d replies, prober counted %d / %d", sent, answered, pr.Sent(), pr.Answered())
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
		pr.ping(c) // replies to far, 5 s away
		net.Originate(near, prefixA, nil)
		sim.RunUntil(sim.Now() + 2) // the more specific reaches c well within 2 s
		sent := sim.Now()
		pr.ping(c) // replies to near, milliseconds away
		sim.RunUntil(sim.Now() + 10)

		// The second reply arrives first; the first, from far, arrives last
		// and switches the site; the last probe's run is the second alone.
		o, _ := pr.Outcome(c)
		if o.Sent != 2 || o.Answered != 2 || !(o.First > sent && o.First < sent+1) || o.Final != far || o.Switches != 1 || o.Gaps != 0 || !o.Stable || o.Since != o.First {
			t.Fatalf("outcome = %+v, want the second reply first, then the first at far", o)
		}
	})

	// Nothing is logged per probe: a campaign of a hundred times the probes
	// makes the same allocations, of the same bytes.
	t.Run("a campaign costs the same bytes at any length", func(t *testing.T) {
		topo, ids := twoSite(t)
		sim := netsim.New(1)
		net := bgp.New(sim, topo, cfg())
		plane := New(net)
		net.Originate(ids["s1"], prefixA, nil)
		sim.Run()
		NewProber(plane, ids["s2"], addrA).ping(ids["c"]) // the plane's journal for addrA, once
		campaign := func(d float64) func() {
			return func() {
				pr := NewProber(plane, ids["s2"], addrA)
				pr.PingEvery(ids["c"], 1.5, d)
				sim.RunUntil(sim.Now() + d + 30)
				if o, _ := pr.Outcome(ids["c"]); o.Answered != int(d/1.5) {
					t.Fatalf("%v s of probing: %+v, want %v answered", d, o, d/1.5)
				}
			}
		}
		measure := func(f func()) (allocs float64, bytes uint64) {
			allocs = testing.AllocsPerRun(3, f)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			return allocs, after.TotalAlloc - before.TotalAlloc
		}
		shortAllocs, shortBytes := measure(campaign(60))
		longAllocs, longBytes := measure(campaign(6000))
		if shortAllocs != longAllocs || shortBytes != longBytes || longBytes > 2048 {
			t.Fatalf("60 s of probing made %v allocations of %d bytes, 6,000 s %v of %d; want the same, under 2 KiB", shortAllocs, shortBytes, longAllocs, longBytes)
		}
		t.Logf("a campaign of 40 or 4,000 probes: %v allocations, %d bytes", longAllocs, longBytes)
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
	if o, _ := pr.Outcome(ids["c"]); o.Final != ids["s2"] || o.Switches != 0 {
		t.Fatalf("replies captured away from s2 while s1 down: %+v", o)
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
		pr.ping(ids["c"])
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
		pr.ping(ids["c"])
	}
	sim.RunUntil(sim.Now() + 1)
	if pr.Answered() != 100 {
		t.Fatalf("lost replies with zero loss rate: %d/100", pr.Answered())
	}
}

// TestPlaneSnapshotSharesUntilWritten pins the copy-on-write contract of
// Plane.Snapshot/Restore: a restored plane forwards through the very rows
// and prefix table the snapshot froze, the flags travel with them, and a FIB
// write on either side — the plane the snapshot was taken of included —
// lands in a clone of the row, and a new prefix in a copy of the table,
// leaving the snapshot's as they were. A row once cloned is written in
// place.
func TestPlaneSnapshotSharesUntilWritten(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	live := New(net)
	// Three prefixes: the table's array has room for a fourth, which no
	// plane sharing it may write into.
	other := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.1.0.0/16")}
	net.Originate(ids["s1"], prefixA, nil)
	for _, pfx := range other {
		net.Originate(ids["s1"], pfx, nil)
	}
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
	shares := func(x, y []int32) bool { return len(x) > 0 && unsafe.SliceData(x) == unsafe.SliceData(y) }
	if !shares(a.rows[c], live.rows[c]) || !shares(a.rows[c], snap.rows[c]) {
		t.Fatal("restored plane does not share the snapshot's row")
	}
	if a.owned[c] || live.owned[c] {
		t.Fatal("a plane owns a row a snapshot shares")
	}
	if a.rows[ids["s2"]] != nil {
		t.Fatal("a node that never had a route restored with a row")
	}
	if unsafe.SliceData(a.prefixes) != unsafe.SliceData(snap.prefixes) {
		t.Fatal("restored plane does not share the snapshot's prefix table")
	}

	// The source plane moves on: its writes must not reach the snapshot.
	net.Withdraw(ids["s1"], prefixA)
	sim.Run()
	if live.FIBDigest() == want {
		t.Fatal("withdrawal left the live FIBs unmoved")
	}
	if shares(live.rows[c], a.rows[c]) || !live.owned[c] {
		t.Fatal("live plane wrote without cloning the shared row")
	}
	// A row the plane owns is written in place.
	owned := unsafe.SliceData(live.rows[c])
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()
	if unsafe.SliceData(live.rows[c]) != owned {
		t.Fatal("an owned row was cloned again")
	}
	// So does a restored plane, and a new prefix copies the shared table:
	// two siblings adding different prefixes each keep their own.
	a.onBestChange(c, superP, &bgp.Route{}, 0, 0)
	sib := restore()
	sib.onBestChange(c, netip.MustParsePrefix("10.0.0.1/32"), &bgp.Route{}, 0, 0)
	if got := a.FIBDigest(); !strings.Contains(got, superP.String()) || !a.owned[c] || shares(a.rows[c], snap.rows[c]) {
		t.Fatalf("restored plane did not install its own route in its own row:\n%s", got)
	}
	// The clone starts from the snapshot's row: every entry it had is kept.
	for id, e := range snap.rows[c] {
		if a.rows[c][id] != e {
			t.Fatalf("clone of node c's row has entry %d for %v, the snapshot's has %d", a.rows[c][id], snap.prefixes[id], e)
		}
	}
	if res := a.Forward(c, addrA); !res.Delivered || res.Dest != ids["s1"] {
		t.Fatalf("restored plane lost the snapshot's route to %v after its first write: %+v", addrA, res)
	}
	if strings.Contains(a.FIBDigest(), "/32") || strings.Contains(sib.FIBDigest(), superP.String()) {
		t.Fatalf("sibling restores share a table past the snapshot's:\n%s\n%s", a.FIBDigest(), sib.FIBDigest())
	}
	if len(snap.prefixes) != 3 || len(a.prefixes) != 4 {
		t.Fatalf("snapshot table %v, restored table %v: the new prefix belongs to the restored plane alone", snap.prefixes, a.prefixes)
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

// TestRecordLayout pins the size the FIBs allocate by: a FIB row entry is 4
// bytes.
func TestRecordLayout(t *testing.T) {
	var p Plane
	if got := unsafe.Sizeof(p.rows[0][0]); got != 4 {
		t.Errorf("a FIB row entry is %d bytes, want 4", got)
	}
}

// TestRowGrowthAmortized adds 256 prefixes one at a time, each originated
// and converged, as Figures 3 and 4 add one per trial. Every node's row must
// grow by append's rule, not by one entry per prefix: at most 16
// reallocations a row.
func TestRowGrowthAmortized(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	p := New(net)
	growths := make([]int, topo.Len())
	last := make([]*int32, topo.Len())
	for i := range 256 {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		if err := net.Originate(ids["s1"], prefix, nil); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		for n, row := range p.rows {
			if d := unsafe.SliceData(row); d != last[n] {
				growths[n]++
				last[n] = d
			}
		}
	}
	if p.rows[ids["c"]] == nil {
		t.Fatal("the client never had a route")
	}
	for n, g := range growths {
		if p.rows[n] == nil {
			continue // s2 shares s1's AS, so it refuses every route
		}
		if len(p.rows[n]) != 256 {
			t.Fatalf("node %d row holds %d entries, want 256", n, len(p.rows[n]))
		}
		if g > 16 {
			t.Errorf("node %d's row was reallocated %d times over 256 prefixes, want at most 16", n, g)
		}
	}
}

// TestForwardAndOwnedWriteAllocateNothing pins the two hot paths the rows
// exist for: a walk through the live FIBs, and a best-route change written
// into a row the plane owns.
func TestForwardAndOwnedWriteAllocateNothing(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	p := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	net.Originate(ids["s2"], superP, nil)
	sim.Run()
	c := ids["c"]
	if !p.Forward(c, addrA).Delivered {
		t.Fatal("walk to addrA not delivered")
	}
	if n := testing.AllocsPerRun(100, func() { p.Forward(c, addrA) }); n != 0 {
		t.Errorf("Forward allocates %v times a walk", n)
	}
	if !p.owned[c] {
		t.Fatal("converged row not owned")
	}
	route := &bgp.Route{}
	if n := testing.AllocsPerRun(100, func() { p.onBestChange(c, prefixA, route, 0, 0) }); n != 0 {
		t.Errorf("an owned-row write allocates %v times", n)
	}
}

// TestProberSeqOverflow primes a prober one probe short of its last
// sequence number: that probe goes out, and the next panics by name instead
// of wrapping, with nothing filed.
func TestProberSeqOverflow(t *testing.T) {
	topo, ids := twoSite(t)
	sim := netsim.New(1)
	net := bgp.New(sim, topo, cfg())
	plane := New(net)
	net.Originate(ids["s1"], prefixA, nil)
	sim.Run()
	pr := NewProber(plane, ids["s1"], addrA)
	pr.seq = math.MaxUint32 - 1
	if got := pr.ping(ids["c"]); got != math.MaxUint32 {
		t.Fatalf("last probe has Seq %d, want %d", got, uint32(math.MaxUint32))
	}
	defer func() {
		if got := recover(); got != seqOverflow {
			t.Fatalf("probe past the last Seq panicked with %v, want %q", got, seqOverflow)
		}
		if o, _ := pr.Outcome(ids["c"]); o.Sent != 1 {
			t.Fatalf("%d probes filed, want 1", o.Sent)
		}
	}()
	pr.ping(ids["c"])
}
