package dataplane

import (
	"fmt"
	"net/netip"
	"os"
	"slices"
	"sort"
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/netsim"
	"bestofboth/internal/obs"
	"bestofboth/internal/tally"
	"bestofboth/internal/topology"
)

// probing is what the prober and its calendar reference have in common.
type probing interface {
	ping(topology.NodeID) uint32
	PingEvery(target topology.NodeID, interval, duration float64)
	Sent() int
	Answered() int
}

// scriptWorld is one copy of the hand-wired network prober scripts run on:
//
//	t1 ---- t2 ---- t3      tier-1s, fully peered
//	| \      | \   / |
//	s1 c1   s2  c2   s3     s3's link is 3 s long: replies it attracts are
//	                        overtaken by replies to s1 or s2
//
// s1 announces prefixA and s3 the covering superP until the script says
// otherwise. Probers 0 and 1 reply to addrA (under both prefixes) and addrSup
// (under superP only), so the plane keeps two journals. The real probers
// fold per window between consecutive edges.
type scriptWorld struct {
	sim     *netsim.Sim
	net     *bgp.Network
	plane   *Plane
	nodes   []topology.NodeID // t1 t2 t3 s1 s2 s3 c1 c2
	probers [2]probing
}

// scriptT0 is when scripts start. A power of two, so every quarter-second
// grid time and every sum of grid intervals is exact: ticks, faults and
// echoes tie whenever the script says they should.
const scriptT0 = 64

func newScriptWorld(tb testing.TB, reference bool, from [2]int, loss float64, edges []float64) *scriptWorld {
	tb.Helper()
	b := topology.NewBuilder()
	t1 := b.AddNode(10, "t1", topology.ClassTier1, topology.Point{})
	t2 := b.AddNode(11, "t2", topology.ClassTier1, topology.Point{X: 5})
	t3 := b.AddNode(12, "t3", topology.ClassTier1, topology.Point{X: 10})
	s1 := b.AddNode(47065, "s1", topology.ClassCDN, topology.Point{Y: 2})
	s2 := b.AddNode(47065, "s2", topology.ClassCDN, topology.Point{X: 5, Y: 2})
	s3 := b.AddNode(47065, "s3", topology.ClassCDN, topology.Point{X: 10, Y: 2})
	c1 := b.AddNode(30, "c1", topology.ClassStub, topology.Point{Y: 4})
	c2 := b.AddNode(31, "c2", topology.ClassStub, topology.Point{X: 7, Y: 4})
	b.Link(t1, t2, topology.RelPeer, 0.005)
	b.Link(t2, t3, topology.RelPeer, 0.005)
	b.Link(t1, t3, topology.RelPeer, 0.01)
	b.Link(s1, t1, topology.RelProvider, 0.002)
	b.Link(s2, t2, topology.RelProvider, 0.002)
	b.Link(s3, t3, topology.RelProvider, 3)
	b.Link(c1, t1, topology.RelProvider, 0.002)
	b.Link(c2, t2, topology.RelProvider, 0.003)
	b.Link(c2, t3, topology.RelProvider, 0.004)
	topo, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	w := &scriptWorld{sim: netsim.New(5), nodes: []topology.NodeID{t1, t2, t3, s1, s2, s3, c1, c2}}
	w.net = bgp.New(w.sim, topo, cfg())
	w.plane = New(w.net)
	w.net.Originate(s1, prefixA, nil)
	w.net.Originate(s3, superP, nil)
	w.sim.RunUntil(scriptT0)
	for i, addr := range []netip.Addr{addrA, addrSup} {
		node := w.nodes[from[i]%len(w.nodes)]
		if reference {
			pr := newRefProber(w.sim, w.plane, node, addr)
			pr.LossRate = loss
			w.probers[i] = pr
		} else {
			pr := NewProber(w.plane, node, addr)
			pr.LossRate = loss
			pr.Edges = edges
			w.probers[i] = pr
		}
	}
	return w
}

// A script is a three-byte header — the two probers' nodes and the loss rate
// — and five bytes per operation: kind (and prober), three arguments, and
// the time in quarter seconds after scriptT0.
const (
	opOriginate = iota // site x announces prefix y
	opWithdraw         // site x withdraws prefix y
	opSetDown          // node x goes down (y odd) or comes back
	opCampaign         // PingEvery(node x, (1 + y%8) quarter seconds, z quarter seconds)
	opPing             // ping(node x)
	opRead             // compare every target's fold with the reference's logs
	numOps
)

type scriptOp struct {
	kind, prober, x, y, z int
	at                    float64
}

// scriptEnd is when every script's last read happens: late enough that a
// campaign started at the last grid time is cut short by it.
const scriptEnd = scriptT0 + 80

var scriptLoss = [4]float64{0, 0, 0.1, 0.5}

func decodeScript(data []byte) (from [2]int, loss float64, ops []scriptOp) {
	if len(data) < 3 {
		return from, 0, nil
	}
	from = [2]int{int(data[0]), int(data[1])}
	loss = scriptLoss[data[2]%4]
	for data = data[3:]; len(data) >= 5 && len(ops) < 48; data = data[5:] {
		ops = append(ops, scriptOp{
			kind: int(data[0]) % numOps, prober: int(data[0]) / numOps % 2,
			x: int(data[1]), y: int(data[2]), z: int(data[3]), at: float64(data[4]) / 4,
		})
	}
	return from, loss, ops
}

// script encodes what decodeScript reads, for the hand-built cases.
func script(from0, from1, loss int, ops ...scriptOp) []byte {
	data := []byte{byte(from0), byte(from1), byte(loss)}
	for _, o := range ops {
		data = append(data, byte(o.kind+numOps*o.prober), byte(o.x), byte(o.y), byte(o.z), byte(o.at*4))
	}
	return data
}

// Node indices into scriptWorld.nodes, for scripts.
const (
	nT1 = iota
	nT2
	nT3
	nS1
	nS2
	nS3
	nC1
	nC2
)

// readout is what one opRead (or the final read) saw: the reference's
// traces, which the real probers' folds agreed with, and those folds.
type readout struct {
	traces   [2]map[int]refTrace // per prober, by node index; slices cloned
	outcomes [2]map[int]tally.Outcome
}

// scriptEdges returns the edges of a script's windows: its start and end and
// the instant of every fault and read.
func scriptEdges(ops []scriptOp) []float64 {
	edges := []float64{scriptT0, scriptEnd}
	for _, o := range ops {
		if o.kind != opCampaign && o.kind != opPing {
			edges = append(edges, scriptT0+o.at)
		}
	}
	slices.Sort(edges)
	return slices.Compact(edges)
}

// runScript runs a script twice on twin worlds of one seed, BGP jitter on:
// once with the prober, once with its calendar reference. The faults go onto
// the calendars first, so each runs before any probe event of its instant;
// campaigns, pings and reads happen between RunUntil calls, after every event
// of their instant — the order failoverOn and scenario.Run construct. Every
// read requires each target's fold to read as the reference's logs do — its
// Outcome, and its Window between every two consecutive edges and across
// all of them — and Sent and Answered to agree; the run must leave both
// networks in the same state: neither prober perturbs BGP.
func runScript(tb testing.TB, data []byte) []readout {
	tb.Helper()
	from, loss, ops := decodeScript(data)
	edges := scriptEdges(ops)
	real := newScriptWorld(tb, false, from, loss, edges)
	ref := newScriptWorld(tb, true, from, loss, edges)
	for _, w := range []*scriptWorld{real, ref} {
		for _, o := range ops {
			site, pfx := w.nodes[nS1+o.x%3], []netip.Prefix{prefixA, superP}[o.y%2]
			switch o.kind {
			case opOriginate:
				w.sim.At(scriptT0+o.at, func() { w.net.Originate(site, pfx, nil) })
			case opWithdraw:
				w.sim.At(scriptT0+o.at, func() { w.net.Withdraw(site, pfx) })
			case opSetDown:
				w.sim.At(scriptT0+o.at, func() { w.plane.SetDown(w.nodes[o.x%len(w.nodes)], o.y%2 == 1) })
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })

	windows := [][2]float64{{edges[0], edges[len(edges)-1]}}
	for i := 1; i < len(edges); i++ {
		windows = append(windows, [2]float64{edges[i-1], edges[i]})
	}
	var reads []readout
	read := func(at float64) {
		tb.Helper()
		real.sim.RunUntil(at)
		ref.sim.RunUntil(at)
		var r readout
		for i := range real.probers {
			got, want := real.probers[i].(*Prober), ref.probers[i].(*refProber)
			r.traces[i], r.outcomes[i] = map[int]refTrace{}, map[int]tally.Outcome{}
			for n, id := range real.nodes {
				o, ok := got.Outcome(id)
				tr := want.Trace(id)
				if ok != (tr != nil) {
					tb.Fatalf("t=%v prober %d node %d: folded %v, reference trace %v", at, i, n, ok, tr)
				}
				if !ok {
					continue
				}
				if w := logOutcome(tr); o != w {
					tb.Fatalf("t=%v prober %d node %d: outcome %+v, the reference's logs read %+v", at, i, n, o, w)
				}
				for _, win := range windows {
					if g, w := got.Window(id, win[0], win[1]), logWindow(tr, win[0], win[1]); g != w {
						tb.Fatalf("t=%v prober %d node %d: window %v is %+v, the reference's logs read %+v", at, i, n, win, g, w)
					}
				}
				r.traces[i][n] = refTrace{Target: tr.Target, Probes: slices.Clone(tr.Probes), Replies: slices.Clone(tr.Replies)}
				r.outcomes[i][n] = o
			}
			if got.Sent() != want.Sent() || got.Answered() != want.Answered() {
				tb.Fatalf("t=%v prober %d: sent %d answered %d, reference %d and %d", at, i, got.Sent(), got.Answered(), want.Sent(), want.Answered())
			}
		}
		reads = append(reads, r)
	}
	for _, o := range ops {
		at := scriptT0 + o.at
		real.sim.RunUntil(at)
		ref.sim.RunUntil(at)
		target := real.nodes[o.x%len(real.nodes)]
		switch o.kind {
		case opCampaign:
			interval, duration := float64(1+o.y%8)/4, float64(o.z)/4
			real.probers[o.prober].PingEvery(target, interval, duration)
			ref.probers[o.prober].PingEvery(target, interval, duration)
		case opPing:
			if got, want := real.probers[o.prober].ping(target), ref.probers[o.prober].ping(target); got != want {
				tb.Fatalf("t=%v: ping used seq %d, the reference %d", at, got, want)
			}
		case opRead:
			read(at)
		}
	}
	read(scriptEnd)
	if real.net.MessageCount() != ref.net.MessageCount() || real.net.RouteStateDigest() != ref.net.RouteStateDigest() || real.plane.FIBDigest() != ref.plane.FIBDigest() {
		tb.Fatal("the twin networks ended in different states: a prober perturbed BGP")
	}
	return reads
}

// The hand-built cases: what the Figure 2 matrix never produces. They are
// also FuzzProber's committed seeds (testdata/fuzz/FuzzProber).
var handScripts = map[string][]byte{
	// c1's first reply goes to s3, three seconds away; then s2 announces
	// prefixA, the second reply lands there and overtakes the first. Nothing
	// is read until both have arrived, so one read files them out of emission
	// order.
	"overtaking": script(nS2, nS2, 0,
		scriptOp{kind: opWithdraw, x: 0, y: 0, at: 0}, // s1 stops announcing prefixA before anything is sent
		scriptOp{kind: opPing, x: nC1, at: 0.25},
		scriptOp{kind: opOriginate, x: 1, y: 0, at: 0.5},
		scriptOp{kind: opPing, x: nC1, at: 1.5},
	),
	// The same, read at 2 s: the second reply is captured while the first is
	// still in flight, and the first lands behind it at the next read.
	"overtaking-read-between": script(nS2, nS2, 0,
		scriptOp{kind: opWithdraw, x: 0, y: 0, at: 0},
		scriptOp{kind: opPing, x: nC1, at: 0.25},
		scriptOp{kind: opOriginate, x: 1, y: 0, at: 0.5},
		scriptOp{kind: opPing, x: nC1, at: 1.5},
		scriptOp{kind: opRead, at: 2},
		scriptOp{kind: opRead, at: 8},
	),
	// Two cadences on one prober, 0.5 s and 0.25 s, started at one instant
	// with a ping between them, so every other tick of the second ties with
	// one of the first; later a ping and a third campaign at a tick instant.
	"coinciding-cadences": script(nS2, nS1, 0,
		scriptOp{kind: opCampaign, x: nC1, y: 1, z: 40, at: 1},
		scriptOp{kind: opPing, x: nC2, at: 1},
		scriptOp{kind: opCampaign, x: nC2, y: 0, z: 40, at: 1},
		scriptOp{kind: opPing, x: nC1, at: 3},
		scriptOp{kind: opCampaign, x: nT3, y: 2, z: 24, at: 3},
		scriptOp{kind: opRead, at: 3},
	),
	// A campaign whose replies take three seconds (prober 1's address is
	// under superP only, which s3 announces), read in mid-flight and again.
	"read-in-mid-flight": script(nS1, nS2, 0,
		scriptOp{kind: opCampaign, prober: 1, x: nC2, y: 1, z: 20, at: 0},
		scriptOp{kind: opRead, at: 1.25},
		scriptOp{kind: opRead, at: 3.25},
		scriptOp{kind: opRead, at: 4},
	),
	// The prober pings its own node, so each echo is at its probe's instant:
	// s1 goes down, comes back, withdraws and re-announces exactly on ticks.
	"fault-at-echo-instant": script(nS1, nS1, 0,
		scriptOp{kind: opCampaign, x: nS1, y: 0, z: 40, at: 0},
		scriptOp{kind: opSetDown, x: nS1, y: 1, at: 1},
		scriptOp{kind: opSetDown, x: nS1, y: 0, at: 2.5},
		scriptOp{kind: opWithdraw, x: 0, y: 0, at: 4},
		scriptOp{kind: opOriginate, x: 0, y: 0, at: 6},
		scriptOp{kind: opRead, at: 1},
		scriptOp{kind: opRead, at: 5},
	),
	// The prober is three seconds from c1 and the replies to addrA land next
	// to it, at s1; s1 goes down at 4 s. The probe sent at 1 s is the first
	// lost, which is known only at its echo, after 4 s, but the reply to the
	// probe sent at 0 s landed after 1 s and before that: it is the window's
	// reconnection all the same. A read at 3.75 s finds the probe in flight.
	"reply-before-loss": script(nS3, nS2, 0,
		scriptOp{kind: opCampaign, x: nC1, y: 1, z: 40, at: 0},
		scriptOp{kind: opSetDown, x: nS1, y: 1, at: 4},
		scriptOp{kind: opRead, at: 3.75},
	),
	// A lossy campaign still running when the script ends, across a
	// withdrawal: the run is cut before the deadline.
	"cut-before-deadline": script(nS2, nS2, 2,
		scriptOp{kind: opCampaign, x: nC1, y: 5, z: 255, at: 40},
		scriptOp{kind: opCampaign, prober: 1, x: nC2, y: 3, z: 255, at: 40},
		scriptOp{kind: opWithdraw, x: 0, y: 0, at: 50},
	),
}

// TestProberMatchesCalendarByHand runs the hand-built scripts against the
// calendar reference and checks that each one produced the situation it was
// built for.
func TestProberMatchesCalendarByHand(t *testing.T) {
	reads := map[string][]readout{}
	for name, data := range handScripts {
		reads[name] = runScript(t, data)
		seed, err := os.ReadFile("testdata/fuzz/FuzzProber/" + name)
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); err != nil || string(seed) != want {
			t.Errorf("committed fuzz seed %s is not the hand-built script (%v): want\n%s", name, err, want)
		}
	}

	// Arrival order is not emission order: the fold's first reply, last
	// site and switches follow the reply that overtook.
	tr := reads["overtaking-read-between"][0].traces[0][nC1]
	if len(tr.Probes) != 2 || len(tr.Replies) != 1 || tr.Replies[0].Seq != 2 || tr.Probes[0].Reply != -1 {
		t.Errorf("overtaking, read at 2 s: %+v, want the second reply only", tr)
	}
	if o := reads["overtaking-read-between"][0].outcomes[0][nC1]; o.Answered != 1 || o.Gaps != 0 || !o.Stable || o.Since != tr.Replies[0].Time {
		t.Errorf("overtaking, read at 2 s: %+v, want the first probe unanswered and the second stable", o)
	}
	for _, r := range []readout{reads["overtaking-read-between"][1], reads["overtaking"][0]} {
		tr, o := r.traces[0][nC1], r.outcomes[0][nC1]
		if len(tr.Replies) != 2 || tr.Replies[0].Seq != 2 || tr.Replies[1].Seq != 1 || tr.Probes[0].Reply != 1 || tr.Probes[1].Reply != 0 {
			t.Errorf("overtaking, once both arrived: %+v, want reply 2 filed ahead of reply 1", tr)
		}
		if o.First != tr.Replies[0].Time || o.Final != tr.Replies[1].Site || o.Switches != 1 || o.Since != tr.Replies[0].Time {
			t.Errorf("overtaking, once both arrived: %+v, want the overtaking reply first and the overtaken one last", o)
		}
	}

	// Seq order across the three traces is the tick order: at t=1 c1's
	// campaign, the ping, c2's campaign; at ties c1's tick first (its previous
	// probe went out first); at t=3 the ticks, then the ping, then t3's first.
	last := reads["coinciding-cadences"][1].traces[0]
	seqAt := func(n int, at float64) []uint32 {
		var s []uint32
		for _, p := range last[n].Probes {
			if p.Time == scriptT0+at {
				s = append(s, p.Seq)
			}
		}
		return s
	}
	if a, b := seqAt(nC1, 1), seqAt(nC2, 1); !slices.Equal(a, []uint32{1}) || !slices.Equal(b, []uint32{2, 3}) {
		t.Errorf("coinciding cadences at 1 s: c1 %v c2 %v, want [1] and [2 3]", a, b)
	}
	if a, b := seqAt(nC1, 1.5), seqAt(nC2, 1.5); len(a) != 1 || len(b) != 1 || a[0] > b[0] {
		t.Errorf("coinciding cadences at 1.5 s: c1 %v c2 %v, want c1's tick first", a, b)
	}
	if a, b, c := seqAt(nC1, 3), seqAt(nC2, 3), seqAt(nT3, 3); len(a) != 2 || len(b) != 1 || len(c) != 1 || !(a[0] < b[0] && b[0] < a[1] && a[1] < c[0]) {
		t.Errorf("coinciding cadences at 3 s: c1 %v c2 %v t3 %v, want tick, tick, ping, new campaign", a, b, c)
	}

	mid := reads["read-in-mid-flight"]
	if a, b, c := mid[0].traces[1][nC2], mid[1].traces[1][nC2], mid[2].traces[1][nC2]; len(a.Probes) != 3 || len(a.Replies) != 0 ||
		len(b.Replies) == 0 || len(b.Replies) >= len(b.Probes) || len(c.Replies) <= len(b.Replies) || b.Probes[0].Reply != 0 {
		t.Errorf("read in mid-flight: %d/%d, %d/%d, %d/%d replies/probes at the three reads", len(a.Replies), len(a.Probes), len(b.Replies), len(b.Probes), len(c.Replies), len(c.Probes))
	}
	if o := mid[1].outcomes[1][nC2]; o.Stable || o.Gaps != 1 {
		t.Errorf("read in mid-flight: %+v, want the replies still in flight counted as one open gap", o)
	}

	// The echo at the instant s1 goes down is dropped and the one at the
	// instant it comes back is answered; the one at the withdrawal's instant
	// already leaves s1, for a t1 that still points back at it, and the one at
	// the instant of the new announcement is delivered locally again.
	tr = reads["fault-at-echo-instant"][2].traces[0][nS1]
	for _, c := range []struct {
		at       float64
		answered bool
		site     topology.NodeID
	}{{0.75, true, 3}, {1, false, 0}, {2.25, false, 0}, {2.5, true, 3}, {3.75, true, 3}, {4, false, 0}, {6, true, 3}} {
		i := slices.IndexFunc(tr.Probes, func(p refProbe) bool { return p.Time == scriptT0+c.at })
		if i < 0 || (tr.Probes[i].Reply >= 0) != c.answered || (c.answered && tr.Replies[tr.Probes[i].Reply].Site != c.site) {
			t.Errorf("fault at echo instant: probe at %v s = %+v, want answered %v at node %d", c.at, tr.Probes[i], c.answered, c.site)
		}
	}

	// The window before the fault reconnects at a reply that landed before
	// its first loss was known: first while that probe was in flight, then
	// once it was found lost.
	for k, r := range reads["reply-before-loss"] {
		tr := r.traces[0][nC1]
		w := logWindow(&tr, scriptT0, scriptT0+4)
		if !w.Lost || w.LostAt != scriptT0+1 || !w.Reconnected || !(w.ReconnectedAt < w.LostAt+3) || len(tr.Replies) == 0 || tr.Replies[0].Seq != 1 {
			t.Errorf("reply before loss, read %d: window %+v of %+v, want the probe at 1 s lost and the reply to the first before 4 s", k, w, tr)
		}
	}

	tr = reads["cut-before-deadline"][0].traces[0][nC1]
	if n := len(tr.Probes); n != 27 || tr.Probes[n-1].Time != scriptT0+79 || len(tr.Replies) == 0 || len(tr.Replies) == n {
		t.Errorf("cut before deadline: %d probes, last at %v, %d replies; want 27 probes (40 s to 79 s every 1.5 s), some lost", n, tr.Probes[n-1].Time, len(tr.Replies))
	}
}

// FuzzProber decodes its input into a script and requires the prober to
// agree with its calendar reference at every read. Its committed seeds are
// the hand-built scripts.
func FuzzProber(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data) })
}

// TestLossCannotPerturbRouting is the property the per-probe loss function
// exists for: at one seed a lossy run is the lossless run's BGP execution,
// and each lossy fold reads as the lossless trace minus exactly the probes
// the function names.
func TestLossCannotPerturbRouting(t *testing.T) {
	run := func(loss float64, reference bool) *scriptWorld {
		w := newScriptWorld(t, reference, [2]int{nS2, nS2}, loss, nil)
		for _, n := range []int{nC1, nC2, nT3} {
			w.probers[0].PingEvery(w.nodes[n], 0.5, 60)
		}
		w.sim.At(scriptT0+10, func() { w.net.Withdraw(w.nodes[nS1], prefixA) })
		w.sim.At(scriptT0+30, func() { w.net.Originate(w.nodes[nS2], prefixA, nil) })
		w.sim.RunUntil(scriptEnd)
		return w
	}
	clean := run(0, true)
	cleanPr := clean.probers[0].(*refProber)
	for _, loss := range []float64{0.05, 0.4} {
		lossy := run(loss, false)
		if lossy.net.MessageCount() != clean.net.MessageCount() || lossy.net.RouteStateDigest() != clean.net.RouteStateDigest() || lossy.plane.FIBDigest() != clean.plane.FIBDigest() {
			t.Fatalf("loss %v: the lossy run is a different BGP execution", loss)
		}
		pr := lossy.probers[0].(*Prober)
		dropped := 0
		for _, n := range []int{nC1, nC2, nT3} {
			all := cleanPr.Trace(clean.nodes[n])
			want := refTrace{Target: all.Target, Probes: slices.Clone(all.Probes)}
			for _, r := range all.Replies { // arrival order survives the removals
				if lost(pr.lossKey, uint64(r.Seq), legRequest, loss) || lost(pr.lossKey, uint64(r.Seq), legReply, loss) {
					dropped++
				} else {
					want.Replies = append(want.Replies, r)
				}
			}
			for i := range want.Probes {
				want.Probes[i].Reply = int32(slices.IndexFunc(want.Replies, func(r refReply) bool { return r.Seq == want.Probes[i].Seq }))
			}
			if got, _ := pr.Outcome(lossy.nodes[n]); got != logOutcome(&want) {
				t.Fatalf("loss %v, node %d: the lossy fold %+v is not the lossless trace minus the named probes, %+v", loss, n, got, logOutcome(&want))
			}
		}
		if sent := pr.Sent(); sent != cleanPr.Sent() || dropped == 0 || pr.Answered() != cleanPr.Answered()-dropped {
			t.Fatalf("loss %v: sent %d answered %d; lossless %d and %d, %d dropped", loss, sent, pr.Answered(), cleanPr.Sent(), cleanPr.Answered(), dropped)
		}
	}
}

// TestProbeCounters pins the plane's probe counters to what its probers
// report, and the point of the journal: far fewer walks than probes.
func TestProbeCounters(t *testing.T) {
	w := newScriptWorld(t, false, [2]int{nS2, nS1}, 0.1, nil)
	reg := obs.NewRegistry()
	w.plane.Instrument(reg)
	w.probers[0].PingEvery(w.nodes[nC1], 0.25, 60)
	w.probers[0].PingEvery(w.nodes[nC2], 0.5, 60)
	w.probers[1].PingEvery(w.nodes[nC1], 1.5, 60)
	w.sim.At(scriptT0+10, func() { w.net.Withdraw(w.nodes[nS1], prefixA) })
	w.sim.RunUntil(scriptEnd)

	sent, answered := 0, 0
	for _, pr := range w.probers {
		sent += pr.Sent()
		answered += pr.Answered()
	}
	count := map[string]uint64{}
	for _, m := range reg.Snapshot() {
		count[m.Name] = uint64(m.Value)
	}
	if got := count["dataplane_probes_sent_total"]; got != uint64(sent) || sent != 240+120+40 {
		t.Errorf("dataplane_probes_sent_total = %d, probers sent %d, want 400", got, sent)
	}
	if got := count["dataplane_probes_answered_total"]; got != uint64(answered) || answered == 0 || answered == sent {
		t.Errorf("dataplane_probes_answered_total = %d, probers captured %d of %d", got, answered, sent)
	}
	if walks := count["dataplane_probe_walks_total"]; walks == 0 || walks > uint64(sent)/10 || walks != count["dataplane_forwards_total"] {
		t.Errorf("dataplane_probe_walks_total = %d for %d probes (forwards %d): want a few, and every forward a probe walk", walks, sent, count["dataplane_forwards_total"])
	}
}

// TestPingSchedulesNothing pins that probing stays off the calendar.
func TestPingSchedulesNothing(t *testing.T) {
	w := newScriptWorld(t, false, [2]int{nS2, nS2}, 0, nil)
	w.sim.At(scriptT0+1000, func() {})
	pending := w.sim.Pending()
	for i := 0; i < 1000; i++ {
		w.probers[i%2].PingEvery(w.nodes[i%len(w.nodes)], 1.5, 600)
		w.probers[i%2].ping(w.nodes[i%len(w.nodes)])
	}
	if got := w.sim.Pending(); got != pending {
		t.Fatalf("a thousand PingEvery and ping calls left %d events pending, want the %d there were", got, pending)
	}
	w.sim.RunUntil(scriptT0 + 30)
	pending = w.sim.Pending()
	if got := w.probers[0].Sent() + w.probers[1].Sent(); got != 1000*(21+1) {
		t.Fatalf("sent %d probes in 30 s, want %d", got, 1000*22)
	}
	if got := w.sim.Pending(); got != pending {
		t.Fatalf("reading the probers left %d events pending, want the %d there were", got, pending)
	}
}
