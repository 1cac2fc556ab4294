package bgp_test

import (
	"testing"

	"bestofboth/internal/bgp"
	"bestofboth/internal/core"
	"bestofboth/internal/experiment"
	"bestofboth/internal/topology"
)

// mirrorMismatch checks that two ends of every session agree at a quiescent
// point: what speaker A last advertised on a session (its adj-RIB-out) is
// the very Route the neighbor B holds on the reverse session (its
// adj-RIB-in), since B keeps the sender's published pointer; except that B
// holds nothing when the route's path carries B's own ASN, and nothing when
// A advertised nothing. It reads only AdjIn and AdjOut, never the slots, and
// returns the sessions it compared and the first disagreement.
func mirrorMismatch(net *bgp.Network) (pairs int, bad string) {
	topo := net.Topology()
	for id := range topology.NodeID(topo.Len()) {
		a := net.Speaker(id)
		for _, p := range a.KnownPrefixes() {
			out := a.AdjOut(p)
			for sess, adj := range a.Node().Adj {
				b := net.Speaker(adj.To)
				rev := -1
				for i, back := range b.Node().Adj {
					if back.To == id {
						rev = i
					}
				}
				var in *bgp.Route
				if held := b.AdjIn(p); held != nil {
					in = held[rev]
				}
				want := out[sess]
				if want != nil && want.ContainsASN(b.Node().ASN) {
					want = nil
				}
				if in != want {
					return pairs, a.Node().Name + " -> " + b.Node().Name + " " + p.String() + ": the receiver does not hold what the sender advertised"
				}
				pairs++
			}
		}
	}
	return pairs, ""
}

// TestAdjRIBsMirrorAtQuiescence holds the two ends of every session to each
// other (mirrorMismatch) in the worlds of the seven techniques: solved,
// converged event by event, restored, after a site failure, and with a
// link taken down and brought back up.
func TestAdjRIBsMirrorAtQuiescence(t *testing.T) {
	cfg := experiment.WorldConfig{
		Seed:           23,
		Topology:       topology.GenConfig{NumStub: 120, NumEyeball: 60, NumUniversity: 16, NumRegional: 24},
		CollectorPeers: 25,
	}
	for _, tech := range core.SevenTechniques() {
		t.Run(tech.Name(), func(t *testing.T) {
			check := func(w *experiment.World, stage string) {
				t.Helper()
				pairs, bad := mirrorMismatch(w.Net)
				if bad != "" {
					t.Fatalf("%s: %s", stage, bad)
				}
				if pairs == 0 {
					t.Fatalf("%s: no session compared", stage)
				}
			}
			settle := func(w *experiment.World) {
				t.Helper()
				if err := w.Settle(3600); err != nil {
					t.Fatal(err)
				}
			}
			solved, err := experiment.NewConvergedWorld(cfg, tech, 3600)
			if err != nil {
				t.Fatal(err)
			}
			check(solved, "solved")

			simulated, err := experiment.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := simulated.CDN.Deploy(tech); err != nil {
				t.Fatal(err)
			}
			settle(simulated)
			check(simulated, "converged")

			snap, err := solved.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			w, err := experiment.RestoreWorld(snap)
			if err != nil {
				t.Fatal(err)
			}
			check(w, "restored")
			site := w.CDN.Sites()[2]
			if _, err := w.CDN.FailSite(site.Code); err != nil {
				t.Fatal(err)
			}
			settle(w)
			check(w, "site failed")

			w, err = experiment.RestoreWorld(snap)
			if err != nil {
				t.Fatal(err)
			}
			up := w.Topo.Node(site.Node).Adj[0].To
			if err := w.Net.SetLinkDown(site.Node, up); err != nil {
				t.Fatal(err)
			}
			settle(w)
			check(w, "link down")
			if err := w.Net.SetLinkUp(site.Node, up); err != nil {
				t.Fatal(err)
			}
			settle(w)
			check(w, "link up")
		})
	}
}
