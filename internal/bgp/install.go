package bgp

import (
	"fmt"

	"bestofboth/internal/topology"
)

// Install writes a solved routing state into a network that has originated
// nothing and run no event: the state a converge of sol's originations
// leaves. Each speaker's loc-RIB — origination, best route and its session —
// comes from sol. Its adj-RIBs-out, and the neighbors' adj-RIBs-in, come from
// one export pass per ⟨speaker, prefix⟩ through exportUpdate, the converge's
// own export code, whose updates land in the receiving slot at once instead
// of riding the calendar (installDelivery). Speakers export in the order the
// solve settled them, so the route a speaker's best session names is already
// in its adj-RIB-in when its turn comes.
//
// Per speaker the states are carved from one array, as Snapshot carves them:
// one state per solved prefix, so a speaker that no route reaches holds an
// empty husk where a converge leaves no state (digests skip both). Nothing
// is scheduled, OnBestChange subscribers and collector feeds are not called
// (Plane.InstallSolution fills the FIBs), and no message is counted. The
// export passes draw MRAI jitter and stamp MRAI deadlines at the current
// clock; netsim's Handoff puts both behind the world's first fault.
func (n *Network) Install(sol *Solution) error {
	if sol.topo != n.topo {
		return fmt.Errorf("bgp: install: the solution is of another topology")
	}
	if pending := n.sim.Pending(); pending != 0 {
		return fmt.Errorf("bgp: cannot install with %d pending events", pending)
	}
	if len(n.prefixes) != 0 {
		return fmt.Errorf("bgp: install requires a network that has originated nothing")
	}
	// Solved prefixes are in comparePrefix order, so each one's id is its
	// index and order is the identity.
	for _, p := range sol.prefixes {
		n.prefixIDOrNew(p)
	}
	nPrefix := len(sol.prefixes)
	ribs := make([]*prefixState, len(n.speakers)*nPrefix)
	for i := range n.speakers {
		sp := &n.speakers[i]
		nAdj := len(sp.node.Adj)
		states := make([]prefixState, nPrefix)
		slots := make([]adjSlot, nAdj*nPrefix)
		sp.rib, ribs = ribs[:nPrefix:nPrefix], ribs[nPrefix:]
		for id := range states {
			st := &states[id]
			st.id, st.owner = int32(id), sp
			st.adj, slots = slots[:nAdj:nAdj], slots[nAdj:]
			sp.rib[id] = st
		}
	}
	n.m.prefixStates.Add(uint64(len(n.speakers) * nPrefix))
	for id := range sol.prefixes {
		for _, v := range sol.settled[id] {
			sp, c := &n.speakers[v], sol.best[id][v]
			st := sp.rib[id]
			if c.sess == sessLocal {
				st.origin = sp.newOrigination(int32(id), sol.origins[id][c.org].Policy)
				st.best, st.bestSess = &st.origin.route, -1
			} else {
				st.best, st.bestSess = sp.in(st, int(c.sess)), c.sess
				if st.best == nil {
					return fmt.Errorf("bgp: install: %s %s: no route on the solved session %d", sp.node.Name, sol.prefixes[id], c.sess)
				}
			}
			var transit []topology.ASN
			for sess := range sp.node.Adj {
				if u, ok := sp.exportUpdate(st, sess, &transit); ok {
					sp.installDelivery(sess, u)
				}
			}
		}
	}
	return nil
}

// installDelivery is Install's transmit: an announcement lands in the
// neighbor's adj-RIB-in slot at once, filed as receive files it (a path
// holding the neighbor's own ASN leaves the slot empty), and the neighbor's
// loc-RIB is left to Install.
func (s *Speaker) installDelivery(sess int, u update) {
	peer := &s.net.speakers[s.node.Adj[sess].To]
	rev := s.reverse(sess)
	if rev < 0 || u.typ != Announce || u.route.ContainsASN(peer.node.ASN) {
		return
	}
	peer.setIn(peer.rib[u.id], rev, u.route)
	s.net.m.adjIn.Add(1)
}
