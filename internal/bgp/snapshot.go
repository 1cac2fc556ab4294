package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"bestofboth/internal/netsim"
)

// NetworkSnapshot is a frozen capture of all per-speaker protocol state at a
// quiescent moment: adj-RIBs-in/out, loc-RIB best routes, origination
// policies, MRAI pacing deadlines, damping penalties, and the TCP in-order
// delivery clocks. Together with a netsim.Snapshot of the kernel it is the
// complete converged-world state of the control plane.
//
// Per speaker the snapshot holds one []prefixState in prefix order — the
// very struct a live speaker uses, with owner nil. Restore copies none of
// it: a restored speaker's rib is a window of pointers at those frozen
// states, indexed by the prefix ids the snapshot also captures, and a state
// is cloned only when that world first writes it (Speaker.own). A
// Figure 2 run changes one or two of the eight or nine states a speaker
// holds, so the rest stay shared for the run's whole life. Routes and origin
// policies are immutable after publish (see the Route doc) and are shared by
// pointer on every side, clones included.
//
// Snapshots can only be taken when no simulation events are pending (in
// flight updates hold state that cannot be transplanted), which is exactly
// the state a fully converged network leaves behind. A snapshot is immutable
// after capture and may be restored into any number of freshly built
// networks, concurrently, while earlier restores are running: everything
// they share is only ever read.
type NetworkSnapshot struct {
	// kernels capture each shard simulator's clock, sequence counter, and
	// RNG position (one entry per shard; the unsharded single shard wraps
	// the control simulator, whose kernel the world snapshot also carries —
	// restoring it twice is idempotent).
	kernels  []netsim.Snapshot
	speakers []speakerSnapshot
	// prefixes and order are the network's prefix-id tables (see Network),
	// shared read-only by every restore.
	prefixes []netip.Prefix
	order    []int32
}

type speakerSnapshot struct {
	msgCount        uint64
	lastDeliver     []netsim.Seconds
	lastFeedDeliver netsim.Seconds
	downSess        []bool
	sessEpoch       []uint64
	rib             []prefixState // in prefix order; frozen: owner nil, pending nil
}

// Snapshot captures the network's protocol state. It fails if simulation
// events are pending: snapshot only a converged network. The live network
// keeps its own states; the snapshot's are copies whose per-session slots
// are carved from one array per speaker.
func (n *Network) Snapshot() (*NetworkSnapshot, error) {
	if pending := n.sim.Pending(); pending != 0 {
		return nil, fmt.Errorf("bgp: cannot snapshot with %d pending events", pending)
	}
	snap := &NetworkSnapshot{
		kernels:  make([]netsim.Snapshot, len(n.shards)),
		speakers: make([]speakerSnapshot, len(n.speakers)),
		// Copies: the live network goes on inserting into order in place.
		prefixes: slices.Clone(n.prefixes),
		order:    slices.Clone(n.order),
	}
	for i, sh := range n.shards {
		ks, err := sh.sim.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("bgp: shard %d kernel: %w", i, err)
		}
		snap.kernels[i] = ks
	}
	for i, sp := range n.speakers {
		states := 0
		for _, st := range sp.rib {
			if st != nil {
				states++
			}
		}
		nAdj := len(sp.node.Adj)
		slots := make([]adjSlot, nAdj*states)
		rib := make([]prefixState, 0, states)
		for _, id := range n.order {
			st := sp.at(id)
			if st == nil {
				continue
			}
			// Route and origination pointers are shared, not cloned: both
			// are immutable once published. The live network moves on by
			// swapping pointers in its own slots.
			rib = append(rib, *st)
			f := &rib[len(rib)-1]
			f.owner, f.pending = nil, nil
			f.adj, slots = slots[:nAdj:nAdj], slots[nAdj:]
			copy(f.adj, st.adj)
			f.damp = slices.Clone(st.damp)
		}
		snap.speakers[i] = speakerSnapshot{
			msgCount:        sp.msgCount,
			lastDeliver:     slices.Clone(sp.lastDeliver),
			lastFeedDeliver: sp.lastFeedDeliver,
			downSess:        slices.Clone(sp.downSess),
			sessEpoch:       slices.Clone(sp.sessEpoch),
			rib:             rib,
		}
	}
	return snap, nil
}

// Restore installs a snapshot into a freshly built network over an
// identically shaped topology (same node count and adjacency layout, e.g.
// regenerated from the same GenConfig). It is O(speakers × prefixes):
// every speaker's id-indexed rib is carved out of one network-wide array of
// pointers at the snapshot's frozen states, and nothing per prefix is
// allocated or copied until the restored world writes a state (see
// NetworkSnapshot). The carved windows and the prefix-id tables are
// capacity-limited, so a world that originates a new prefix copies its
// tables, and a speaker that learns one reallocates its own rib, instead of
// growing over arrays that a neighbour or a sibling restore reads.
// Concurrent restores from one snapshot are safe.
//
// Nothing is replayed and nothing is seeded. OnBestChange subscribers are
// not called — the data plane restores its FIBs from its own snapshot — and
// collector feeds are not fed: the archive a collector accumulated up to the
// snapshot point is restored separately. The fresh network's intern tables
// start empty, so its first exports build paths equal in content but not in
// pointer to the snapshot's; samePath then compares content, with the same
// result.
func (n *Network) Restore(snap *NetworkSnapshot) error {
	if pending := n.sim.Pending(); pending != 0 {
		return fmt.Errorf("bgp: cannot restore with %d pending events", pending)
	}
	if len(snap.speakers) != len(n.speakers) {
		return fmt.Errorf("bgp: snapshot has %d speakers, network has %d", len(snap.speakers), len(n.speakers))
	}
	for i, sp := range n.speakers {
		if len(sp.rib) != 0 {
			return fmt.Errorf("bgp: speaker %d already has prefix state; restore requires a fresh network", i)
		}
		if len(snap.speakers[i].lastDeliver) != len(sp.node.Adj) {
			return fmt.Errorf("bgp: speaker %d adjacency count mismatch", i)
		}
	}
	if len(snap.kernels) != len(n.shards) {
		return fmt.Errorf("bgp: snapshot has %d shard kernels, network has %d shards", len(snap.kernels), len(n.shards))
	}
	for i, sh := range n.shards {
		if err := sh.sim.Restore(snap.kernels[i]); err != nil {
			return fmt.Errorf("bgp: shard %d kernel: %w", i, err)
		}
	}
	nPrefix := len(snap.prefixes)
	n.prefixes = snap.prefixes[:nPrefix:nPrefix]
	n.order = snap.order[:nPrefix:nPrefix]
	ribs := make([]*prefixState, len(n.speakers)*nPrefix)
	for i := range snap.speakers {
		ss := &snap.speakers[i]
		sp := n.speakers[i]
		sp.msgCount = ss.msgCount
		copy(sp.lastDeliver, ss.lastDeliver)
		sp.lastFeedDeliver = ss.lastFeedDeliver
		copy(sp.downSess, ss.downSess)
		copy(sp.sessEpoch, ss.sessEpoch)
		sp.rib, ribs = ribs[:nPrefix:nPrefix], ribs[nPrefix:]
		for k := range ss.rib {
			sp.rib[ss.rib[k].id] = &ss.rib[k]
		}
	}
	return nil
}
