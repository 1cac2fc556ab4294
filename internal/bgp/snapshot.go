package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"bestofboth/internal/netsim"
)

// NetworkSnapshot is a frozen capture of all per-speaker protocol state at a
// quiescent moment: adj-RIBs-in/out, loc-RIB best routes, origination
// policies, MRAI pacing deadlines, damping penalties, the TCP in-order
// delivery clocks, and which sessions are down at which establishment
// epoch. Together with a netsim.Snapshot of the kernel it is the complete
// converged-world state of the control plane.
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
// The per-session state is network-wide, one entry per session (see
// Network.last). The delivery clocks are copied into every restore, whose
// shard goroutines write them. The down and epoch tables are written only
// by the fault methods, so a restore shares them with the snapshot and
// clones them at its own first fault (ownSessions); a network that never
// faulted captures them as nil, all up at epoch 0.
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
	// last, down and epoch are the network's per-session tables; down and
	// epoch are nil when the network never faulted, and shared read-only
	// by every restore.
	last  []netsim.Seconds
	down  []bool
	epoch []uint64
}

type speakerSnapshot struct {
	msgCount        uint64
	lastFeedDeliver netsim.Seconds
	base            int32         // checked, not restored: the restoring network's layout must match
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
		last:     slices.Clone(n.last),
		down:     slices.Clone(n.down),
		epoch:    slices.Clone(n.epoch),
	}
	for i, sh := range n.shards {
		ks, err := sh.sim.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("bgp: shard %d kernel: %w", i, err)
		}
		snap.kernels[i] = ks
	}
	for i := range n.speakers {
		sp := &n.speakers[i]
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
			lastFeedDeliver: sp.lastFeedDeliver,
			base:            sp.base,
			rib:             rib,
		}
	}
	return snap, nil
}

// Restore installs a snapshot into a freshly built network over an
// identically shaped topology (same node count and adjacency layout, e.g.
// regenerated from the same GenConfig). It allocates one array, whatever
// the speaker or prefix count: every speaker's id-indexed rib is carved
// out of one network-wide array of pointers at the snapshot's frozen
// states. The delivery clocks, which shard goroutines write, are copied
// into the table New allocated; the down and epoch tables are the
// snapshot's until the world's first fault (ownSessions); nothing per
// prefix is allocated or copied until the world writes a state (see
// NetworkSnapshot). The carved windows and the prefix-id tables are
// capacity-limited, so a world that originates a new prefix copies its
// tables, and a speaker that learns one reallocates its own rib, instead
// of growing over arrays that a neighbour or a sibling restore reads.
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
	if len(snap.last) != len(n.last) {
		return fmt.Errorf("bgp: snapshot has %d sessions, network has %d", len(snap.last), len(n.last))
	}
	for i := range n.speakers {
		sp := &n.speakers[i]
		if len(sp.rib) != 0 {
			return fmt.Errorf("bgp: speaker %d already has prefix state; restore requires a fresh network", i)
		}
		if snap.speakers[i].base != sp.base {
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
	copy(n.last, snap.last)
	n.down, n.epoch, n.sessShared = snap.down, snap.epoch, true
	ribs := make([]*prefixState, len(n.speakers)*nPrefix)
	for i := range snap.speakers {
		ss := &snap.speakers[i]
		sp := &n.speakers[i]
		sp.msgCount = ss.msgCount
		sp.lastFeedDeliver = ss.lastFeedDeliver
		sp.rib, ribs = ribs[:nPrefix:nPrefix], ribs[nPrefix:]
		for k := range ss.rib {
			sp.rib[ss.rib[k].id] = &ss.rib[k]
		}
	}
	return nil
}
