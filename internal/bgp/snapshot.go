package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"bestofboth/internal/netsim"
)

// NetworkSnapshot is a copy-on-write capture of all per-speaker protocol
// state at a quiescent moment: adj-RIBs-in/out, loc-RIB best routes,
// origination policies, MRAI pacing deadlines, damping penalties, and the
// TCP in-order delivery clocks. Together with a netsim.Snapshot of the
// kernel it is the complete converged-world state of the control plane.
//
// Routes and origin policies are immutable after publish (see the Route
// doc), so the snapshot shares their pointers with the live network instead
// of deep-copying: only the pointer slices and the mutable value slices
// (pacing deadlines, damping state) are cloned. Restored worlds likewise
// share the snapshot's routes and allocate only when a speaker actually
// diverges after a fault — a diverging speaker builds new Routes and swaps
// pointers, never touching the shared ones.
//
// Snapshots can only be taken when no simulation events are pending (in
// flight updates hold state that cannot be transplanted), which is exactly
// the state a fully converged network leaves behind. A snapshot is immutable
// after capture and may be restored into any number of freshly built
// networks, concurrently: restores only read the shared routes.
type NetworkSnapshot struct {
	// kernels capture each shard simulator's clock, sequence counter, and
	// RNG position (one entry per shard; the unsharded single shard wraps
	// the control simulator, whose kernel the world snapshot also carries —
	// restoring it twice is idempotent).
	kernels  []netsim.Snapshot
	speakers []speakerSnapshot
}

type speakerSnapshot struct {
	msgCount        uint64
	lastDeliver     []netsim.Seconds
	lastFeedDeliver netsim.Seconds
	downSess        []bool
	sessEpoch       []uint64
	prefixes        []prefixSnapshot
}

type prefixSnapshot struct {
	prefix      netip.Prefix
	in          []*Route
	out         []*Route
	nextAllowed []netsim.Seconds
	best        *Route
	origin      *OriginPolicy
	damp        []dampState
}

// Snapshot captures the network's protocol state copy-on-write. It fails if
// simulation events are pending: snapshot only a converged network.
func (n *Network) Snapshot() (*NetworkSnapshot, error) {
	if pending := n.sim.Pending(); pending != 0 {
		return nil, fmt.Errorf("bgp: cannot snapshot with %d pending events", pending)
	}
	snap := &NetworkSnapshot{
		kernels:  make([]netsim.Snapshot, len(n.shards)),
		speakers: make([]speakerSnapshot, len(n.speakers)),
	}
	for i, sh := range n.shards {
		ks, err := sh.sim.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("bgp: shard %d kernel: %w", i, err)
		}
		snap.kernels[i] = ks
	}
	for i, sp := range n.speakers {
		ss := speakerSnapshot{
			msgCount:        sp.msgCount,
			lastDeliver:     slices.Clone(sp.lastDeliver),
			lastFeedDeliver: sp.lastFeedDeliver,
			downSess:        slices.Clone(sp.downSess),
			sessEpoch:       slices.Clone(sp.sessEpoch),
			prefixes:        make([]prefixSnapshot, 0, len(sp.prefixes)),
		}
		for _, p := range sp.KnownPrefixes() { // sorted: deterministic restore order
			st := sp.prefixes[p]
			// Route and OriginPolicy pointers are shared, not cloned: both
			// are immutable once published. The live network moves on by
			// swapping pointers in its own (cloned-here) slices.
			ss.prefixes = append(ss.prefixes, prefixSnapshot{
				prefix:      p,
				in:          slices.Clone(st.in),
				out:         slices.Clone(st.out),
				nextAllowed: slices.Clone(st.nextAllowed),
				best:        st.best,
				origin:      st.origin,
				damp:        slices.Clone(st.damp),
			})
		}
		snap.speakers[i] = ss
	}
	return snap, nil
}

// Restore installs a snapshot into a freshly built network over an
// identically shaped topology (same node count and adjacency layout, e.g.
// regenerated from the same GenConfig). The restored network shares the
// snapshot's immutable routes and policies copy-on-write: a no-divergence
// restore allocates only per-prefix bookkeeping (pointer-slice headers and
// pacing arrays), never route contents, and post-restore state changes swap
// pointers without ever writing through shared ones. Concurrent restores
// from one snapshot are safe.
//
// The snapshot's adj-RIB-out paths are seeded into the network's AS-path
// intern table, so exports computed after the restore resolve to the exact
// shared slices and unchanged routes are recognized by pointer equality.
//
// Loc-RIB best routes are replayed to OnBestChange subscribers (rebuilding
// data-plane FIBs) but NOT to collector feeds: feed deliveries are
// simulation events, and the archive a collector accumulated up to the
// snapshot point is restored separately.
func (n *Network) Restore(snap *NetworkSnapshot) error {
	if pending := n.sim.Pending(); pending != 0 {
		return fmt.Errorf("bgp: cannot restore with %d pending events", pending)
	}
	if len(snap.speakers) != len(n.speakers) {
		return fmt.Errorf("bgp: snapshot has %d speakers, network has %d", len(snap.speakers), len(n.speakers))
	}
	for i, sp := range n.speakers {
		if len(sp.prefixes) != 0 {
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
	for i, ss := range snap.speakers {
		sp := n.speakers[i]
		sp.msgCount = ss.msgCount
		copy(sp.lastDeliver, ss.lastDeliver)
		sp.lastFeedDeliver = ss.lastFeedDeliver
		copy(sp.downSess, ss.downSess)
		copy(sp.sessEpoch, ss.sessEpoch)
		// Carve this speaker's per-prefix RIB slots out of three backing
		// arrays (one per element type) instead of allocating per prefix:
		// restores dominate the experiment runner's allocation profile, and
		// every prefix needs exactly len(Adj) slots per slice.
		nAdj := len(sp.node.Adj)
		routeBacking := make([]*Route, 2*nAdj*len(ss.prefixes))
		timeBacking := make([]netsim.Seconds, nAdj*len(ss.prefixes))
		pendBacking := make([]bool, nAdj*len(ss.prefixes))
		for k, ps := range ss.prefixes {
			rib := routeBacking[2*nAdj*k : 2*nAdj*(k+1) : 2*nAdj*(k+1)]
			st := &prefixState{
				prefix:      ps.prefix,
				in:          rib[:nAdj:nAdj],
				out:         rib[nAdj:],
				nextAllowed: timeBacking[nAdj*k : nAdj*(k+1) : nAdj*(k+1)],
				pending:     pendBacking[nAdj*k : nAdj*(k+1) : nAdj*(k+1)],
				best:        ps.best,
				origin:      ps.origin,
				damp:        slices.Clone(ps.damp),
			}
			copy(st.in, ps.in)
			copy(st.out, ps.out)
			copy(st.nextAllowed, ps.nextAllowed)
			if ps.origin != nil {
				// The origin route's maximal LocalPref means it is the best
				// route whenever an origination exists, so the snapshot's
				// best IS the origin loc-RIB entry; rebuild defensively if a
				// snapshot ever violates that.
				if ps.best != nil && ps.best.learnedFrom == -1 {
					st.originRoute = ps.best
				} else {
					st.originRoute = &Route{
						Prefix:      ps.prefix,
						LocalPref:   1 << 20,
						MED:         ps.origin.MED,
						OriginNode:  sp.node.ID,
						learnedFrom: -1,
					}
				}
			}
			sp.prefixes[ps.prefix] = st
			sp.sortedDirty = true
			for _, r := range st.out {
				if r != nil {
					sp.sh.intern.seed(r.Path)
				}
			}
			if st.best != nil {
				for _, fn := range n.onBest {
					fn(sp.node.ID, ps.prefix, st.best)
				}
			}
		}
	}
	return nil
}
