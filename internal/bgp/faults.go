package bgp

import (
	"fmt"

	"bestofboth/internal/topology"
)

// Session/link fault injection.
//
// A BGP session in this model is the pair of directed adjacency slots
// between two speakers. Faults operate on both directions at once:
//
//   - SetLinkDown tears the session down: both sides flush the routes
//     learned over it, re-select from remaining sessions, and propagate the
//     resulting withdrawals/replacements. In-flight updates on the session
//     are dropped (the TCP connection died with the link).
//   - SetLinkUp re-establishes the session: both sides replay their full
//     tables, as in the initial Adj-RIB-Out exchange of RFC 4271 §9.4.
//   - ResetSession models a session bounce (e.g. a NOTIFICATION or hold
//     timer expiry) with the link itself staying up: state is flushed and
//     the full tables are exchanged again immediately.
//
// All three iterate RIBs in sorted prefix order, so fault injection
// preserves the simulator's bit-exact determinism.

// sessionBetween finds the session index at a pointing to b.
func (n *Network) sessionBetween(a, b topology.NodeID) (int, error) {
	sa := n.Speaker(a)
	if sa == nil {
		return 0, fmt.Errorf("bgp: no speaker for node %d", a)
	}
	for i, adj := range sa.node.Adj {
		if adj.To == b {
			return i, nil
		}
	}
	return 0, fmt.Errorf("bgp: no session between %q and node %d", sa.node.Name, b)
}

func (n *Network) sessionPair(a, b topology.NodeID) (sa, sb *Speaker, ia, ib int, err error) {
	if ia, err = n.sessionBetween(a, b); err != nil {
		return nil, nil, 0, 0, err
	}
	if ib, err = n.sessionBetween(b, a); err != nil {
		return nil, nil, 0, 0, err
	}
	return n.Speaker(a), n.Speaker(b), ia, ib, nil
}

// SetLinkDown fails the link (and therefore the BGP session) between nodes
// a and b. Routes learned over the session are withdrawn on both sides and
// alternatives re-selected; updates already in flight on the session are
// lost. Idempotent: failing an already-down link is a no-op.
func (n *Network) SetLinkDown(a, b topology.NodeID) error {
	sa, sb, ia, ib, err := n.sessionPair(a, b)
	if err != nil {
		return err
	}
	if sa.downSess[ia] {
		return nil
	}
	sa.downSess[ia] = true
	sb.downSess[ib] = true
	sa.sessEpoch[ia]++
	sb.sessEpoch[ib]++
	sa.flushSession(ia)
	sb.flushSession(ib)
	return nil
}

// SetLinkUp restores a previously failed link. Both speakers re-establish
// the session and replay their full tables toward each other. Idempotent:
// restoring an up link is a no-op.
func (n *Network) SetLinkUp(a, b topology.NodeID) error {
	sa, sb, ia, ib, err := n.sessionPair(a, b)
	if err != nil {
		return err
	}
	if !sa.downSess[ia] {
		return nil
	}
	sa.downSess[ia] = false
	sb.downSess[ib] = false
	sa.readvertiseSession(ia)
	sb.readvertiseSession(ib)
	return nil
}

// ResetSession bounces the BGP session between a and b without taking the
// link down: both sides drop all session state (and any in-flight updates),
// then immediately re-establish and exchange full tables. The transient
// withdraw/re-announce churn is what route-flap damping at downstream
// speakers reacts to.
func (n *Network) ResetSession(a, b topology.NodeID) error {
	sa, sb, ia, ib, err := n.sessionPair(a, b)
	if err != nil {
		return err
	}
	if sa.downSess[ia] {
		return fmt.Errorf("bgp: cannot reset session %q<->%q: link is down", sa.node.Name, sb.node.Name)
	}
	sa.sessEpoch[ia]++
	sb.sessEpoch[ib]++
	sa.flushSession(ia)
	sb.flushSession(ib)
	sa.readvertiseSession(ia)
	sb.readvertiseSession(ib)
	return nil
}
