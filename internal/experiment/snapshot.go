package experiment

import (
	"fmt"

	"bestofboth/internal/bgp"
	"bestofboth/internal/collector"
	"bestofboth/internal/core"
	"bestofboth/internal/dataplane"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// WorldSnapshot captures a fully converged world — its topology, kernel
// clock and RNG position, every speaker's RIBs and pacing state, every
// node's FIB and forwarding flag, the controller, DNS zone and demand rates,
// and the collector archive — so that deploy and converge are paid once per
// ⟨configuration, technique⟩ and reused by every per-site run. A snapshot is
// immutable and safe to restore from any number of goroutines concurrently,
// also while worlds restored earlier are running.
type WorldSnapshot struct {
	cfg   WorldConfig
	topo  *topology.Topology
	sim   netsim.Snapshot
	net   *bgp.NetworkSnapshot
	plane *dataplane.Snapshot
	cdn   *core.Snapshot
	col   []collector.Record
}

// Snapshot captures the world's state. It fails if simulation events are
// pending: converge first, and if convergence did not finish within its
// deadline the world cannot be snapshotted.
func (w *World) Snapshot() (*WorldSnapshot, error) {
	simSnap, err := w.Sim.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("experiment: snapshotting kernel: %w", err)
	}
	netSnap, err := w.Net.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("experiment: snapshotting bgp: %w", err)
	}
	// The registry is process state, not simulation state: a snapshot must
	// not pin whoever built it. Restorers re-instrument with their own
	// registry (see Runner.materialize).
	cfg := w.Cfg
	cfg.Obs = nil
	return &WorldSnapshot{
		cfg:   cfg,
		topo:  w.Topo,
		sim:   simSnap,
		net:   netSnap,
		plane: w.Plane.Snapshot(),
		cdn:   w.CDN.Snapshot(),
		col:   w.Collector.SnapshotArchive(),
	}, nil
}

// RestoreWorld materializes an independent world from a snapshot: it builds
// a fresh world from the snapshot's configuration and topology (re-wiring
// all component callbacks) and then installs the snapshot's state — clock,
// RNG position, RIBs, FIBs and forwarding flags, controller, zone, and
// archive. The two bulky layers restore by reference: every speaker's rib
// points at the snapshot's frozen per-prefix states and every node forwards
// through the snapshot's FIB row, shared with sibling restores, and a world
// copies a state or a row only when its own fault first writes it
// (bgp.Speaker.own, dataplane.Plane). The small mutable rest is copied. The
// result is bit-identical to the world the snapshot was taken from and
// observationally isolated from it and from sibling restores
// (TestSnapshotStaysPristine).
func RestoreWorld(snap *WorldSnapshot) (*World, error) {
	w, err := newWorld(snap.cfg, snap.topo)
	if err != nil {
		return nil, err
	}
	if err := w.Sim.Restore(snap.sim); err != nil {
		return nil, fmt.Errorf("experiment: restoring kernel: %w", err)
	}
	if err := w.Net.Restore(snap.net); err != nil {
		return nil, fmt.Errorf("experiment: restoring bgp: %w", err)
	}
	if err := w.Plane.Restore(snap.plane); err != nil {
		return nil, fmt.Errorf("experiment: restoring data plane: %w", err)
	}
	if err := w.CDN.Restore(snap.cdn); err != nil {
		return nil, fmt.Errorf("experiment: restoring cdn: %w", err)
	}
	w.Collector.RestoreArchive(snap.col)
	// The accountant is not snapshotted: fold the restored FIBs over the
	// restored demand so it matches the snapshotted world's load state.
	w.CDN.RefreshLoad()
	return w, nil
}
