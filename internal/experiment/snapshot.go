package experiment

import (
	"fmt"

	"bestofboth/internal/bgp"
	"bestofboth/internal/collector"
	"bestofboth/internal/core"
	"bestofboth/internal/netsim"
)

// WorldSnapshot captures a fully converged world — kernel clock and RNG
// position, every speaker's RIBs and pacing state, the controller, DNS
// zone and demand rates, and the collector archive — so that the expensive
// deploy-and-converge phase can be paid once per ⟨configuration, technique⟩
// and reused by every per-site run. A snapshot is immutable and safe to
// restore from any number of goroutines concurrently.
type WorldSnapshot struct {
	cfg WorldConfig
	sim netsim.Snapshot
	net *bgp.NetworkSnapshot
	cdn *core.Snapshot
	col []collector.Record
}

// Snapshot captures the world's state. It fails if simulation events are
// pending: converge first, and if convergence did not finish within its
// deadline the world cannot be snapshotted (callers fall back to fresh
// runs).
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
		cfg: cfg,
		sim: simSnap,
		net: netSnap,
		cdn: w.CDN.Snapshot(),
		col: w.Collector.SnapshotArchive(),
	}, nil
}

// RestoreWorld materializes an independent world from a snapshot: it builds
// a fresh world from the snapshot's configuration (re-wiring all component
// callbacks) and then overwrites the mutable state — clock, RNG position,
// RIBs (replayed into the data plane), controller, zone, and archive — from
// the snapshot's. Protocol state restores copy-on-write: the immutable
// routes and origin policies are shared with the snapshot (and with sibling
// restores) by pointer, and a restored world allocates new ones only where
// it diverges after a fault. Everything mutable is copied, so the result is
// bit-identical to the world the snapshot was taken from and observationally
// isolated from it and from sibling restores.
func RestoreWorld(snap *WorldSnapshot) (*World, error) {
	w, err := NewWorld(snap.cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Sim.Restore(snap.sim); err != nil {
		return nil, fmt.Errorf("experiment: restoring kernel: %w", err)
	}
	if err := w.Net.Restore(snap.net); err != nil {
		return nil, fmt.Errorf("experiment: restoring bgp: %w", err)
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
