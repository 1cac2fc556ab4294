// Package collector emulates public BGP route collectors (RIS, RouteViews):
// receive-only sessions with a set of peer ASes, a timestamped update
// archive, and the estimators the paper's Appendices A and B apply to
// archived feeds — withdrawal/announcement onset estimation from update
// bursts, per-peer convergence time, and per-peer propagation delay.
package collector

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"

	"bestofboth/internal/bgp"
	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// Record is one archived update as seen from one collector peer.
type Record struct {
	Time   float64
	Peer   topology.NodeID
	Prefix netip.Prefix
	Type   bgp.UpdateType
	Path   []topology.ASN
}

// Collector archives the update feeds of its peers.
type Collector struct {
	name    string //cdnlint:nosnapshot construction-time identity, not archived state
	archive []Record
}

// New creates a collector with the given name (e.g. "rrc00").
func New(name string) *Collector { return &Collector{name: name} }

// Name returns the collector name.
func (c *Collector) Name() string { return c.name }

// Attach opens receive-only sessions with the given peers on net.
func (c *Collector) Attach(net *bgp.Network, peers ...topology.NodeID) error {
	for _, p := range peers {
		p := p
		if err := net.AttachFeed(p, func(now netsim.Seconds, peer topology.NodeID, u bgp.Update) {
			rec := Record{Time: now, Peer: peer, Prefix: u.Prefix, Type: u.Type}
			if u.Route != nil {
				rec.Path = u.Route.Path
			}
			c.archive = append(c.archive, rec)
		}); err != nil {
			return fmt.Errorf("collector %s: attaching peer %d: %w", c.name, p, err)
		}
	}
	return nil
}

// Records returns the full archive in arrival order.
func (c *Collector) Records() []Record { return c.archive }

// RecordsFor filters the archive to one prefix, in time order.
func (c *Collector) RecordsFor(prefix netip.Prefix) []Record {
	var out []Record
	for _, r := range c.archive {
		if r.Prefix == prefix {
			out = append(out, r)
		}
	}
	return out
}

// SnapshotArchive deep-copies the archive (including AS paths) so the copy
// can outlive, and be restored into, other collectors without sharing.
func (c *Collector) SnapshotArchive() []Record {
	out := make([]Record, len(c.archive))
	for i, r := range c.archive {
		r.Path = slices.Clone(r.Path)
		out[i] = r
	}
	return out
}

// RestoreArchive replaces the archive with a deep copy of recs, so a
// snapshot taken from a converged world can seed a freshly built collector.
func (c *Collector) RestoreArchive(recs []Record) {
	c.archive = make([]Record, len(recs))
	for i, r := range recs {
		r.Path = slices.Clone(r.Path)
		c.archive[i] = r
	}
}

// EstimateEventTime implements the paper's onset estimator: the event
// (withdrawal or announcement) is estimated to have occurred at the first
// time when at least minBurst updates of the given type are observed within
// a window of windowSec seconds (the paper uses 5 updates in 20 s). It
// returns ok=false if no such burst exists.
func (c *Collector) EstimateEventTime(prefix netip.Prefix, typ bgp.UpdateType, minBurst int, windowSec float64) (float64, bool) {
	var times []float64
	for _, r := range c.RecordsFor(prefix) {
		if r.Type == typ {
			times = append(times, r.Time)
		}
	}
	if len(times) < minBurst {
		return 0, false
	}
	sort.Float64s(times)
	for i := 0; i+minBurst-1 < len(times); i++ {
		if times[i+minBurst-1]-times[i] <= windowSec {
			return times[i], true
		}
	}
	return 0, false
}

// ConvergenceTimes computes, per collector peer, the delay between
// eventTime and the last update from that peer for the prefix within
// [eventTime, eventTime+window] (the Appendix A per-⟨peer, withdrawal⟩
// convergence metric; the paper uses a 1000 s window). Peers with no
// updates in the window are omitted.
func (c *Collector) ConvergenceTimes(prefix netip.Prefix, eventTime, window float64) map[topology.NodeID]float64 {
	last := map[topology.NodeID]float64{}
	for _, r := range c.RecordsFor(prefix) {
		if r.Time < eventTime || r.Time > eventTime+window {
			continue
		}
		if cur, ok := last[r.Peer]; !ok || r.Time > cur {
			last[r.Peer] = r.Time
		}
	}
	out := make(map[topology.NodeID]float64, len(last))
	for p, t := range last {
		out[p] = t - eventTime
	}
	return out
}

// PropagationTimes computes, per collector peer, the delay between
// eventTime and the first announcement of the prefix seen from that peer
// (the Appendix B per-⟨peer, announcement⟩ propagation metric). Peers that
// never announce are omitted.
func (c *Collector) PropagationTimes(prefix netip.Prefix, eventTime float64) map[topology.NodeID]float64 {
	first := map[topology.NodeID]float64{}
	for _, r := range c.RecordsFor(prefix) {
		if r.Type != bgp.Announce || r.Time < eventTime {
			continue
		}
		if cur, ok := first[r.Peer]; !ok || r.Time < cur {
			first[r.Peer] = r.Time
		}
	}
	out := make(map[topology.NodeID]float64, len(first))
	for p, t := range first {
		out[p] = t - eventTime
	}
	return out
}

// SelectPeers picks n collector peers from the topology, weighted toward
// the well-connected networks that actually feed RIS and RouteViews:
// tier-1s and transits first, then eyeballs. Selection is deterministic in
// seed.
func SelectPeers(topo *topology.Topology, n int, seed int64) []topology.NodeID {
	r := rand.New(rand.NewSource(seed))
	var core, edge []topology.NodeID
	for _, node := range topo.Nodes {
		switch node.Class {
		case topology.ClassTier1, topology.ClassTransit, topology.ClassREN:
			core = append(core, node.ID)
		case topology.ClassEyeball:
			edge = append(edge, node.ID)
		}
	}
	r.Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
	r.Shuffle(len(edge), func(i, j int) { edge[i], edge[j] = edge[j], edge[i] })
	out := make([]topology.NodeID, 0, n)
	// Roughly 3:1 core-to-edge mix.
	wantCore := n * 3 / 4
	for len(out) < wantCore && len(core) > 0 {
		out = append(out, core[0])
		core = core[1:]
	}
	for len(out) < n && len(edge) > 0 {
		out = append(out, edge[0])
		edge = edge[1:]
	}
	for len(out) < n && len(core) > 0 {
		out = append(out, core[0])
		core = core[1:]
	}
	return out
}
