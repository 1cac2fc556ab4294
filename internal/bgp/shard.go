package bgp

import (
	"fmt"
	"math"

	"bestofboth/internal/netsim"
	"bestofboth/internal/topology"
)

// Sharded convergence.
//
// A Network can run its speakers across several shard simulators under a
// netsim.ShardRunner. Every speaker belongs to exactly one shard and all of
// its events (deliveries, MRAI timers, damping reuse timers) live on that
// shard's calendar. Same-shard updates take the usual pooled-delivery path;
// cross-shard updates are buffered as plain values into per-(src,dst)
// mailboxes and merged into the destination calendars at each barrier, in
// (source shard, source sequence) order. The lookahead window — the minimum
// cross-shard link delay plus the minimum processing delay — guarantees a
// message emitted during a round arrives after the round's horizon, so
// shards never see each other mid-round.
//
// The unsharded Network is the one-shard special case: shard 0 wraps the
// control simulator itself, so every code path is shared and shards=1 is
// bit-identical to the pre-sharding simulator.

// shard holds the per-shard simulator and all single-threaded state that
// used to live on the Network: the AS-path intern table and the payload
// free-lists are touched from the owning shard's goroutine only, and the
// outgoing mailboxes are written by the owning shard and drained by the
// barrier (which runs with all shards parked). cdnlint/shardsafe enforces
// the discipline: fields are reachable only from owner-rooted receivers,
// the drain path, or barrier-side code.
//
//cdnlint:shardowned
type shard struct {
	idx int         //cdnlint:nosnapshot immutable wiring: position in Network.shards
	sim *netsim.Sim // kernel state snapshots via NetworkSnapshot.kernels

	// intern deduplicates AS-path slices across this shard's speakers.
	intern pathIntern //cdnlint:nosnapshot cache: a restored network re-interns paths as it exports; samePath falls back to content
	// freeDeliv and freePend head the free lists that recycle the payload
	// structs of the two hottest event kinds. The lists are intrusive (each
	// free struct links the next), so recycling never grows an array.
	freeDeliv *delivery      //cdnlint:nosnapshot free-list pool; contents are semantically empty
	freePend  *pendingExport //cdnlint:nosnapshot free-list pool; contents are semantically empty

	// out[d] buffers updates for speakers on shard d; drained at barriers.
	out [][]xmsg //cdnlint:nosnapshot snapshots require quiescence, where all mailboxes are empty
	// feedOut buffers collector-feed deliveries bound for the control
	// simulator.
	feedOut []feedMsg //cdnlint:nosnapshot snapshots require quiescence, where all mailboxes are empty
	// outSeq numbers cross-shard sends so the barrier merge order is
	// explicit and testable.
	outSeq uint64 //cdnlint:nosnapshot only relative order within a round matters, and mailboxes are empty at quiescence
}

// xmsg is one cross-shard UPDATE in flight: the same payload a pooled
// delivery carries, held by value in the mailbox until the barrier.
type xmsg struct {
	at    netsim.Seconds
	peer  *Speaker
	rev   int
	epoch uint64
	u     Update
	seq   uint64
}

// feedMsg is one collector-feed delivery bound for the control simulator.
type feedMsg struct {
	at   netsim.Seconds
	sp   *Speaker
	peer topology.NodeID
	u    Update
}

// sendCross buffers an update for a speaker on another shard. Runs on the
// sending shard's goroutine; only sender-owned state is written.
//
//cdnlint:allocfree cross-shard sends append one value into the mailbox; no per-message heap traffic
func (sh *shard) sendCross(at netsim.Seconds, peer *Speaker, rev int, u Update) {
	sh.outSeq++
	//lint:ignore cdnlint/shardsafe idx is immutable wiring; addressing the destination mailbox reads no mutable peer-shard state
	dst := peer.sh.idx
	sh.out[dst] = append(sh.out[dst], xmsg{at: at, peer: peer, rev: rev, epoch: peer.sessEpoch[rev], u: u, seq: sh.outSeq})
}

//cdnlint:allocfree pool hit path; the miss allocates once per steady-state depth
func (sh *shard) newDelivery() *delivery {
	if d := sh.freeDeliv; d != nil {
		sh.freeDeliv, d.next = d.next, nil
		return d
	}
	return &delivery{}
}

//cdnlint:allocfree pool hit path; the miss allocates once per steady-state depth
func (sh *shard) newPendingExport() *pendingExport {
	if pe := sh.freePend; pe != nil {
		sh.freePend, pe.next = pe.next, nil
		return pe
	}
	return &pendingExport{}
}

// exchange adapts the Network's mailboxes to netsim.Exchanger. The runner
// calls it only between rounds, with every shard goroutine parked.
type exchange struct{ n *Network }

// MailboxPending reports buffered cross-shard messages awaiting merge.
//
//cdnlint:barrieronly
func (e exchange) MailboxPending() int {
	total := 0
	for _, sh := range e.n.shards {
		for _, buf := range sh.out {
			total += len(buf)
		}
		total += len(sh.feedOut)
	}
	return total
}

// Merge drains every mailbox into the destination calendars. Source shards
// are visited in index order and each buffer in append (sequence) order, so
// deliveries tied on timestamps execute in (source shard, source sequence)
// order — deterministic regardless of which shard finished its round first.
//
//cdnlint:barrieronly
func (e exchange) Merge() {
	for _, src := range e.n.shards {
		e.n.mergeUpdates(src)
		e.n.mergeFeeds(src)
	}
}

// mergeUpdates re-schedules one source shard's buffered updates as pooled
// deliveries on their destination shards.
//
//cdnlint:allocfree deliveries come from the destination shard's pool; mailbox slots are cleared in place
func (n *Network) mergeUpdates(src *shard) {
	for di := range src.out {
		buf := src.out[di]
		if len(buf) == 0 {
			continue
		}
		dst := n.shards[di]
		n.m.xshard.Add(uint64(len(buf)))
		for i := range buf {
			m := &buf[i]
			d := dst.newDelivery()
			d.peer, d.rev, d.epoch, d.u = m.peer, m.rev, m.epoch, m.u
			dst.sim.AtCall(m.at, runDelivery, d)
			buf[i] = xmsg{}
		}
		src.out[di] = buf[:0]
	}
}

// mergeFeeds re-schedules buffered collector-feed deliveries on the control
// simulator, where all feed consumers (collectors) live.
func (n *Network) mergeFeeds(src *shard) {
	if len(src.feedOut) == 0 {
		return
	}
	n.m.xfeed.Add(uint64(len(src.feedOut)))
	for i := range src.feedOut {
		m := src.feedOut[i]
		n.sim.At(m.at, func() {
			for _, fn := range m.sp.feeds {
				fn(n.sim.Now(), m.peer, m.u)
			}
		})
		src.feedOut[i] = feedMsg{}
	}
	src.feedOut = src.feedOut[:0]
}

// lookahead computes the barrier window for an assignment: the minimum
// virtual latency any cross-shard message can carry, i.e. the smallest
// cut-edge link delay plus the minimum processing delay. Returns +Inf when
// the assignment has no cut edges.
func lookahead(topo *topology.Topology, cfg Config, assign []int) netsim.Seconds {
	minCut := math.Inf(1)
	for _, node := range topo.Nodes {
		for _, adj := range node.Adj {
			if assign[node.ID] != assign[adj.To] && adj.Delay < minCut {
				minCut = adj.Delay
			}
		}
	}
	return minCut + cfg.ProcMin
}

// shardSeed derives the deterministic RNG seed of shard i from the world
// seed.
func shardSeed(seed int64, i int) int64 {
	return seed + int64(i+1)*1_000_003
}

// noCutWindow picks the barrier window for an assignment with no cut edges
// (every speaker landed on one shard — degenerate tiny topology, or n far
// above the node count). With nothing ever crossing shards, any positive
// window is conservative — it only sets round granularity — so we use the
// window the assignment WOULD have if the topology's lowest-latency link
// were cut: min link delay anywhere + ProcMin. A topology with no links at
// all falls back to ProcMin alone, and if that is also zero, to one virtual
// second.
func noCutWindow(topo *topology.Topology, cfg Config) netsim.Seconds {
	minDelay := math.Inf(1)
	for _, node := range topo.Nodes {
		for _, adj := range node.Adj {
			if adj.Delay < minDelay {
				minDelay = adj.Delay
			}
		}
	}
	window := cfg.ProcMin
	if !math.IsInf(minDelay, 1) {
		window += minDelay
	}
	if window <= 0 {
		window = 1
	}
	return window
}

// NewSharded builds a Network whose speakers are partitioned across nShards
// shard simulators coordinated by a netsim.ShardRunner attached to sim (the
// control simulator). All world-level actors — fault injection, probers,
// monitors, collector feeds, scenario timelines — stay on sim and execute
// at barriers with every shard parked, so control actions keep their exact
// sequential semantics. nShards <= 1 degrades to New. Speakers are placed
// by PlanShards' static cost model; placement steers only event timing —
// converged route state and FIB digests are bit-identical at any shard
// count.
func NewSharded(sim *netsim.Sim, topo *topology.Topology, cfg Config, nShards int, seed int64) (*Network, error) {
	if nShards <= 1 {
		return New(sim, topo, cfg), nil
	}
	assign := PlanShards(topo, nShards, seed)
	window := lookahead(topo, cfg, assign)
	if math.IsInf(window, 1) {
		window = noCutWindow(topo, cfg)
	}
	if window <= 0 {
		return nil, fmt.Errorf("bgp: cannot shard: lookahead %g <= 0 (zero-delay cut edge with ProcMin=0)", window)
	}

	shards := make([]*shard, nShards)
	sims := make([]*netsim.Sim, nShards)
	for i := range shards {
		sims[i] = netsim.New(shardSeed(seed, i))
		shards[i] = &shard{idx: i, sim: sims[i], intern: newPathIntern(), out: make([][]xmsg, nShards)}
	}
	n := build(sim, topo, cfg, shards, assign)
	runner, err := netsim.NewShardRunner(sim, sims, window, exchange{n})
	if err != nil {
		return nil, err
	}
	n.runner = runner
	return n, nil
}

// ShardRunner returns the barrier runner coordinating this network's
// shards, or nil when the network is unsharded.
func (n *Network) ShardRunner() *netsim.ShardRunner { return n.runner }

// Shards returns the number of shards the network runs across (1 when
// unsharded).
func (n *Network) Shards() int { return len(n.shards) }

// ShardEventCounts returns the number of kernel events each shard has
// executed so far, in shard-index order. The max/mean ratio of these is
// the event imbalance PlanShards' cost model leaves: the slowest shard
// gates every barrier round, so it bounds parallel speedup
// (TestStaticPartitionImbalance holds it to a ceiling at paper scale).
// Callers read it between rounds (or after the run), with shards parked.
//
//cdnlint:barrieronly
func (n *Network) ShardEventCounts() []uint64 {
	counts := make([]uint64, len(n.shards))
	for i, s := range n.shards {
		counts[i] = s.sim.Steps()
	}
	return counts
}
