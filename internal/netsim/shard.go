package netsim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"bestofboth/internal/obs"
)

// Driver coordinates a group of simulators behind one facade Sim. A Sim
// with a driver attached delegates Run, RunUntil, Drain and Pending to it, so
// code written against a single kernel (scenario timelines, converge
// loops, snapshot gating) drives the whole group without change.
type Driver interface {
	// RunUntil advances the whole group to deadline: every member executes
	// its events with timestamps <= deadline and ends with its clock at
	// deadline.
	RunUntil(deadline Seconds)
	// Drain executes the whole group's events with timestamps <= deadline
	// and no later one; unlike RunUntil, clocks need not end at deadline.
	Drain(deadline Seconds)
	// Run executes the whole group to quiescence.
	Run()
	// Pending reports the group's total queued (and in-transit) events.
	Pending() int
}

// Exchanger is the model-layer half of the barrier protocol: it owns the
// per-(src,dst)-shard mailboxes that buffer cross-shard messages during a
// round. The runner calls it only between rounds, single-threaded.
type Exchanger interface {
	// MailboxPending reports buffered cross-shard messages not yet merged
	// into destination queues.
	MailboxPending() int
	// Merge schedules every buffered message into its destination
	// simulator, in deterministic (source shard, source sequence) order,
	// and empties the mailboxes.
	Merge()
}

// ShardRunner executes one logical simulation spread across n shard
// simulators plus one control simulator, in deterministic phase-barrier
// rounds.
//
// The protocol is conservative time-stepped parallel discrete-event
// simulation: all cross-shard interaction is buffered into mailboxes and
// carries at least `window` seconds of virtual latency (the lookahead —
// minimum cross-shard link delay plus minimum processing delay), so any
// message emitted inside a round arrives strictly after the round's
// horizon T and cannot affect events the other shards are concurrently
// executing. Each round:
//
//  1. merge mailboxes left over from the previous round (or seeded by
//     control-context model calls);
//  2. pick the horizon T = min(next + window, tc), where next is the
//     earliest pending event anywhere (idle periods are skipped, not
//     stepped through) and tc is the control simulator's earliest event —
//     bounding by tc means every control event runs with all shards
//     parked exactly at its timestamp, preserving sequential fault/probe
//     semantics;
//  3. run every shard to T concurrently (shards with no events in the
//     window just advance their clocks);
//  4. merge the mailboxes filled during the round, in sorted (source
//     shard, sequence) order;
//  5. run the control simulator to T.
//
// All clocks advance in lockstep: after every round each member sits
// exactly at T. Worker goroutines live for one Run/RunUntil call; the
// WaitGroup and channel handoffs order every shard access between the
// coordinator and the workers, so runs are race-detector clean.
type ShardRunner struct {
	control *Sim
	shards  []*Sim
	window  Seconds
	exch    Exchanger

	// busy is the per-round scratch list of shard indices with work in the
	// window, reused across rounds.
	busy []int

	// Metrics (nil until Instrument). Round and event counts are
	// deterministic for a fixed configuration; the barrier-stall histogram
	// is wall-clock and registered volatile.
	mRounds *obs.Counter
	mStall  *obs.Histogram
}

// NewShardRunner builds a runner over control and shards and attaches
// itself as control's driver. window is the lookahead in virtual seconds
// and must be positive: a non-positive window means the partition has a
// cross-shard edge with no latency to hide behind, and the caller must
// refuse to shard.
func NewShardRunner(control *Sim, shards []*Sim, window Seconds, exch Exchanger) (*ShardRunner, error) {
	if window <= 0 || math.IsInf(window, 1) || math.IsNaN(window) {
		return nil, fmt.Errorf("netsim: invalid lookahead window %g", window)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("netsim: shard runner needs at least one shard")
	}
	r := &ShardRunner{control: control, shards: shards, window: window, exch: exch}
	control.SetDriver(r)
	return r, nil
}

// Window returns the lookahead window in virtual seconds.
func (r *ShardRunner) Window() Seconds { return r.window }

// Instrument attaches runner metrics to reg: barrier rounds executed
// (deterministic) and the wall-clock barrier stall distribution (volatile —
// it measures this machine, not the model).
func (r *ShardRunner) Instrument(reg *obs.Registry) {
	r.mRounds = reg.Counter("netsim_shard_rounds_total")
	r.mStall = reg.VolatileHistogram("netsim_shard_barrier_stall_seconds",
		1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1)
}

// Pending reports queued events across the control simulator, all shards,
// and the unmerged mailboxes.
func (r *ShardRunner) Pending() int {
	n := r.control.pendingLocal()
	for _, sh := range r.shards {
		n += sh.pendingLocal()
	}
	return n + r.exch.MailboxPending()
}

// RunUntil advances the whole group to deadline: all events with
// timestamps <= deadline execute, then every clock (shards and control)
// lands exactly on deadline.
func (r *ShardRunner) RunUntil(deadline Seconds) {
	r.runRounds(deadline)
	for _, sh := range r.shards {
		sh.runUntilLocal(deadline)
	}
	r.control.runUntilLocal(deadline)
}

// Run executes the whole group to quiescence. Clocks end at the last
// barrier rather than being pushed to any deadline.
func (r *ShardRunner) Run() {
	r.runRounds(math.Inf(1))
}

// Drain is Run bounded by a virtual-time budget: rounds execute only while
// the earliest pending event lies at or before deadline, and clocks are
// left at the last barrier instead of being advanced to the deadline.
// This is the sharded analogue of the step-until-quiet converge loop.
func (r *ShardRunner) Drain(deadline Seconds) {
	r.runRounds(deadline)
}

// runRounds executes barrier rounds while the earliest pending event in
// the group is at or before limit.
func (r *ShardRunner) runRounds(limit Seconds) {
	var (
		started bool
		wg      sync.WaitGroup
		work    []chan Seconds
	)
	defer func() {
		if started {
			for _, ch := range work {
				close(ch)
			}
		}
	}()

	for {
		r.exch.Merge()

		// Earliest pending event anywhere decides whether another round
		// runs, and where its window starts (idle gaps are skipped).
		next := math.Inf(1)
		tc, okc := r.control.queue.peekAt()
		if okc {
			next = tc
		}
		for _, sh := range r.shards {
			if ts, ok := sh.queue.peekAt(); ok && ts < next {
				next = ts
			}
		}
		if next > limit || math.IsInf(next, 1) {
			// No event at or before the limit — drained, or the rest is the
			// caller's problem. The explicit +Inf check matters when limit is
			// itself +Inf (Run): Inf > Inf is false.
			return
		}

		T := next + r.window
		if okc && tc < T {
			// Never run a window past the next control event: control
			// actions (faults, probes, timeline events) must see every
			// shard parked exactly at their timestamp.
			T = tc
		}
		if T > limit {
			T = limit
		}

		r.busy = r.busy[:0]
		for i, sh := range r.shards {
			if ts, ok := sh.queue.peekAt(); ok && ts <= T {
				r.busy = append(r.busy, i)
			}
		}
		switch {
		case len(r.busy) <= 1:
			// Zero or one shard has work in the window: run inline and
			// skip the goroutine handoff entirely.
			for _, i := range r.busy {
				r.shards[i].runUntilLocal(T)
			}
		default:
			if !started {
				started = true
				work = make([]chan Seconds, len(r.shards))
				for i := range r.shards {
					work[i] = make(chan Seconds)
					go func(sh *Sim, ch chan Seconds) {
						for t := range ch {
							sh.runUntilLocal(t)
							wg.Done()
						}
					}(r.shards[i], work[i])
				}
			}
			wg.Add(len(r.busy))
			for _, i := range r.busy {
				work[i] <- T
			}
			var t0 time.Time
			if r.mStall != nil {
				//lint:ignore cdnlint/detrand the stall histogram is a volatile metric measuring this machine, never the model
				t0 = time.Now()
			}
			wg.Wait()
			if r.mStall != nil {
				//lint:ignore cdnlint/detrand volatile wall-clock metric; excluded from deterministic snapshots
				r.mStall.Observe(time.Since(t0).Seconds())
			}
		}
		// Idle shards still advance to the barrier so all clocks stay in
		// lockstep (their queues have nothing at or before T).
		for _, sh := range r.shards {
			sh.runUntilLocal(T)
		}

		r.exch.Merge()
		r.control.runUntilLocal(T)
		if r.mRounds != nil {
			r.mRounds.Inc()
		}
	}
}
