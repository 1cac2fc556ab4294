// Package netsim provides a deterministic discrete-event simulation kernel.
//
// All higher layers of the simulator (BGP message propagation, MRAI timers,
// data-plane probing, DNS resolution) are expressed as timestamped events on
// a single virtual clock. Determinism is guaranteed by (a) a seeded random
// number source and (b) a strict total order on events: time first, then a
// monotonically increasing sequence number so that events scheduled earlier
// fire earlier when timestamps tie.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"bestofboth/internal/obs"
)

// Seconds is the unit of virtual time used throughout the simulator.
type Seconds = float64

// event is a scheduled callback on the simulator's virtual clock, ordered by
// (at, seq).
type event struct {
	at  Seconds
	seq uint64
	callback
}

// callback is what an event runs: a shared function plus its argument. Hot
// model paths schedule one package-level function with recycled payload
// structs (see Sim.AtCall), so they allocate no closure per event; At
// schedules a plain closure as the argument of the callFunc trampoline. A
// func value is pointer-shaped and converts to any without allocating.
type callback struct {
	afn func(any)
	arg any
}

// callFunc is the callback At schedules: arg is the closure itself.
func callFunc(arg any) { arg.(func())() }

// queueCap is the pre-allocated capacity of the heap and the free list, and
// the size of the slab's first page.
const queueCap = 64

// appendDoubling appends v to s and, when s is full, first moves it to an
// array of twice the capacity. It is the growth rule of the key heap and
// the free list. append's own rule grows a large slice by about 1.25×, so
// an array that reaches n elements has allocated about 5n along the way;
// doubling allocates at most 4n and, for n just under a power of two, 2n.
//
//cdnlint:allocfree the copy runs once per doubling, never in steady state
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		g := make([]T, len(s), max(2*cap(s), queueCap))
		copy(g, s)
		s = g
	}
	return append(s, v)
}

// eventQueue is one binary min-heap ordered by (at, seq) — a strict total
// order, so the execution order is the one a stable sort of the schedule by
// time would give.
//
// What the heap orders is not the events but 16-byte pointer-free keys; the
// callbacks sit still in slab, a free-listed side store each key indexes by
// ref. That split is the design, not a refinement: heaps of the 48-byte
// pointerful events themselves were measured and lost (a Figure 2 matrix ran
// ≈ 9 % slower and allocated 10 % more), because every sift move and every
// growth then pays the garbage collector's write barrier, while keys move as
// plain memory the collector never scans. A key packs seq and ref into one
// word (eventKey), which bounds a simulator to 2^40 scheduled events and
// 2^24 pending ones.
//
// One heap, not a calendar of per-slot heaps: since probing schedules
// nothing, no workload puts a population on the queue at one instant, and
// one heap measured no slower on the benchmark's workloads and allocated
// ≈ 3 % less; its cost at internet-scale depths is in EXPERIMENTS.md
// "One heap".
type eventQueue struct {
	heap keyHeap      //cdnlint:nosnapshot snapshots require an empty queue; pending events hold closures over model state
	slab callbackSlab //cdnlint:nosnapshot callbacks of pending events; all cleared while the queue is empty
	free []int32      //cdnlint:nosnapshot recycling order of slab indices; refs never influence execution order
}

func newEventQueue() eventQueue {
	// The heap and the free list grow by doubling (appendDoubling), the slab
	// by pages; all keep their capacity once grown, so the steady-state event
	// path never allocates (pinned by TestEventPathZeroAllocs).
	return eventQueue{
		heap: make(keyHeap, 0, queueCap),
		slab: callbackSlab{pages: [][]callback{make([]callback, queueCap)}},
		free: make([]int32, 0, queueCap),
	}
}

func (q *eventQueue) len() int { return len(q.heap) }

func (q *eventQueue) push(e event) {
	var ref int32
	if n := len(q.free); n > 0 {
		ref = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		ref = q.slab.grow()
	}
	*q.slab.at(ref) = e.callback
	q.heap.push(eventKey{at: e.at, order: e.seq<<refBits | uint64(ref)})
}

// peekAt returns the timestamp of the earliest pending event.
func (q *eventQueue) peekAt() (Seconds, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

func (q *eventQueue) pop() event {
	k := q.heap.pop()
	ref := k.ref()
	cb := q.slab.at(ref)
	e := event{at: k.at, seq: k.order >> refBits, callback: *cb}
	*cb = callback{} // release the callback for GC
	q.free = appendDoubling(q.free, ref)
	return e
}

// callbackSlab stores callbacks by ref in pages that are never copied or
// freed: page c holds queueCap<<c callbacks, so the refs of page c start at
// queueCap·(2^c − 1) and one bit length maps a ref to its page. A doubling
// array would copy every callback at each growth and leave the old arrays
// behind; pages allocate each slot once. The key heap still doubles: every
// sift level indexes it, where the slab is touched once per push and once
// per pop (DESIGN.md §3b).
type callbackSlab struct {
	pages [][]callback
	n     int32 // refs handed out so far; every ref below n has a slot
}

// pageOf maps ref to its page and the offset within it.
func pageOf(ref int32) (page, off int) {
	v := uint32(ref) + queueCap
	page = bits.Len32(v) - bits.Len32(queueCap)
	return page, int(v - queueCap<<page)
}

func (s *callbackSlab) at(ref int32) *callback {
	page, off := pageOf(ref)
	return &s.pages[page][off]
}

// grow hands out the next unused ref, adding the page it lies on when it is
// the first of one. It panics, before adding anything, when every ref a key
// can hold is taken.
//
//cdnlint:allocfree a page is added once per doubling of the slab, never in steady state
func (s *callbackSlab) grow() int32 {
	ref := s.n
	if ref == maxRefs {
		panic(refOverflow)
	}
	s.n++
	if page, _ := pageOf(ref); page == len(s.pages) {
		s.pages = append(s.pages, make([]callback, queueCap<<page))
	}
	return ref
}

// eventKey is an event as the heap sees it: its position in the total order
// plus the slab index of its callback, in 16 bytes and no pointers. order
// packs seq into its high 40 bits and the ref into its low refBits; seqs are
// unique within a simulator, so comparing order words compares seqs.
type eventKey struct {
	at    Seconds
	order uint64 // seq<<refBits | ref
}

// The split of eventKey.order. A paper-scale cold converge peaks at 57,685
// pending events and the internet-scale one at 1.02 M, 16× under maxRefs;
// maxSeq is about 10^12 events on one simulator's clock.
const (
	refBits = 24
	maxRefs = 1 << refBits
	maxSeq  = 1<<(64-refBits) - 1
)

// The panics that guard the packing: schedule and the slab refuse to hand
// out a seq or a ref that would not fit.
const (
	seqOverflow = "netsim: event sequence overflow: a simulator schedules at most 2^40 events"
	refOverflow = "netsim: pending event overflow: at most 2^24 events may be queued at once"
)

func (k eventKey) ref() int32 { return int32(k.order & (maxRefs - 1)) }

func (k eventKey) before(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.order < o.order)
}

// keyHeap is a binary min-heap of event keys ordered by (at, seq). Both
// directions sift a hole rather than swapping: one key moves per level.
type keyHeap []eventKey

func (h *keyHeap) push(k eventKey) {
	q := appendDoubling(*h, k)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
}

func (h *keyHeap) pop() eventKey {
	q := *h
	top := q[0]
	n := len(q) - 1
	k := q[n] // refills the hole the root leaves, wherever that sinks to
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(k) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = k
	return top
}

// countingSource wraps the stdlib random source and counts draws, so that a
// simulator's RNG state can be reproduced exactly by fast-forwarding a fresh
// source seeded identically (see Snapshot/Restore). It delegates without
// altering the draw sequence.
type countingSource struct {
	src   rand.Source64 //cdnlint:nosnapshot reconstructed by reseeding and fast-forwarding draws on restore
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// Sim is a discrete-event simulator with a virtual clock.
//
// Sim is not safe for concurrent use: the simulation model is single
// threaded by design so that runs are reproducible bit-for-bit. Distinct Sim
// instances are fully independent and may run on concurrent goroutines.
type Sim struct {
	seed   int64 //cdnlint:nosnapshot immutable: Restore targets a simulator built with the same seed
	now    Seconds
	seq    uint64
	queue  eventQueue
	src    *countingSource
	rng    *rand.Rand //cdnlint:nosnapshot view over src, which restore reseeds and fast-forwards
	nSteps uint64

	// driver, when non-nil, coordinates this simulator as the facade of a
	// multi-simulator group: Run, RunUntil, Drain and Pending delegate to it
	// so existing call sites drive the whole group transparently (see
	// ShardRunner).
	driver Driver //cdnlint:nosnapshot wiring: drivers are re-attached when the world is rebuilt

	// Metrics are nil until Instrument attaches a registry; all of the
	// methods below no-op on nil receivers, so the uninstrumented event
	// path stays allocation-free (pinned by TestEventPathZeroAllocs).
	mSteps     *obs.Counter
	mScheduled *obs.Counter
	mQueueMax  *obs.Gauge
	mClockMax  *obs.Gauge
	mHorizon   *obs.Histogram
}

// New returns a simulator whose random source is seeded with seed.
// Two simulators built with the same seed and fed the same schedule of
// events produce identical executions.
func New(seed int64) *Sim {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Sim{seed: seed, src: src, rng: rand.New(src), queue: newEventQueue()}
}

// Seed returns the seed the simulator was built with. Model code that needs
// randomness which must not perturb (or be perturbed by) the shared stream —
// an observer such as the data-plane prober — derives it from the seed
// through a stateless mixer instead of drawing from Rand.
func (s *Sim) Seed() int64 { return s.seed }

// Instrument attaches kernel metrics to r: events scheduled and executed,
// the high-water queue depth, the furthest virtual clock reached, and the
// scheduling-horizon distribution (how far ahead of now events are placed).
// Instrumentation never changes execution — it draws no randomness and
// schedules nothing — so instrumented and bare runs are bit-identical.
// A nil registry detaches.
func (s *Sim) Instrument(r *obs.Registry) {
	s.mSteps = r.Counter("netsim_events_executed_total")
	s.mScheduled = r.Counter("netsim_events_scheduled_total")
	s.mQueueMax = r.Gauge("netsim_queue_depth_max")
	s.mClockMax = r.Gauge("netsim_virtual_time_max_seconds")
	s.mHorizon = r.Histogram("netsim_event_horizon_seconds",
		0.001, 0.01, 0.1, 1, 10, 60, 600, 3600)
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() Seconds { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() uint64 { return s.nSteps }

// Rand exposes the simulator's deterministic random source. Model code must
// draw all randomness from this source to preserve reproducibility.
func (s *Sim) Rand() *rand.Rand { return s.rng }

//cdnlint:allocfree
func (s *Sim) schedule(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %.6f before now %.6f", e.at, s.now))
	}
	if math.IsNaN(e.at) || math.IsInf(e.at, 0) {
		panic(fmt.Sprintf("netsim: invalid event time %v", e.at))
	}
	if s.seq == maxSeq {
		panic(seqOverflow)
	}
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
	// All metric fields are set together by Instrument, so one nil check
	// gates the whole group; Observe and SetMax do not inline, and the
	// disabled path must not pay their call overhead.
	if s.mScheduled != nil {
		s.mScheduled.Inc()
		s.mHorizon.Observe(e.at - s.now)
		s.mQueueMax.SetMax(float64(s.queue.len()))
	}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a model bug and silently reordering events
// would destroy determinism.
func (s *Sim) At(at Seconds, fn func()) {
	s.schedule(event{at: at, callback: callback{afn: callFunc, arg: fn}})
}

// AtCall schedules fn(arg) at absolute virtual time at. The function and
// its payload are stored separately, so model code that fires the same
// function with recycled argument structs (free-listed message deliveries,
// pending-export timers) schedules without allocating a closure.
//
//cdnlint:allocfree
func (s *Sim) AtCall(at Seconds, fn func(any), arg any) {
	s.schedule(event{at: at, callback: callback{afn: fn, arg: arg}})
}

// After schedules fn to run d seconds from the current virtual time.
func (s *Sim) After(d Seconds, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Jitter returns a uniformly distributed delay in [lo, hi). It is a
// convenience for model code that randomizes processing and propagation
// times.
func (s *Sim) Jitter(lo, hi Seconds) Seconds {
	if hi <= lo {
		return lo
	}
	return lo + s.rng.Float64()*(hi-lo)
}

// SetDriver attaches (or, with nil, detaches) a Driver. While attached, Run,
// RunUntil, Drain and Pending delegate to the driver, which is expected to
// advance this simulator as part of its group. Step stays local: drivers use
// it (via the unexported locals) to advance members without recursing.
func (s *Sim) SetDriver(d Driver) { s.driver = d }

// Pending reports the number of events waiting to run. With a driver
// attached it reports the whole group's pending work.
func (s *Sim) Pending() int {
	if s.driver != nil {
		return s.driver.Pending()
	}
	return s.queue.len()
}

// pendingLocal reports only this simulator's queued events, ignoring any
// attached driver.
func (s *Sim) pendingLocal() int { return s.queue.len() }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
//
//cdnlint:allocfree
func (s *Sim) Step() bool {
	if s.queue.len() == 0 {
		return false
	}
	e := s.queue.pop()
	s.now = e.at
	s.nSteps++
	if s.mSteps != nil {
		s.mSteps.Inc()
		s.mClockMax.SetMax(e.at)
	}
	e.afn(e.arg)
	return true
}

// Run executes events until the queue is empty. With a driver attached it
// runs the whole group to completion.
func (s *Sim) Run() {
	if s.driver != nil {
		s.driver.Run()
		return
	}
	s.runLocal()
}

func (s *Sim) runLocal() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to deadline. Events scheduled after deadline remain queued. With a
// driver attached it advances the whole group to deadline.
func (s *Sim) RunUntil(deadline Seconds) {
	if s.driver != nil {
		s.driver.RunUntil(deadline)
		return
	}
	s.runUntilLocal(deadline)
}

func (s *Sim) runUntilLocal(deadline Seconds) {
	s.drainLocal(deadline)
	if s.now < deadline {
		s.now = deadline
	}
}

// Drain executes events with timestamps <= deadline, as RunUntil does, but
// leaves the clock at the last event it executed instead of advancing it to
// deadline: a budgeted drain that never runs an event past its budget. With
// a driver attached it drains the whole group (see Driver.Drain).
func (s *Sim) Drain(deadline Seconds) {
	if s.driver != nil {
		s.driver.Drain(deadline)
		return
	}
	s.drainLocal(deadline)
}

func (s *Sim) drainLocal(deadline Seconds) {
	for {
		at, ok := s.queue.peekAt()
		if !ok || at > deadline {
			return
		}
		s.Step()
	}
}

// RunFor executes events for d seconds of virtual time from now.
func (s *Sim) RunFor(d Seconds) { s.RunUntil(s.now + d) }

// Snapshot captures the kernel state of a quiescent simulator: the clock,
// the event sequence counter, and the RNG position. Snapshots are only
// possible when the event queue is empty — pending events hold closures over
// model state that cannot be transplanted — which is exactly the state a
// fully converged network leaves behind.
type Snapshot struct {
	Now   Seconds
	seq   uint64
	steps uint64
	draws uint64
}

// Snapshot captures the current kernel state. It fails if events are
// pending.
func (s *Sim) Snapshot() (Snapshot, error) {
	if s.queue.len() != 0 {
		return Snapshot{}, fmt.Errorf("netsim: cannot snapshot with %d pending events", s.queue.len())
	}
	return Snapshot{Now: s.now, seq: s.seq, steps: s.nSteps, draws: s.src.draws}, nil
}

// Restore brings a simulator to a previously captured kernel state. The
// receiver must be freshly built with the same seed as the snapshotted
// simulator and must not have consumed more randomness than the snapshot
// recorded: the RNG is fast-forwarded, never rewound. After Restore the
// simulator produces the exact event timings and random draws the
// snapshotted one would.
func (s *Sim) Restore(snap Snapshot) error {
	if s.queue.len() != 0 {
		return fmt.Errorf("netsim: cannot restore with %d pending events", s.queue.len())
	}
	if s.src.draws > snap.draws {
		return fmt.Errorf("netsim: restore target has consumed %d draws, snapshot has %d", s.src.draws, snap.draws)
	}
	for s.src.draws < snap.draws {
		s.src.src.Int63()
		s.src.draws++
	}
	s.now = snap.Now
	s.seq = snap.seq
	s.nSteps = snap.steps
	return nil
}

// Timer is a cancellable scheduled event.
type Timer struct {
	fn func()
}

// AfterTimer schedules fn after d seconds and returns a handle that can stop
// it. A stopped timer's callback never runs.
func (s *Sim) AfterTimer(d Seconds, fn func()) *Timer {
	t := &Timer{fn: fn}
	s.After(d, t.fire)
	return t
}

func (t *Timer) fire() {
	if t.fn != nil {
		t.fn()
	}
}

// Stop prevents the timer's callback from running if it has not fired yet.
// The callback reference is dropped immediately, so whatever model state the
// closure captured becomes collectable at stop time rather than being pinned
// until the timer's original deadline.
func (t *Timer) Stop() { t.fn = nil }
