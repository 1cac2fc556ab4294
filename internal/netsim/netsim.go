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

// callback is what an event runs: either a plain closure (fn) or a shared
// function plus argument (afn, arg); the latter lets hot model paths recycle
// their payload structs through free-lists instead of allocating a fresh
// closure per event (see Sim.AtCall).
type callback struct {
	fn  func()
	afn func(any)
	arg any
}

func (c *callback) run() {
	if c.afn != nil {
		c.afn(c.arg)
		return
	}
	c.fn()
}

// Calendar-queue geometry. Near-future events dominate the schedule (MRAI
// pacing, TCP-ordering nudges, probe ticks), so the queue keeps a calendar of
// fixed-width buckets covering calHorizon seconds ahead of the most recent
// rebase and spills everything further out into one overflow heap. The
// bucket width is a power of two so the slot computation is an exact,
// monotone float scaling: a <= b always lands a in a bucket no later than b,
// which is what keeps execution order identical to a single global heap.
const (
	calSlots    = 1024
	calInvWidth = 16.0                         // buckets per second
	calWidth    = 1.0 / calInvWidth            // seconds per bucket
	calHorizon  = Seconds(calSlots) * calWidth // 64 s
	calSlotCap  = 4                            // pre-carved capacity per slot
	farHeapCap  = 64                           // pre-allocated overflow heap and callback slab
	spareCap    = 8                            // pre-allocated depth of the spare-array stack
)

// eventQueue is a two-level calendar queue ordered by (at, seq).
//
// Level one ("near") is a flat array of calSlots buckets; slot i holds
// events with at in [base + i*calWidth, base + (i+1)*calWidth), where base
// is the time of the last rebase. cur is the first slot that may still hold
// events; it only moves forward between rebases, so the array never wraps.
// Level two ("far") holds everything at or beyond limit = base + calHorizon.
//
// Invariant: every near event is earlier than every far event (near events
// are < limit, far events >= limit, and limit only changes on a rebase,
// which happens when near is empty). pop therefore drains near completely
// before consulting far.
//
// Every slot, and far, is a binary min-heap under the exact (at, seq)
// comparator — a strict total order, so the execution order is bit-identical
// to one global heap's. A slot is not small: a probe campaign ticks its
// whole population at one instant, so all of a round's events share one
// slot, and finding each minimum by scanning the slot was quadratic in the
// population. What the heaps order is not the events but 24-byte
// pointer-free keys; the callbacks sit still in slab, a free-listed side
// array each key indexes by ref. That split is the design, not a refinement:
// heaps of the 48-byte pointerful events themselves were measured and lost
// (a Figure 2 matrix ran ≈ 9 % slower and allocated 10 % more), because
// every sift move and every slot growth then pays the garbage collector's
// write barrier, while keys move as plain memory the collector never scans.
//
// A slot starts on its own four-key window of one shared carve array. One
// that outgrows the window (a probe round puts a whole population into one
// slot, every 1.5 s into a different one) moves to a heap-allocated array;
// when it drains empty it goes back to its window and the array goes onto the
// spare stack, where the next slot to fill up finds it instead of regrowing
// from four keys by doubling. Only outgrown slots trade arrays: recycling
// every drained slot's array was measured and lost, because the big arrays
// scatter over one-event slots and the tick slot regrows anyway.
type eventQueue struct {
	near  []keyHeap  //cdnlint:nosnapshot snapshots require an empty queue; pending events hold closures over model state
	carve []eventKey //cdnlint:nosnapshot the slots' shared initial storage; holds no keys while the queue is empty
	spare []keyHeap  //cdnlint:nosnapshot empty arrays awaiting reuse; capacity only, never read
	cur   int        //cdnlint:nosnapshot calendar position; meaningless while the queue is empty
	base  Seconds    //cdnlint:nosnapshot any value is valid: late pushes spill to far and settle rebases
	limit Seconds    //cdnlint:nosnapshot any value is valid: late pushes spill to far and settle rebases
	slab  []callback //cdnlint:nosnapshot callbacks of pending events; all cleared while the queue is empty
	free  []int32    //cdnlint:nosnapshot recycling order of slab indices; refs never influence execution order
	nearN int
	far   keyHeap
}

func newEventQueue() eventQueue {
	// One backing array, re-sliced per slot: slots keep their carved
	// capacity across rebases, so the steady-state event path never
	// allocates (pinned by TestEventPathZeroAllocs).
	q := eventQueue{
		near:  make([]keyHeap, calSlots),
		carve: make([]eventKey, calSlots*calSlotCap),
		spare: make([]keyHeap, 0, spareCap),
		base:  0,
		limit: calHorizon,
		slab:  make([]callback, 0, farHeapCap),
		free:  make([]int32, 0, farHeapCap),
		far:   make(keyHeap, 0, farHeapCap),
	}
	for i := range q.near {
		q.near[i] = q.carved(i)
	}
	return q
}

// carved returns slot i's empty window of the carve array.
func (q *eventQueue) carved(i int) keyHeap {
	return q.carve[i*calSlotCap : i*calSlotCap : (i+1)*calSlotCap]
}

func (q *eventQueue) len() int { return q.nearN + len(q.far) }

func (q *eventQueue) push(e event) {
	k := eventKey{at: e.at, seq: e.seq}
	if n := len(q.free); n > 0 {
		k.ref = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[k.ref] = e.callback
	} else {
		k.ref = int32(len(q.slab))
		q.slab = append(q.slab, e.callback)
	}
	if k.at >= q.limit {
		q.far.push(k)
		return
	}
	q.place(k)
}

// place files a key that belongs below limit into its calendar slot.
func (q *eventQueue) place(k eventKey) {
	idx := int((k.at - q.base) * calInvWidth)
	// Clamp defensively: at can sit below base right after a peek-driven
	// rebase (the clock has not caught up yet), and boundary rounding can
	// land exactly on calSlots. Clamping only ever moves an event to an
	// earlier slot, where the slot's exact ordering still puts it right.
	if idx < q.cur {
		idx = q.cur
	}
	if idx >= calSlots {
		idx = calSlots - 1
	}
	h := &q.near[idx]
	if len(*h) == cap(*h) {
		// Full: move onto a spare array that has room, if there is one.
		// Spares too small for this slot are dropped on the way, so the
		// arrays in circulation never outnumber the slots outgrown at once;
		// with no spare left, push's append grows the slot as usual.
		for n := len(q.spare); n > 0; n = len(q.spare) {
			s := q.spare[n-1]
			q.spare[n-1] = nil
			q.spare = q.spare[:n-1]
			if cap(s) > len(*h) {
				*h = append(s, *h...)
				break
			}
		}
	}
	h.push(k)
	q.nearN++
}

// settle advances cur to the first non-empty slot, rebasing the calendar
// from the overflow heap when the near level is exhausted. Returns false if
// the queue is empty.
func (q *eventQueue) settle() bool {
	if q.nearN == 0 {
		if len(q.far) == 0 {
			return false
		}
		// Rebase: restart the calendar window at the earliest far event and
		// migrate everything inside the new window down into the buckets.
		q.cur = 0
		q.base = q.far[0].at
		q.limit = q.base + calHorizon
		for len(q.far) > 0 && q.far[0].at < q.limit {
			q.place(q.far.pop())
		}
		return true
	}
	for len(q.near[q.cur]) == 0 {
		q.cur++
	}
	return true
}

// peekAt returns the timestamp of the earliest pending event.
func (q *eventQueue) peekAt() (Seconds, bool) {
	if !q.settle() {
		return 0, false
	}
	return q.near[q.cur][0].at, true
}

func (q *eventQueue) pop() event {
	q.settle()
	h := &q.near[q.cur]
	k := h.pop()
	q.nearN--
	if len(*h) == 0 && cap(*h) > calSlotCap {
		q.spare = append(q.spare, *h)
		*h = q.carved(q.cur)
	}
	e := event{at: k.at, seq: k.seq, callback: q.slab[k.ref]}
	q.slab[k.ref] = callback{} // release the callback for GC
	q.free = append(q.free, k.ref)
	return e
}

// eventKey is an event as the heaps see it: its position in the total order
// plus the slab index of its callback. It holds no pointers.
type eventKey struct {
	at  Seconds
	seq uint64
	ref int32
}

func (k eventKey) before(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// keyHeap is a binary min-heap of event keys ordered by (at, seq). Both
// directions sift a hole rather than swapping: one key moves per level.
type keyHeap []eventKey

func (h *keyHeap) push(k eventKey) {
	q := append(*h, k)
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
	// multi-simulator group: Run, RunUntil, and Pending delegate to it so
	// existing call sites drive the whole group transparently (see
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
	s.schedule(event{at: at, callback: callback{fn: fn}})
}

// AtCall schedules fn(arg) at absolute virtual time at. Unlike At, the
// callback and its payload are stored separately, so model code that fires
// the same function with recycled argument structs (free-listed message
// deliveries, pending-export timers) schedules without allocating a closure.
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
// RunUntil, and Pending delegate to the driver, which is expected to advance
// this simulator as part of its group. Step stays local: drivers use it (via
// the unexported locals) to advance members without recursing.
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
	e.run()
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
	for {
		at, ok := s.queue.peekAt()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
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
