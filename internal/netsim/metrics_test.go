package netsim

import (
	"runtime"
	"testing"
	"unsafe"

	"bestofboth/internal/obs"
)

// TestEventPathZeroAllocs pins the tentpole cost contract: with no registry
// attached, scheduling and executing an event allocates nothing, and with a
// registry attached the metric updates themselves are allocation-free too.
func TestEventPathZeroAllocs(t *testing.T) {
	run := func(t *testing.T, sim *Sim) {
		t.Helper()
		fn := func() {}
		// Warm once so the event queue's backing array is grown.
		sim.After(1, fn)
		sim.Step()
		allocs := testing.AllocsPerRun(1000, func() {
			sim.After(1, fn)
			sim.Step()
		})
		if allocs != 0 {
			t.Fatalf("event path allocated %v times per schedule+step", allocs)
		}
	}
	t.Run("disabled", func(t *testing.T) { run(t, New(1)) })
	t.Run("instrumented", func(t *testing.T) {
		sim := New(1)
		sim.Instrument(obs.NewRegistry())
		run(t, sim)
	})
}

// TestQueueGrowthAllocBudget pins the queue's growth rules: pushing n events
// into a fresh simulator allocates at most 1.8× the bytes the n queued keys
// and callbacks occupy. n is the peak queue depth of a paper-scale cold
// converge at seed 1. A doubling heap beside a paged slab allocates 1.70×
// here; doubling both arrays allocates 2.27×, and append's 1.25× growth
// 4.85×.
func TestQueueGrowthAllocBudget(t *testing.T) {
	const n = 57685
	perEvent := unsafe.Sizeof(eventKey{}) + unsafe.Sizeof(callback{})
	s := New(1)
	fn := func(any) {}
	arg := &struct{}{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.AtCall(Seconds(i%1000), fn, arg)
	}
	runtime.ReadMemStats(&after)
	if s.Pending() != n {
		t.Fatalf("pending = %d, want %d", s.Pending(), n)
	}
	got := float64(after.TotalAlloc - before.TotalAlloc)
	if budget := 1.8 * n * float64(perEvent); got > budget {
		t.Fatalf("%d pushes allocated %.0f B = %.2f× the %d B per queued event, budget 1.8×",
			n, got, got/(n*float64(perEvent)), perEvent)
	}
}

func TestInstrumentCountsKernelActivity(t *testing.T) {
	r := obs.NewRegistry()
	sim := New(7)
	sim.Instrument(r)

	const n = 5
	for i := 0; i < n; i++ {
		sim.After(float64(i+1), func() {})
	}
	sim.Run()

	if got := r.Counter("netsim_events_scheduled_total").Value(); got != n {
		t.Fatalf("scheduled = %d, want %d", got, n)
	}
	if got := r.Counter("netsim_events_executed_total").Value(); got != n {
		t.Fatalf("executed = %d, want %d", got, n)
	}
	if got := r.Gauge("netsim_queue_depth_max").Value(); got != n {
		t.Fatalf("queue depth max = %v, want %d", got, n)
	}
	if got := r.Gauge("netsim_virtual_time_max_seconds").Value(); got != n {
		t.Fatalf("virtual time max = %v, want %d", got, n)
	}
	if got := r.Histogram("netsim_event_horizon_seconds").Count(); got != n {
		t.Fatalf("horizon observations = %d, want %d", got, n)
	}
}

// TestInstrumentDoesNotPerturbExecution pins bit-identity: the same schedule
// with and without metrics produces the same clock, step count, and RNG
// stream.
func TestInstrumentDoesNotPerturbExecution(t *testing.T) {
	trace := func(instrument bool) (float64, uint64, float64) {
		sim := New(99)
		if instrument {
			sim.Instrument(obs.NewRegistry())
		}
		for i := 0; i < 50; i++ {
			sim.After(sim.Jitter(0.1, 2), func() {
				sim.After(sim.Jitter(0, 1), func() {})
			})
		}
		sim.Run()
		return sim.Now(), sim.Steps(), sim.Rand().Float64()
	}
	aNow, aSteps, aDraw := trace(false)
	bNow, bSteps, bDraw := trace(true)
	if aNow != bNow || aSteps != bSteps || aDraw != bDraw {
		t.Fatalf("instrumented run diverged: (%v,%d,%v) vs (%v,%d,%v)",
			aNow, aSteps, aDraw, bNow, bSteps, bDraw)
	}
}
