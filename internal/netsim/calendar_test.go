package netsim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// rec is one event of an ordering test: ids are handed out in scheduling
// order, so they stand in for seq.
type rec struct {
	at Seconds
	id int
}

// checkStableOrder compares an execution trace with the reference order: a
// stable sort of the scheduling trace by time. Equal times keep scheduling
// order, which is exactly the (at, seq) tie-break.
func checkStableOrder(t *testing.T, want, got []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("executed %d events, scheduled %d", len(got), len(want))
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got {at=%v id=%d}, want {at=%v id=%d}",
				i, got[i].at, got[i].id, want[i].at, want[i].id)
		}
	}
}

// TestCalendarOrderingMatchesReference drives the event queue with a
// randomized schedule — dense near-future events, events hundreds of seconds
// out, exact ties, and re-scheduling from inside callbacks — and checks the
// execution order against a straightforward stable sort by (at, seq).
func TestCalendarOrderingMatchesReference(t *testing.T) {
	s := New(7)
	rng := rand.New(rand.NewSource(99))

	var want []rec
	var got []rec
	nextID := 0

	schedule := func(at Seconds) {
		id := nextID
		nextID++
		want = append(want, rec{at, id})
		s.At(at, func() {
			got = append(got, rec{at, id})
			// From inside a callback, occasionally schedule follow-ups a few
			// seconds ahead of the clock.
			if id%5 == 0 && nextID < 3000 {
				d := rng.Float64() * 10
				fid := nextID
				nextID++
				fat := s.Now() + d
				want = append(want, rec{fat, fid})
				s.At(fat, func() { got = append(got, rec{fat, fid}) })
			}
		})
	}

	// Initial schedule: a mix of dense near-future times, a few repeated
	// exact times (ties broken by seq), and times spread over hundreds of
	// seconds.
	for i := 0; i < 1500; i++ {
		switch i % 4 {
		case 0:
			schedule(rng.Float64() * 2) // dense near-future
		case 1:
			schedule(Seconds(i%32) / 16) // 32 exact times, many ties
		case 2:
			schedule(rng.Float64() * 500)
		case 3:
			schedule(100 + rng.Float64()*1000)
		}
	}
	s.Run()
	checkStableOrder(t, want, got)
}

// TestCalendarSameInstantStorm is the schedule a probe campaign once put on
// the queue: k tickers that all fire at one identical instant every 1.5 s and
// re-arm themselves, each also scheduling a reply a few ms ahead, and now and
// then a timer 64 s or more out. The heap is popped and pushed into while
// a whole round shares one timestamp.
func TestCalendarSameInstantStorm(t *testing.T) {
	const (
		k        = 60
		interval = 1.5
		rounds   = 150
	)
	s := New(7)
	var want, got []rec
	schedule := func(at Seconds, then func()) {
		r := rec{at, len(want)}
		want = append(want, r)
		s.At(at, func() {
			got = append(got, r)
			if then != nil {
				then()
			}
		})
	}
	var tick func(i, round int) func()
	tick = func(i, round int) func() {
		return func() {
			schedule(s.Now()+Seconds(1+i%7)/1000, nil)
			if (i+round)%17 == 0 {
				schedule(s.Now()+64+Seconds(i), nil)
			}
			if round+1 < rounds {
				schedule(s.Now()+interval, tick(i, round+1))
			}
		}
	}
	for i := 0; i < k; i++ {
		schedule(0, tick(i, 0))
	}
	s.Run()
	checkStableOrder(t, want, got)

	// Drained: every slab entry is back on the free list and cleared, so no
	// popped callback (a stopped timer's closure, say) stays reachable.
	q := &s.queue
	if len(q.free) != len(q.slab) {
		t.Fatalf("free list holds %d of %d slab entries after the drain", len(q.free), len(q.slab))
	}
	for i, cb := range q.slab {
		if cb.fn != nil || cb.afn != nil || cb.arg != nil {
			t.Fatalf("slab[%d] still holds its callback after the drain", i)
		}
	}
}

// BenchmarkQueueSameInstant measures the kernel on that schedule at two
// population sizes. One operation is one event (a tick, which re-arms itself
// and schedules a reply, or the reply); from 60 to 6000 tickers the heap is
// about seven levels deeper, which is what ns/event should grow by.
func BenchmarkQueueSameInstant(b *testing.B) {
	for _, n := range []int{60, 6000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			s := New(1)
			reply := func() {}
			var tick func()
			tick = func() {
				s.After(0.003, reply)
				s.After(1.5, tick)
			}
			for i := 0; i < n; i++ {
				s.At(0, tick)
			}
			s.RunUntil(3) // two rounds: heap and slab are grown
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// TestCalendarRunUntilBoundary checks that RunUntil with a deadline between
// events leaves later events queued, including ones just past the deadline.
func TestCalendarRunUntilBoundary(t *testing.T) {
	s := New(1)
	fired := map[string]bool{}
	s.At(0.5, func() { fired["a"] = true })
	s.At(63.99, func() { fired["b"] = true }) // exactly at the deadline
	s.At(64.01, func() { fired["c"] = true }) // just past it
	s.At(500, func() { fired["d"] = true })

	s.RunUntil(63.99)
	if !fired["a"] || !fired["b"] || fired["c"] || fired["d"] {
		t.Fatalf("after RunUntil(63.99): %v", fired)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if !fired["c"] || !fired["d"] {
		t.Fatalf("after Run: %v", fired)
	}
	if s.Now() != 500 {
		t.Fatalf("now = %v, want 500", s.Now())
	}
}

// TestCalendarScheduleBeforeBase checks a same-instant At from inside a
// callback after a long idle jump: the clock leaps from 0 to 200 s in one
// pop, and an event scheduled at now must still run before one scheduled
// later, and after the callback that scheduled it.
func TestCalendarScheduleBeforeBase(t *testing.T) {
	s := New(1)
	var order []string
	s.At(200, func() {
		order = append(order, "far")
		// now == 200; schedule exactly at now and slightly ahead.
		s.At(200, func() { order = append(order, "tie") })
		s.At(200.5, func() { order = append(order, "next") })
	})
	s.Run()
	want := []string{"far", "tie", "next"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAtCallOrdering checks that AtCall events interleave with At events in
// strict (at, seq) order and deliver their argument.
func TestAtCallOrdering(t *testing.T) {
	s := New(1)
	var order []int
	push := func(arg any) { order = append(order, arg.(int)) }
	s.AtCall(1, push, 1)
	s.At(1, func() { order = append(order, 2) })
	s.AtCall(1, push, 3)
	s.AtCall(0.5, push, 0)
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestTimerStopReleasesCallback pins the Timer.Stop fix: stopping a timer
// must drop the callback reference immediately instead of holding it until
// the original deadline.
func TestTimerStopReleasesCallback(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.AfterTimer(1000, func() { fired = true })
	s.RunUntil(1)
	tm.Stop()
	if tm.fn != nil {
		t.Fatal("Stop did not release the callback reference")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if s.Now() != 1000 {
		t.Fatalf("wrapper event should still advance the clock; now = %v", s.Now())
	}
}

// TestTimerFires checks the positive path after the Stop rework.
func TestTimerFires(t *testing.T) {
	s := New(1)
	fired := false
	s.AfterTimer(5, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
}
