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

// TestCalendarOrderingMatchesReference drives the calendar queue with a
// randomized schedule — near-bucket events, far-horizon events, exact ties,
// and re-scheduling from inside callbacks — and checks the execution order
// against a straightforward stable sort by (at, seq).
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
			// From inside a callback, occasionally schedule follow-ups both
			// within the calendar window and far beyond it.
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

	// Initial schedule: a mix of sub-bucket times, bucket-boundary times,
	// exact duplicates (ties broken by seq), and far-future events well past
	// the 64 s calendar horizon.
	for i := 0; i < 1500; i++ {
		switch i % 4 {
		case 0:
			schedule(rng.Float64() * 2) // dense near-future
		case 1:
			schedule(Seconds(i%32) * calWidth) // exact bucket boundaries, many ties
		case 2:
			schedule(rng.Float64() * 500) // spans several rebases
		case 3:
			schedule(100 + rng.Float64()*1000) // far heap
		}
	}
	s.Run()
	checkStableOrder(t, want, got)
}

// TestCalendarSameInstantStorm is the schedule a Figure 2 probe campaign
// produces: k tickers that all fire at one identical instant every 1.5 s and
// re-arm themselves, each also scheduling a reply a few ms ahead — into the
// slot being drained — and now and then a timer past the 64 s horizon. One
// slot therefore holds a whole round, heap-ordered while it is being popped
// and pushed into; 150 rounds cross the horizon three times, so far-heap
// migration refills such slots too. Such a slot outgrows its four-key carve:
// it must trade arrays through the spare stack and be back on the carve once
// drained.
func TestCalendarSameInstantStorm(t *testing.T) {
	const (
		k        = 60
		interval = 1.5
		rounds   = 150
	)
	s := New(7)
	var want, got []rec
	// outgrownMax is the most slots off their carve at one moment, sampled
	// after every event's own pushes.
	outgrown := func() (n int) {
		for _, h := range s.queue.near {
			if cap(h) > calSlotCap {
				n++
			}
		}
		return n
	}
	outgrownMax := 0
	schedule := func(at Seconds, then func()) {
		r := rec{at, len(want)}
		want = append(want, r)
		s.At(at, func() {
			got = append(got, r)
			if then != nil {
				then()
			}
			outgrownMax = max(outgrownMax, outgrown()) // pushes are what outgrow a slot
		})
	}
	var tick func(i, round int) func()
	tick = func(i, round int) func() {
		return func() {
			schedule(s.Now()+Seconds(1+i%7)/1000, nil)
			if (i+round)%17 == 0 {
				schedule(s.Now()+calHorizon+Seconds(i), nil)
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
	if s.Now() < 3*calHorizon {
		t.Fatalf("storm ended at %v s, before a third rebase", s.Now())
	}
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

	// Every slot is back on its own window of the carve array, and the
	// arrays the outgrown ones used are on the spare stack — no more of them
	// than slots were outgrown at once, however many rounds ran.
	for i, h := range q.near {
		if len(h) != 0 || cap(h) != calSlotCap || &h[:1][0] != &q.carve[i*calSlotCap] {
			t.Fatalf("slot %d is not back on its carve after the drain (len %d cap %d)", i, len(h), cap(h))
		}
	}
	if outgrownMax < 2 {
		t.Fatalf("at most %d slots outgrew their carve at once; the storm should overflow a tick slot and a reply slot", outgrownMax)
	}
	if len(q.spare) == 0 || len(q.spare) > outgrownMax {
		t.Fatalf("spare stack holds %d arrays after the drain, want 1..%d (slots outgrown at once)", len(q.spare), outgrownMax)
	}
	for i, sp := range q.spare {
		if len(sp) != 0 || cap(sp) <= calSlotCap {
			t.Fatalf("spare[%d] has len %d cap %d; want an empty array larger than a carve", i, len(sp), cap(sp))
		}
	}
}

// BenchmarkQueueSameInstant measures the kernel on that schedule at two
// population sizes. One operation is one event (a tick, which re-arms itself
// and schedules a reply, or the reply), so ns/event flat from 60 to 6000
// tickers is the evidence that popping a slot is not linear in what it
// holds.
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
			s.RunUntil(3) // two rounds: slots and slab are grown
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// TestCalendarRunUntilBoundary checks that RunUntil with a deadline between
// events leaves later events queued, including events in the far heap.
func TestCalendarRunUntilBoundary(t *testing.T) {
	s := New(1)
	fired := map[string]bool{}
	s.At(0.5, func() { fired["a"] = true })
	s.At(63.99, func() { fired["b"] = true }) // last near bucket
	s.At(64.01, func() { fired["c"] = true }) // just past the horizon: far heap
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

// TestCalendarScheduleBeforeBase exercises the clamp path: after a rebase
// triggered by a far-future event, the clock may still trail the calendar
// base, and a callback-free At from model code at now must still order
// correctly against the rebased window.
func TestCalendarScheduleBeforeBase(t *testing.T) {
	s := New(1)
	var order []string
	s.At(200, func() {
		order = append(order, "far")
		// now == 200 == queue base after the rebase; schedule slightly
		// ahead and exactly at now.
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
