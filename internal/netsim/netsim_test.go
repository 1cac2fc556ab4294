package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events ran out of schedule order: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New(1)
	var at Seconds
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("nested After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New(1)
	ran := map[int]bool{}
	s.At(1, func() { ran[1] = true })
	s.At(2, func() { ran[2] = true })
	s.At(3, func() { ran[3] = true })
	s.RunUntil(2)
	if !ran[1] || !ran[2] || ran[3] {
		t.Fatalf("RunUntil(2) ran wrong set: %v", ran)
	}
	if s.Now() != 2 {
		t.Fatalf("Now() = %v, want 2", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.Run()
	if !ran[3] {
		t.Fatal("event after deadline lost")
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	s := New(1)
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.AfterTimer(5, func() { fired = true })
	s.At(1, func() { tm.Stop() })
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerFiresWhenNotStopped(t *testing.T) {
	s := New(1)
	fired := false
	s.AfterTimer(5, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []float64 {
		s := New(seed)
		var trace []float64
		// A little self-rescheduling process using the sim RNG.
		var tick func()
		n := 0
		tick = func() {
			trace = append(trace, s.Now())
			n++
			if n < 50 {
				s.After(s.Jitter(0.1, 2.0), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestJitterBounds(t *testing.T) {
	s := New(3)
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		j := s.Jitter(lo, hi)
		if hi <= lo {
			return j == lo
		}
		return j >= lo && j < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: executing N events scheduled at arbitrary non-negative times
// always yields a non-decreasing clock sequence.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(times []float64) bool {
		s := New(1)
		var seen []float64
		for _, tm := range times {
			if tm < 0 {
				tm = -tm
			}
			if tm > 1e12 {
				tm = 1e12
			}
			s.At(tm, func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoreReproducesRun drives a simulator to a quiescent point,
// snapshots it, and checks that a fresh simulator restored from the snapshot
// continues with the exact same event timings and random draws.
func TestSnapshotRestoreReproducesRun(t *testing.T) {
	const seed = 99
	phase1 := func(s *Sim) {
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 40 {
				s.After(s.Jitter(0.1, 3.0), tick)
			}
		}
		s.After(0, tick)
		s.Run()
	}
	phase2 := func(s *Sim) []float64 {
		var trace []float64
		var tick func()
		n := 0
		tick = func() {
			trace = append(trace, s.Now(), s.Rand().Float64())
			n++
			if n < 30 {
				s.After(s.Jitter(0.2, 1.5), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return trace
	}

	// Reference: one simulator runs both phases back to back.
	ref := New(seed)
	phase1(ref)
	want := phase2(ref)

	// Snapshot after phase 1 and restore into a fresh simulator.
	src := New(seed)
	phase1(src)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(seed)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Now() != src.Now() || restored.Steps() != src.Steps() {
		t.Fatalf("restored clock/steps = %v/%d, want %v/%d",
			restored.Now(), restored.Steps(), src.Now(), src.Steps())
	}
	got := phase2(restored)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored trace diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSnapshotRefusesPendingEvents(t *testing.T) {
	s := New(1)
	s.At(5, func() {})
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot with pending events succeeded")
	}
	s.Run()
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot of quiescent sim failed: %v", err)
	}
}

func TestRestoreRefusesRewindingRNG(t *testing.T) {
	a := New(1)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := New(1)
	b.Rand().Float64() // consume a draw the snapshot does not have
	if err := b.Restore(snap); err == nil {
		t.Fatal("restore rewound the RNG")
	}
}

func TestStepsCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 17; i++ {
		s.At(float64(i), func() {})
	}
	s.Run()
	if s.Steps() != 17 {
		t.Fatalf("Steps() = %d, want 17", s.Steps())
	}
}

// TestHandoffForgetsThePast pins Handoff's contract: two simulators built
// with one seed, one of which ran and drew and the other nothing, leave a
// Handoff at one deadline with equal clocks and equal draws from then on,
// on a stream that is not the one the seed starts. A snapshot taken after
// the handoff restores that stream into a fresh simulator.
func TestHandoffForgetsThePast(t *testing.T) {
	busy, idle := New(9), New(9)
	for i := 0; i < 50; i++ {
		busy.After(busy.Jitter(0, 10), func() { busy.Rand().Int63() })
	}
	busy.Run()
	busy.Handoff(3600)
	idle.Handoff(3600)
	if busy.Now() != 3600 || idle.Now() != 3600 {
		t.Fatalf("clocks %v and %v after Handoff(3600)", busy.Now(), idle.Now())
	}
	snap, err := busy.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	first := New(9).Rand().Int63() // the stream the seed itself starts
	restored := New(9)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, b, c := busy.Rand().Int63(), idle.Rand().Int63(), restored.Rand().Int63()
		if a != b || a != c {
			t.Fatalf("draw %d after the handoff: %d, %d idle, %d restored", i, a, b, c)
		}
		if i == 0 && a == first {
			t.Fatal("the handed-off stream starts where the seed's own does")
		}
	}
}

// TestShardedHandoff hands off a shard group through its control
// simulator: every member lands on the deadline and restarts its own
// seed's handoff stream.
func TestShardedHandoff(t *testing.T) {
	control, shards, _, _ := shardGroup(t, 2, 1.0)
	shards[1].At(0.5, func() { shards[1].Rand().Int63() })
	control.Handoff(100)
	for i, s := range append([]*Sim{control}, shards...) {
		want := New(s.Seed())
		want.Handoff(100)
		if s.Now() != 100 || s.Rand().Int63() != want.Rand().Int63() {
			t.Fatalf("member %d: clock %v, or its stream is not its seed's handoff stream", i, s.Now())
		}
	}
}
