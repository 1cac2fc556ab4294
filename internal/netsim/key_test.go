package netsim

import (
	"testing"
	"unsafe"
)

// TestEventKeyLayout pins the heap key at 16 bytes: the heap's arrays and
// every sift move are sized by it, and a doubling array of 16-byte keys sits
// in Go's 16-byte-aligned size classes with no padding word per element.
func TestEventKeyLayout(t *testing.T) {
	if got := unsafe.Sizeof(eventKey{}); got != 16 {
		t.Fatalf("eventKey is %d B, budget 16 B (Go's 16-byte size class): the seq and the slab ref no longer share one word", got)
	}
}

// TestPackedKeyLimits checks the two fields a key packs into one word: the
// schedule that would hand out seq 2^40, or a 2^24th pending ref, panics
// with its named message, and before the slab grows a page for it.
func TestPackedKeyLimits(t *testing.T) {
	mustPanic := func(t *testing.T, s *Sim, want string) {
		t.Helper()
		pages := len(s.queue.slab.pages)
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Fatalf("schedule panicked with %v, want %q", got, want)
			}
			if n := len(s.queue.slab.pages); n != pages {
				t.Fatalf("the slab grew from %d to %d pages before the panic", pages, n)
			}
			if s.queue.len() != 0 {
				t.Fatalf("%d events queued by a schedule that panicked", s.queue.len())
			}
		}()
		s.At(1, func() {})
	}

	t.Run("seq", func(t *testing.T) {
		s := New(1)
		s.seq = maxSeq - 1
		s.At(1, func() {}) // takes the last seq a key can hold
		s.Run()
		if s.seq != maxSeq {
			t.Fatalf("seq = %d after scheduling at maxSeq-1, want %d", s.seq, uint64(maxSeq))
		}
		mustPanic(t, s, seqOverflow)
	})
	t.Run("ref", func(t *testing.T) {
		s := New(1)
		// Every ref is out: none is free and the slab has handed out all
		// 2^24. Priming the counter stands in for queueing 16 M events.
		s.queue.slab.n = maxRefs
		s.queue.free = s.queue.free[:0]
		mustPanic(t, s, refOverflow)
	})
}

// TestRestoredHighSeqKeepsOrder restores a kernel whose sequence counter
// lies above 2^32, so the seqs of new events fill the key's high bits, and
// checks that events at one instant still fire in the order they were
// scheduled, interleaved with earlier and later instants.
func TestRestoredHighSeqKeepsOrder(t *testing.T) {
	s := New(3)
	if err := s.Restore(Snapshot{Now: 10, seq: 1<<32 + 12345}); err != nil {
		t.Fatal(err)
	}
	var want, got []rec
	for i := 0; i < 200; i++ {
		at := Seconds(10 + i%3) // three instants, many ties each
		r := rec{at, i}
		want = append(want, r)
		s.At(at, func() { got = append(got, r) })
	}
	s.Run()
	checkStableOrder(t, want, got)
	if s.seq != 1<<32+12345+200 {
		t.Fatalf("seq = %d after 200 schedules", s.seq)
	}
}
