package bgp

import (
	"testing"
	"unsafe"
)

// send is transmit for an Update in its public form: it resolves the
// prefix's id the way the by-prefix accessors do and puts on the wire what
// exportPass would. The send-path tests drive the wire through it.
func (s *Speaker) send(sess int, u Update) {
	id, ok := s.net.prefixID(u.Prefix)
	if !ok {
		panic("bgp: send of a prefix no Originate has given an id: " + u.Prefix.String())
	}
	s.transmit(sess, update{typ: u.Type, id: id, route: u.Route})
}

// TestWireLayout pins the sizes of the per-event and per-state structs the
// prefix id shrank. Each budget keeps a Go size class: a delivery is
// allocated by its pool one at a time, a prefix state and its per-session
// slots by every speaker that learns a prefix, and a mailbox holds cross-shard messages by value. A
// speaker's per-session state lives in the network's tables, which leaves
// the speaker one offset into them (every network build carves a slab of
// speakers).
func TestWireLayout(t *testing.T) {
	if got := unsafe.Sizeof(update{}); got != 16 {
		t.Errorf("update is %d B, want 16: the prefix rides as a 4-byte id beside the type", got)
	}
	if got := unsafe.Sizeof(delivery{}); got != 48 {
		t.Errorf("delivery is %d B, budget 48 B: Go's 48-byte size class; one byte more takes the 64-byte class", got)
	}
	if got := unsafe.Sizeof(xmsg{}); got != 56 {
		t.Errorf("xmsg is %d B, budget 56 B: mailboxes hold it by value, and alone it fits Go's 64-byte size class", got)
	}
	if got := unsafe.Sizeof(adjSlot{}); got != 16 {
		t.Errorf("adjSlot is %d B, want 16 B: one route and the MRAI deadline, Go's 16-byte size class; a second route takes 24, and every state's slot array half as much again", got)
	}
	if got := unsafe.Sizeof(prefixState{}); got > 96 {
		t.Errorf("prefixState is %d B, budget 96 B: Go's 96-byte size class; one byte more takes the 112-byte class", got)
	}
	if got := unsafe.Sizeof(Speaker{}); got > 96 {
		t.Errorf("Speaker is %d B, budget 96 B: its sessions are one offset into the network's per-session tables, not four slices", got)
	}
}
