package bgp

import "bestofboth/internal/topology"

// pathIntern deduplicates AS-path slices within one Network. Routes are
// immutable after publish (see the Route doc), so every speaker that exports
// the same path content can share one slice: prepend runs at an origin and
// the head+tail extension a transit speaker produces both collapse to a
// single allocation per distinct path in the network's lifetime.
//
// Keys are the byte encoding of the path (4 bytes per ASN, little-endian),
// built in a reusable scratch buffer; the map lookup via m[string(key)] is
// recognized by the compiler and does not allocate, so interning an
// already-known path is allocation-free. The table is per-shard and each
// shard runs single-threaded (one Sim), so no locking is needed.
type pathIntern struct {
	m   map[string][]topology.ASN
	key []byte
}

func newPathIntern() pathIntern {
	return pathIntern{m: make(map[string][]topology.ASN), key: make([]byte, 0, 256)}
}

//cdnlint:allocfree
func (pi *pathIntern) appendASN(a topology.ASN) {
	pi.key = append(pi.key, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
}

// repeat returns the interned path consisting of n copies of asn — the shape
// every origination produces (one mandatory copy plus prepending).
//
//cdnlint:allocfree known paths are returned from the table without allocating
func (pi *pathIntern) repeat(asn topology.ASN, n int) []topology.ASN {
	pi.key = pi.key[:0]
	for i := 0; i < n; i++ {
		pi.appendASN(asn)
	}
	if p, ok := pi.m[string(pi.key)]; ok {
		return p
	}
	p := make([]topology.ASN, n)
	for i := range p {
		p[i] = asn
	}
	pi.m[string(pi.key)] = p
	return p
}

// extend returns the interned path head·tail — the shape every transit
// export produces (own ASN prepended to the best route's path).
//
//cdnlint:allocfree known paths are returned from the table without allocating
func (pi *pathIntern) extend(head topology.ASN, tail []topology.ASN) []topology.ASN {
	pi.key = pi.key[:0]
	pi.appendASN(head)
	for _, a := range tail {
		pi.appendASN(a)
	}
	if p, ok := pi.m[string(pi.key)]; ok {
		return p
	}
	p := make([]topology.ASN, 1+len(tail))
	p[0] = head
	copy(p[1:], tail)
	pi.m[string(pi.key)] = p
	return p
}

// delivery is the recycled payload of a send→receive event: the scheduled
// arrival of one UPDATE at a neighbor. Pooling these (plus netsim.AtCall)
// removes the per-message closure allocation on the hottest path in the
// simulator. next links a free delivery into its shard's pool. With the
// prefix carried as its id the struct is 48 bytes, Go's 48-byte size class
// (TestWireLayout).
type delivery struct {
	peer  *Speaker
	rev   int
	epoch uint64
	u     update
	next  *delivery
}

// runDelivery is the shared event callback for all pooled deliveries. The
// payload is returned to the free-list before the receive runs, so sends
// triggered by this very receive can already reuse it.
//
//cdnlint:allocfree
func runDelivery(a any) {
	d := a.(*delivery)
	peer, rev, epoch, u := d.peer, d.rev, d.epoch, d.u
	sh := peer.sh
	*d = delivery{next: sh.freeDeliv}
	sh.freeDeliv = d
	// A session reset or link failure while the update was in flight tears
	// down the TCP connection it rode on; the update must never arrive.
	if peer.sessEpoch(rev) != epoch {
		return
	}
	peer.receive(rev, u)
}

// pendingExport is the recycled payload of an MRAI-pacing timer: re-run
// export for one (prefix state, session) when its advertisement interval
// expires.
// The speaker is st.owner. next links a free one into its shard's pool.
type pendingExport struct {
	st   *prefixState
	sess int
	next *pendingExport
}

//cdnlint:allocfree
func runPendingExport(a any) {
	pe := a.(*pendingExport)
	st, sess := pe.st, pe.sess
	s := st.owner
	sh := s.sh
	*pe = pendingExport{next: sh.freePend}
	sh.freePend = pe
	st.pending[sess] = false
	s.export(st, sess)
}
