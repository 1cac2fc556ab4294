package dns

import "net/netip"

// ZoneSnapshot is a deep copy of the mutable zone contents of an
// Authoritative server: the A record sets, the zone serial, and the query
// counter.
type ZoneSnapshot struct {
	a          map[string]aSet
	serial     uint32
	queryCount uint64
}

func cloneRecords(m map[string]aSet) map[string]aSet {
	out := make(map[string]aSet, len(m))
	for name, set := range m {
		out[name] = aSet{addrs: append([]netip.Addr(nil), set.addrs...), ttl: set.ttl}
	}
	return out
}

// SnapshotZone deep-copies the zone state. The snapshot is immutable and may
// be restored into any number of servers.
func (s *Authoritative) SnapshotZone() ZoneSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ZoneSnapshot{
		a:          cloneRecords(s.a),
		serial:     s.serial,
		queryCount: s.QueryCount,
	}
}

// RestoreZone replaces the server's zone contents with a deep copy of the
// snapshot. The origin, SOA identity fields, and NS set are part of the
// server's construction and are left untouched.
func (s *Authoritative) RestoreZone(snap ZoneSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.a = cloneRecords(snap.a)
	s.serial = snap.serial
	s.soa.Serial = snap.serial
	s.QueryCount = snap.queryCount
}
